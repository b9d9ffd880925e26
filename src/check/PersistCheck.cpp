//===- check/PersistCheck.cpp - Persist-ordering checker ------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "check/PersistCheck.h"

#include "support/CacheLine.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace crafty;

const char *crafty::persistDiagName(PersistDiag Kind) {
  switch (Kind) {
  case PersistDiag::UnflushedStore:
    return "unflushed-store";
  case PersistDiag::RedundantClwb:
    return "redundant-clwb";
  case PersistDiag::EarlyWrite:
    return "early-write";
  case PersistDiag::UnloggedStore:
    return "unlogged-store";
  case PersistDiag::BrokenFlushChain:
    return "broken-flush-chain";
  }
  return "unknown";
}

PersistCheck::PersistCheck(PMemPool &Pool)
    : Pool(Pool), PoolBegin(reinterpret_cast<uintptr_t>(Pool.base())),
      PoolEnd(PoolBegin + Pool.size()),
      Pending(Pool.config().MaxThreads) {}

PersistCheck::~PersistCheck() { detach(); }

void PersistCheck::attach() {
  Pool.setObserver(this);
  Attached = true;
}

void PersistCheck::detach() {
  if (Attached && Pool.observer() == this)
    Pool.setObserver(nullptr);
  Attached = false;
}

void PersistCheck::registerLogRegion(uint32_t ThreadId,
                                     const uint64_t *Slots,
                                     size_t NumEntries) {
  MutexLock Guard(M);
  auto Begin = reinterpret_cast<uintptr_t>(Slots);
  LogRegions.push_back(
      LogRegion{Begin, Begin + NumEntries * 2 * sizeof(uint64_t), ThreadId});
}

size_t PersistCheck::lineIndexOf(const void *Addr) const {
  return (reinterpret_cast<uintptr_t>(Addr) - PoolBegin) >> CacheLineShift;
}

const PersistCheck::LogRegion *
PersistCheck::findLogRegion(uintptr_t Addr) const {
  for (const LogRegion &R : LogRegions)
    if (Addr >= R.Begin && Addr < R.End)
      return &R;
  return nullptr;
}

PersistCheck::TxnScope *PersistCheck::currentScope() {
  auto It = Scopes.find(std::this_thread::get_id());
  if (It == Scopes.end() || !It->second.Active)
    return nullptr;
  return &It->second;
}

void PersistCheck::markLinePersisted(LineState &LS, uint64_t Seq,
                                     bool ByEvict) {
  LS.LastPersist = Seq;
  LS.CleanByEvict = ByEvict;
}

void PersistCheck::report(PersistDiag Kind, uint32_t ThreadId,
                          uint64_t TxnIndex, size_t PoolOffset,
                          const char *Phase, const char *Event) {
  ++Counts[static_cast<unsigned>(Kind)];
  if (Reports.size() < MaxStoredReports)
    Reports.push_back(PersistReport{Kind, ThreadId, TxnIndex, PoolOffset,
                                    Phase ? Phase : "", Event});
}

void PersistCheck::beginTxn(uint32_t ThreadId) {
  MutexLock Guard(M);
  TxnScope &S = Scopes[std::this_thread::get_id()];
  S.ThreadId = ThreadId;
  S.ScopeId = NextScopeId++;
  S.TxnIndex = ++TxnCounter;
  S.Phase = "";
  S.Active = true;
  S.StoredLines.clear();
  S.ReportedWords.clear();
  S.Covered.clear();
}

void PersistCheck::setPhase(const char *Tag) {
  MutexLock Guard(M);
  if (TxnScope *S = currentScope())
    S->Phase = Tag;
}

void PersistCheck::endTxn() {
  MutexLock Guard(M);
  TxnScope *S = currentScope();
  if (!S)
    return;
  // Diagnostic 1: every line this transaction stored to must have been
  // flush-scheduled (or otherwise persisted) no earlier than its last
  // store. Comparing against the line's global CLWB/persist sequences
  // keeps concurrent scopes on shared lines independent.
  for (const auto &[Line, Seq] : S->StoredLines) {
    const LineState &LS = Lines[Line];
    if (LS.LastClwb < Seq && LS.LastPersist < Seq)
      report(PersistDiag::UnflushedStore, S->ThreadId, S->TxnIndex,
             Line << CacheLineShift, S->Phase, "commit");
  }
  S->Active = false;
  S->StoredLines.clear();
  S->ReportedWords.clear();
}

bool PersistCheck::inTxn() {
  MutexLock Guard(M);
  return currentScope() != nullptr;
}

void PersistCheck::decodeLogStore(const LogRegion &Region, uintptr_t Addr,
                                  uint64_t NewVal, uint64_t Seq,
                                  TxnScope *Scope) {
  size_t WordIdx = (Addr - Region.Begin) / sizeof(uint64_t);
  if ((WordIdx & 1) == 0) {
    // AddrWord slot: a data entry's AddrWord is the covered word's address
    // with the pass and old-value-LSB bits packed into the low bits
    // (log/LogEntry.h). Tag entries and cleared slots decode to small
    // integers, never pool addresses.
    uint64_t Field = NewVal & ~7ull;
    if (Field >= PoolBegin && Field < PoolEnd) {
      SlotWord[Addr] = Field;
      if (Scope)
        Scope->Covered[Field] =
            Coverage{Seq, lineIndexOf(reinterpret_cast<void *>(Addr))};
    } else {
      SlotWord.erase(Addr);
    }
    return;
  }
  // ValWord slot: extend the owning entry's staging sequence -- the entry
  // has persisted only once *both* its words have (a torn entry is
  // detectable but does not protect the covered write).
  if (!Scope)
    return;
  auto It = SlotWord.find(Addr - sizeof(uint64_t));
  if (It == SlotWord.end())
    return;
  auto Cov = Scope->Covered.find(It->second);
  if (Cov != Scope->Covered.end() && Cov->second.Seq < Seq)
    Cov->second.Seq = Seq;
}

void PersistCheck::onStore(void *Addr, uint64_t OldVal, uint64_t NewVal,
                           bool ValuesKnown) {
  MutexLock Guard(M);
  auto A = reinterpret_cast<uintptr_t>(Addr);
  const LogRegion *Region = findLogRegion(A);
  // A store that leaves the word unchanged is invisible to persistence:
  // Crafty's nondestructive rollback relies on the write buffer merging
  // the body's store with its rollback into a no-op. Log-region slots are
  // exempt -- a wrapped log may restage a bit-identical entry, and its
  // coverage must still be recorded.
  if (!Region && ValuesKnown && OldVal == NewVal)
    return;
  uint64_t Seq = NextSeq++;
  size_t Line = lineIndexOf(Addr);
  LineState &LS = Lines[Line];
  LS.LastStore = Seq;
  LS.CleanByEvict = false;
  TxnScope *Scope = currentScope();
  LS.LastStoreTid = Scope ? Scope->ThreadId : ~0u;
  if (Scope)
    Scope->StoredLines[Line] = Seq;
  if (Region) {
    decodeLogStore(*Region, A, NewVal, Seq, Scope);
    return;
  }
  if (!Scope || Scope->ReportedWords.count(A))
    return;
  // Diagnostics 3/4: a program write inside a transaction body is
  // persistable the moment it lands in the (volatile) cache; by then a
  // covering undo entry staged by this same scope must already have
  // persisted. The entry's persist sequence is sticky, so later dirtying
  // of the entry's line (e.g. a forced tag) cannot un-cover the write.
  auto Cov = Scope->Covered.find(A);
  if (Cov == Scope->Covered.end()) {
    report(PersistDiag::UnloggedStore, Scope->ThreadId, Scope->TxnIndex,
           A - PoolBegin, Scope->Phase, "store");
    Scope->ReportedWords.insert(A);
  } else if (Lines[Cov->second.EntryLine].LastPersist < Cov->second.Seq) {
    report(PersistDiag::EarlyWrite, Scope->ThreadId, Scope->TxnIndex,
           A - PoolBegin, Scope->Phase, "store");
    Scope->ReportedWords.insert(A);
  }
}

void PersistCheck::onClwb(uint32_t ThreadId, const void *Addr) {
  MutexLock Guard(M);
  uint64_t Seq = NextSeq++;
  size_t Line = lineIndexOf(Addr);
  LineState &LS = Lines[Line];
  // Diagnostic 2 (lint): flushing a line with nothing unpersisted. Only
  // lines the checker has seen stores to are eligible (setup writes
  // bypass the instrumented paths), and eviction-cleaned lines are
  // exempt: software cannot know the hardware already wrote them back.
  if (LS.LastStore != 0 && LS.LastStore <= LS.LastPersist &&
      !LS.CleanByEvict) {
    TxnScope *Scope = currentScope();
    report(PersistDiag::RedundantClwb, ThreadId,
           Scope ? Scope->TxnIndex : 0, Line << CacheLineShift,
           Scope ? Scope->Phase : "", "clwb");
  }
  LS.LastClwb = Seq;
  assert(ThreadId < Pending.size() && "thread id out of range");
  Pending[ThreadId].push_back(PendingClwb{Line, Seq});
}

void PersistCheck::onDrain(uint32_t ThreadId, bool Remote) {
  MutexLock Guard(M);
  uint64_t Seq = NextSeq++;
  assert(ThreadId < Pending.size() && "thread id out of range");
  std::vector<PendingClwb> &Queue = Pending[ThreadId];
  size_t ReportedBefore = Reports.size();
  for (const PendingClwb &P : Queue) {
    LineState &LS = Lines[P.Line];
    // Diagnostic 5: the draining thread stored to the line after this
    // CLWB was scheduled and no one re-flushed it, yet the drain persists
    // its current content. Real hardware may have completed the old
    // write-back before the late store, leaving it unpersisted -- a
    // broken flush chain. A *different* thread's late store to a shared
    // line is not flagged here: that store is the other thread's own
    // flush-chain (its commit-time check catches an unflushed claim).
    // Stores of unknown origin (outside any scope) stay eligible.
    // Remote drains (forceEmptyCommit moving a delinquent thread's
    // rollback horizon) are exempt entirely: they assert old CLWBs
    // completed by the passage of time and sample the victim's chain at
    // an arbitrary instant -- the victim may legitimately sit between a
    // store and its own CLWB.
    if (!Remote && LS.LastStore > P.Seq &&
        (LS.LastStoreTid == ThreadId || LS.LastStoreTid == ~0u) &&
        LS.LastClwb < LS.LastStore && LS.LastPersist < LS.LastStore) {
      bool AlreadyReported = false;
      for (size_t I = ReportedBefore; I != Reports.size(); ++I)
        if (Reports[I].PoolOffset == P.Line << CacheLineShift) {
          AlreadyReported = true;
          break;
        }
      if (!AlreadyReported) {
        TxnScope *Scope = currentScope();
        report(PersistDiag::BrokenFlushChain, ThreadId,
               Scope ? Scope->TxnIndex : 0, P.Line << CacheLineShift,
               Scope ? Scope->Phase : "", "drain");
      }
    }
    markLinePersisted(LS, Seq, /*ByEvict=*/false);
  }
  Queue.clear();
}

void PersistCheck::onEvict(const void *LineAddr) {
  MutexLock Guard(M);
  uint64_t Seq = NextSeq++;
  markLinePersisted(Lines[lineIndexOf(LineAddr)], Seq, /*ByEvict=*/true);
}

void PersistCheck::onPersistDirect(const void *Addr, size_t Len) {
  if (Len == 0)
    return;
  MutexLock Guard(M);
  uint64_t Seq = NextSeq++;
  size_t First = lineIndexOf(Addr);
  size_t Last =
      lineIndexOf(reinterpret_cast<const uint8_t *>(Addr) + Len - 1);
  for (size_t Line = First; Line <= Last; ++Line) {
    LineState &LS = Lines[Line];
    LS.LastStore = Seq;
    markLinePersisted(LS, Seq, /*ByEvict=*/false);
  }
}

void PersistCheck::onPersistImageWord(uint32_t ThreadId, const void *Addr,
                                      uint64_t Val) {
  // Image-only writes (the checkpointer path) leave the volatile view --
  // and therefore the line state machine -- untouched.
  (void)ThreadId;
  (void)Addr;
  (void)Val;
}

void PersistCheck::onFlushEverything() {
  MutexLock Guard(M);
  uint64_t Seq = NextSeq++;
  for (auto &[Line, LS] : Lines) {
    (void)Line;
    markLinePersisted(LS, Seq, /*ByEvict=*/false);
  }
}

void PersistCheck::onCrash() {
  MutexLock Guard(M);
  // The volatile view now equals the image and all pending CLWBs are
  // gone; diagnostics survive, transient state does not.
  Lines.clear();
  SlotWord.clear();
  Scopes.clear();
  for (auto &Queue : Pending)
    Queue.clear();
}

void PersistCheck::onReset() { onCrash(); }

uint64_t PersistCheck::violationCount() const {
  MutexLock Guard(M);
  uint64_t N = 0;
  for (unsigned K = 0; K != NumPersistDiags; ++K)
    if (isPersistViolation(static_cast<PersistDiag>(K)))
      N += Counts[K];
  return N;
}

uint64_t PersistCheck::lintCount() const {
  MutexLock Guard(M);
  return Counts[static_cast<unsigned>(PersistDiag::RedundantClwb)];
}

uint64_t PersistCheck::count(PersistDiag Kind) const {
  MutexLock Guard(M);
  return Counts[static_cast<unsigned>(Kind)];
}

std::vector<PersistReport> PersistCheck::reports() const {
  MutexLock Guard(M);
  return Reports;
}

static std::string formatSelected(const std::vector<PersistReport> &Reports,
                                  size_t MaxLines, bool ViolationsOnly) {
  std::string Out;
  size_t Printed = 0, Matched = 0;
  for (const PersistReport &R : Reports) {
    if (ViolationsOnly && !isPersistViolation(R.Kind))
      continue;
    ++Matched;
    if (Printed == MaxLines)
      continue;
    ++Printed;
    char Buf[192];
    std::snprintf(Buf, sizeof(Buf),
                  "persistcheck: %s at pool+0x%zx [thread %d txn %llu "
                  "phase %s via %s]\n",
                  persistDiagName(R.Kind), R.PoolOffset,
                  R.ThreadId == ~0u ? -1 : (int)R.ThreadId,
                  (unsigned long long)R.TxnIndex,
                  R.Phase[0] ? R.Phase : "-", R.Event);
    Out += Buf;
  }
  if (Matched > Printed) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "... and %zu more\n", Matched - Printed);
    Out += Buf;
  }
  return Out;
}

std::string PersistCheck::formatReports(size_t MaxLines) const {
  MutexLock Guard(M);
  return formatSelected(Reports, MaxLines, /*ViolationsOnly=*/false);
}

std::string PersistCheck::formatViolations(size_t MaxLines) const {
  MutexLock Guard(M);
  return formatSelected(Reports, MaxLines, /*ViolationsOnly=*/true);
}

CheckReport PersistCheck::checkReport() const {
  MutexLock Guard(M);
  CheckReport CR;
  CR.Checker = "persistcheck";
  for (unsigned K = 0; K != NumPersistDiags; ++K) {
    auto Kind = static_cast<PersistDiag>(K);
    CR.Counts.emplace_back(persistDiagName(Kind), Counts[K]);
    if (isPersistViolation(Kind))
      CR.Violations += Counts[K];
    else
      CR.Lints += Counts[K];
  }
  for (const PersistReport &R : Reports)
    CR.Entries.push_back(CheckReportEntry{
        persistDiagName(R.Kind), isPersistViolation(R.Kind), R.ThreadId,
        /*OtherThreadId=*/~0u, R.TxnIndex, R.PoolOffset, R.Phase, R.Event});
  return CR;
}

void PersistCheck::clearReports() {
  MutexLock Guard(M);
  Reports.clear();
  for (uint64_t &C : Counts)
    C = 0;
}
