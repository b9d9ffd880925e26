//===- check/TxRaceCheck.cpp - HTM-layer race & isolation checker ---------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "check/TxRaceCheck.h"

#include "htm/Htm.h"
#include "pmem/PMemPool.h"

#include <cstdio>
#include <cstring>

using namespace crafty;

const char *crafty::raceDiagName(RaceDiag Kind) {
  switch (Kind) {
  case RaceDiag::TxNonTxRace:
    return "tx-nontx-race";
  case RaceDiag::SglNotHeld:
    return "sgl-not-held";
  case RaceDiag::NonTxRace:
    return "nontx-race";
  case RaceDiag::NondetValidate:
    return "nondet-validate";
  case RaceDiag::UnscopedStore:
    return "unscoped-store";
  }
  CRAFTY_UNREACHABLE("bad race diagnostic");
}

//===----------------------------------------------------------------------===//
// Construction and hook installation
//===----------------------------------------------------------------------===//

TxRaceCheck::TxRaceCheck(PMemPool &Pool)
    : PoolBegin(reinterpret_cast<uintptr_t>(Pool.base())),
      PoolEnd(PoolBegin + Pool.size()) {}

TxRaceCheck::~TxRaceCheck() = default;

namespace {
TxRaceCheck *checker(void *Ctx) { return static_cast<TxRaceCheck *>(Ctx); }

void onTxBeginTramp(void *Ctx, uint32_t Tid, uint64_t Snapshot) {
  checker(Ctx)->txBegin(Tid, Snapshot);
}
void onTxLoadTramp(void *Ctx, uint32_t Tid, const void *Addr) {
  checker(Ctx)->txLoad(Tid, Addr);
}
void onTxStoreTramp(void *Ctx, uint32_t Tid, void *Addr) {
  checker(Ctx)->txStore(Tid, Addr);
}
void onTxCommitTramp(void *Ctx, uint32_t Tid, uint64_t Version,
                     bool HadWrites) {
  checker(Ctx)->txCommit(Tid, Version, HadWrites);
}
void onTxAbortTramp(void *Ctx, uint32_t Tid) { checker(Ctx)->txAbort(Tid); }
void onNonTxLoadTramp(void *Ctx, const void *Addr) {
  checker(Ctx)->nonTxLoad(Addr);
}
void onNonTxStoreTramp(void *Ctx, void *Addr, uint64_t Version) {
  checker(Ctx)->nonTxStore(Addr, Version);
}
} // namespace

void TxRaceCheck::installHtmHooks(HtmRuntime &Htm) {
  AccessHooks H;
  H.Ctx = this;
  H.OnTxBegin = onTxBeginTramp;
  H.OnTxLoad = onTxLoadTramp;
  H.OnTxStore = onTxStoreTramp;
  H.OnTxCommit = onTxCommitTramp;
  H.OnTxAbort = onTxAbortTramp;
  H.OnNonTxLoad = onNonTxLoadTramp;
  H.OnNonTxStore = onNonTxStoreTramp;
  Htm.setAccessHooks(H);
  HooksInstalled = true;
}

void TxRaceCheck::removeHtmHooks(HtmRuntime &Htm) {
  if (!HooksInstalled)
    return;
  Htm.setAccessHooks(AccessHooks());
  HooksInstalled = false;
}

void TxRaceCheck::registerExemptRegion(const void *Begin, size_t Bytes) {
  auto B = reinterpret_cast<uintptr_t>(Begin);
  Exempt.push_back(ExemptRegion{B, B + Bytes});
}

bool TxRaceCheck::tracked(const void *Addr) const {
  auto A = reinterpret_cast<uintptr_t>(Addr);
  if (A < PoolBegin || A >= PoolEnd)
    return false;
  for (const ExemptRegion &R : Exempt)
    if (A >= R.Begin && A < R.End)
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Vector-clock plumbing
//===----------------------------------------------------------------------===//

void TxRaceCheck::joinInto(VectorClock &Dst, const VectorClock &Src) {
  if (Src.size() > Dst.size())
    Dst.resize(Src.size(), 0);
  for (size_t I = 0; I != Src.size(); ++I)
    if (Src[I] > Dst[I])
      Dst[I] = Src[I];
}

TxRaceCheck::ThreadState &TxRaceCheck::stateFor(uint32_t Tid) {
  ThreadState &T = ThreadStates[Tid];
  if (T.C.size() <= Tid) {
    T.C.resize(Tid + 1, 0);
    T.C[Tid] = 1; // Epochs start at 1 so "never synchronized" compares low.
  }
  return T;
}

TxRaceCheck::TxnScope *TxRaceCheck::scopeFor(uint32_t Tid) {
  auto It = Scopes.find(Tid);
  return It == Scopes.end() ? nullptr : &It->second;
}

uint32_t TxRaceCheck::boundTid() {
  auto [It, Inserted] = Bindings.try_emplace(std::this_thread::get_id(), 0);
  if (Inserted)
    It->second = NextSyntheticTid++;
  return It->second;
}

void TxRaceCheck::joinPrefix(VectorClock &Dst, uint64_t UpTo) {
  if (UpTo == 0)
    return;
  // Folding may pull a few entries above a small UpTo into the base; that
  // only adds (sound but conservative) edges, never reports a false race.
  if (FoldedUpTo != 0)
    joinInto(Dst, FoldedVC);
  for (auto It = Published.begin();
       It != Published.end() && It->first <= UpTo; ++It)
    joinInto(Dst, It->second);
}

void TxRaceCheck::publish(uint64_t Version, const VectorClock &C) {
  Published[Version] = C;
  joinInto(AllVC, C);
  if (Published.size() <= kMaxPrefixEntries)
    return;
  size_t ToFold = Published.size() / 2;
  auto It = Published.begin();
  for (size_t I = 0; I != ToFold; ++I, ++It) {
    joinInto(FoldedVC, It->second);
    FoldedUpTo = It->first;
  }
  Published.erase(Published.begin(), It);
}

//===----------------------------------------------------------------------===//
// Shadow-state update and race checks
//===----------------------------------------------------------------------===//

void TxRaceCheck::applyAccess(uint32_t Tid, uintptr_t Addr, bool IsWrite,
                              bool IsTx, const char *Event) {
  ThreadState &T = stateFor(Tid);
  WordState &W = Words[Addr];
  uint64_t Seq = NextSeq++;
  uint64_t MyClk = clockOf(T.C, Tid);
  bool IsSgl = T.SglDepth != 0;

  // Committed-transaction pairs are never races: the HTM serializes them
  // (two blind transactional writers are legal under TL2). A committed
  // transaction and an SGL-section access are likewise always ordered by
  // lock subscription: the transaction read SglWord at begin and
  // validated it at commit, so it serialized wholly before the acquire
  // or wholly after the release. That pair cannot always be proved by
  // clocks alone -- a read-only commit publishes nothing for the section
  // to join -- hence the explicit suppression.
  auto racy = [&](uint32_t OtherTid, uint64_t OtherClk, bool OtherTx,
                  bool OtherSgl) {
    return OtherTid != Tid && !(OtherTx && IsTx) &&
           !(OtherSgl && IsTx) && !(OtherTx && IsSgl) &&
           OtherClk > clockOf(T.C, OtherTid);
  };
  auto kindOf = [&](bool OtherTx) {
    return (OtherTx || IsTx) ? RaceDiag::TxNonTxRace : RaceDiag::NonTxRace;
  };

  if (W.WTid != ~0u && racy(W.WTid, W.WClk, W.WTx, W.WSgl))
    report(kindOf(W.WTx), Tid, W.WTid, Addr, Event);
  if (IsWrite) {
    for (const ReadEntry &R : W.Reads)
      if (racy(R.Tid, R.Clk, R.Tx, R.Sgl))
        report(kindOf(R.Tx), Tid, R.Tid, Addr, Event);
    W.WTid = Tid;
    W.WClk = MyClk;
    W.WTx = IsTx;
    W.WSgl = IsSgl;
    W.WSeq = Seq;
    W.Reads.clear();
  } else {
    for (ReadEntry &R : W.Reads)
      if (R.Tid == Tid) {
        R.Clk = MyClk;
        R.Tx = IsTx;
        R.Sgl = IsSgl;
        return;
      }
    W.Reads.push_back(ReadEntry{Tid, MyClk, IsTx, IsSgl});
  }
}

void TxRaceCheck::checkChunkedExclusion(uint32_t Tid, uintptr_t Addr,
                                        const char *Event) {
  TxnScope *S = scopeFor(Tid);
  if (!S || !S->Active || std::strcmp(S->Phase, "chunked") != 0)
    return;
  if (S->SglNotHeldReported)
    return;
  ThreadState &T = stateFor(Tid);
  if (T.SglDepth != 0 || T.SyncHeld != 0)
    return;
  // A lone chunked scope cannot race anyone; the thread-unsafe mode is
  // legal single-threaded (and under app-level locks, which syncAcquire
  // declares). Only flag when exclusion is demonstrably needed.
  if (ActiveScopes <= 1)
    return;
  S->SglNotHeldReported = true;
  report(RaceDiag::SglNotHeld, Tid, ~0u, Addr, Event);
}

void TxRaceCheck::report(RaceDiag Kind, uint32_t Tid, uint32_t OtherTid,
                         uintptr_t Addr, const char *Event) {
  if (Kind == RaceDiag::TxNonTxRace || Kind == RaceDiag::NonTxRace) {
    if (!RaceReportedWords.insert(Addr).second)
      return; // One report per racy word.
  } else if (Kind == RaceDiag::UnscopedStore) {
    if (!LintReportedWords.insert(Addr).second)
      return;
  }
  ++Counts[(unsigned)Kind];
  if (Reports.size() >= MaxStoredReports)
    return;
  TxnScope *S = scopeFor(Tid);
  bool InScope = S && S->Active;
  Reports.push_back(TxRaceReport{Kind, Tid, OtherTid,
                                 InScope ? S->TxnIndex : 0,
                                 Addr >= PoolBegin ? Addr - PoolBegin : 0,
                                 InScope ? S->Phase : "", Event});
}

//===----------------------------------------------------------------------===//
// Scope API
//===----------------------------------------------------------------------===//

void TxRaceCheck::beginTxn(uint32_t ThreadId) {
  MutexLock L(M);
  Bindings[std::this_thread::get_id()] = ThreadId;
  TxnScope &S = Scopes[ThreadId];
  if (!S.Active)
    ++ActiveScopes;
  S.Active = true;
  S.TxnIndex = ++TxnCounter;
  S.Phase = "";
  S.SglNotHeldReported = false;
  S.LogStartSeq = NextSeq;
  S.Footprint.clear();
}

void TxRaceCheck::setPhase(uint32_t ThreadId, const char *Tag) {
  MutexLock L(M);
  TxnScope *S = scopeFor(ThreadId);
  if (!S || !S->Active)
    return;
  S->Phase = Tag;
  if (std::strcmp(Tag, "log") == 0) {
    // Each Log phase (including restarts) opens a fresh determinism
    // window for the nondet-validate analysis.
    S->LogStartSeq = NextSeq;
    S->Footprint.clear();
  }
}

void TxRaceCheck::endTxn(uint32_t ThreadId) {
  MutexLock L(M);
  TxnScope *S = scopeFor(ThreadId);
  if (!S || !S->Active)
    return;
  S->Active = false;
  S->Phase = "";
  S->Footprint.clear();
  --ActiveScopes;
}

void TxRaceCheck::sglAcquired(uint32_t ThreadId) {
  MutexLock L(M);
  ThreadState &T = stateFor(ThreadId);
  ++T.SglDepth;
  // Everything published so far is ordered before the section: any
  // transaction that read SglWord == 0 and committed validated against
  // the stripe the SGL CAS bumped. (Per-access re-joins in nonTxLoad /
  // nonTxStore / txCommit keep this current for commits whose hooks land
  // after this acquire.)
  joinInto(T.C, AllVC);
}

void TxRaceCheck::sglReleased(uint32_t ThreadId) {
  MutexLock L(M);
  ThreadState &T = stateFor(ThreadId);
  if (T.SglDepth)
    --T.SglDepth;
  if (ThreadId < T.C.size())
    ++T.C[ThreadId];
}

void TxRaceCheck::syncAcquire(uint32_t ThreadId, const void *Obj) {
  MutexLock L(M);
  ThreadState &T = stateFor(ThreadId);
  ++T.SyncHeld;
  auto It = SyncClocks.find(Obj);
  if (It != SyncClocks.end())
    joinInto(T.C, It->second);
}

void TxRaceCheck::syncRelease(uint32_t ThreadId, const void *Obj) {
  MutexLock L(M);
  ThreadState &T = stateFor(ThreadId);
  if (T.SyncHeld)
    --T.SyncHeld;
  VectorClock &SC = SyncClocks[Obj];
  joinInto(SC, T.C);
  if (ThreadId < T.C.size())
    ++T.C[ThreadId];
}

void TxRaceCheck::noteValidateDivergence(uint32_t ThreadId,
                                         const void *GotAddr,
                                         const void *WantAddr) {
  MutexLock L(M);
  TxnScope *S = scopeFor(ThreadId);
  if (!S || !S->Active)
    return;
  // A divergence is a *conflict*, not a bug, whenever another thread
  // wrote any word this transaction accessed since its Log phase began
  // (paper Section 4.3: validation exists to catch exactly that). With
  // no such write, the body read the same state twice and still behaved
  // differently: nondeterminism.
  auto Explained = [&](uintptr_t A) {
    auto It = Words.find(A);
    return It != Words.end() && It->second.WSeq >= S->LogStartSeq &&
           It->second.WTid != ThreadId;
  };
  for (uintptr_t A : S->Footprint)
    if (Explained(A))
      return;
  uintptr_t Landmark = 0;
  for (const void *P : {GotAddr, WantAddr}) {
    if (!P || !tracked(P))
      continue;
    auto A = reinterpret_cast<uintptr_t>(P);
    if (Explained(A))
      return;
    if (!Landmark)
      Landmark = A;
  }
  report(RaceDiag::NondetValidate, ThreadId, ~0u, Landmark, "validate");
}

//===----------------------------------------------------------------------===//
// Event API
//===----------------------------------------------------------------------===//

void TxRaceCheck::txBegin(uint32_t ThreadId, uint64_t Snapshot) {
  MutexLock L(M);
  ThreadState &T = stateFor(ThreadId);
  T.InTx = true;
  T.Snapshot = Snapshot;
  T.TxAccesses.clear();
}

void TxRaceCheck::txLoad(uint32_t ThreadId, const void *Addr) {
  MutexLock L(M);
  if (!tracked(Addr))
    return;
  auto A = reinterpret_cast<uintptr_t>(Addr);
  ThreadState &T = stateFor(ThreadId);
  T.TxAccesses.push_back(Access{A, /*IsWrite=*/false});
  if (TxnScope *S = scopeFor(ThreadId); S && S->Active)
    S->Footprint.insert(A);
  checkChunkedExclusion(ThreadId, A, "load");
}

void TxRaceCheck::txStore(uint32_t ThreadId, void *Addr) {
  MutexLock L(M);
  if (!tracked(Addr))
    return;
  auto A = reinterpret_cast<uintptr_t>(Addr);
  ThreadState &T = stateFor(ThreadId);
  T.TxAccesses.push_back(Access{A, /*IsWrite=*/true});
  if (TxnScope *S = scopeFor(ThreadId); S && S->Active)
    S->Footprint.insert(A);
  checkChunkedExclusion(ThreadId, A, "store");
}

void TxRaceCheck::txCommit(uint32_t ThreadId, uint64_t Version,
                           bool HadWrites) {
  MutexLock L(M);
  ThreadState &T = stateFor(ThreadId);
  T.InTx = false;
  if (T.TxAccesses.empty() && !HadWrites)
    return;
  // The join happens here, at apply time, not at begin: for any pair of
  // conflicting operations the commit hook of the earlier one precedes
  // this event (hooks fire before stripe release), so the prefix map is
  // complete for everything this transaction could have observed.
  joinPrefix(T.C, T.Snapshot);
  if (T.SglDepth != 0)
    joinInto(T.C, AllVC);
  for (const Access &A : T.TxAccesses)
    applyAccess(ThreadId, A.Addr, A.IsWrite, /*IsTx=*/true, "commit");
  T.TxAccesses.clear();
  if (HadWrites) {
    publish(Version, T.C);
    if (ThreadId < T.C.size())
      ++T.C[ThreadId];
  }
}

void TxRaceCheck::txAbort(uint32_t ThreadId) {
  MutexLock L(M);
  ThreadState &T = stateFor(ThreadId);
  T.InTx = false;
  T.TxAccesses.clear(); // Speculative accesses never happened.
}

void TxRaceCheck::nonTxLoad(const void *Addr) {
  MutexLock L(M);
  if (!tracked(Addr))
    return;
  auto A = reinterpret_cast<uintptr_t>(Addr);
  uint32_t Tid = boundTid();
  ThreadState &T = stateFor(Tid);
  if (T.SglDepth != 0)
    joinInto(T.C, AllVC);
  checkChunkedExclusion(Tid, A, "load");
  if (TxnScope *S = scopeFor(Tid); S && S->Active)
    S->Footprint.insert(A);
  applyAccess(Tid, A, /*IsWrite=*/false, /*IsTx=*/false, "load");
}

void TxRaceCheck::nonTxStore(void *Addr, uint64_t Version) {
  MutexLock L(M);
  if (!tracked(Addr))
    return;
  auto A = reinterpret_cast<uintptr_t>(Addr);
  uint32_t Tid = boundTid();
  ThreadState &T = stateFor(Tid);
  if (T.SglDepth != 0)
    joinInto(T.C, AllVC);
  checkChunkedExclusion(Tid, A, "store");
  TxnScope *S = scopeFor(Tid);
  if (!S || !S->Active)
    report(RaceDiag::UnscopedStore, Tid, ~0u, A, "store");
  else
    S->Footprint.insert(A);
  applyAccess(Tid, A, /*IsWrite=*/true, /*IsTx=*/false, "store");
  // Later transactions whose snapshot covers Version validated against
  // the bumped stripe; publish so they join this store. The store itself
  // joins nothing: it performs no acquire.
  publish(Version, T.C);
  if (Tid < T.C.size())
    ++T.C[Tid];
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

uint64_t TxRaceCheck::violationCount() const {
  MutexLock L(M);
  uint64_t N = 0;
  for (unsigned I = 0; I != NumRaceDiags; ++I)
    if (isRaceViolation((RaceDiag)I))
      N += Counts[I];
  return N;
}

uint64_t TxRaceCheck::lintCount() const {
  MutexLock L(M);
  return Counts[(unsigned)RaceDiag::UnscopedStore];
}

uint64_t TxRaceCheck::count(RaceDiag Kind) const {
  MutexLock L(M);
  return Counts[(unsigned)Kind];
}

std::vector<TxRaceReport> TxRaceCheck::reports() const {
  MutexLock L(M);
  return Reports;
}

static std::string formatSelected(const std::vector<TxRaceReport> &Reports,
                                  size_t MaxLines, bool ViolationsOnly) {
  std::string Out;
  size_t N = 0;
  for (const TxRaceReport &R : Reports) {
    if (ViolationsOnly && !isRaceViolation(R.Kind))
      continue;
    if (N++ == MaxLines) {
      Out += "  ... (more reports suppressed)\n";
      break;
    }
    char Line[256];
    if (R.OtherThreadId != ~0u)
      std::snprintf(Line, sizeof(Line),
                    "  [%s] thread %u vs %u txn %llu pool+0x%zx phase=%s "
                    "event=%s\n",
                    raceDiagName(R.Kind), R.ThreadId, R.OtherThreadId,
                    (unsigned long long)R.TxnIndex, R.PoolOffset, R.Phase,
                    R.Event);
    else
      std::snprintf(Line, sizeof(Line),
                    "  [%s] thread %u txn %llu pool+0x%zx phase=%s "
                    "event=%s\n",
                    raceDiagName(R.Kind), R.ThreadId,
                    (unsigned long long)R.TxnIndex, R.PoolOffset, R.Phase,
                    R.Event);
    Out += Line;
  }
  return Out;
}

std::string TxRaceCheck::formatReports(size_t MaxLines) const {
  return formatSelected(reports(), MaxLines, /*ViolationsOnly=*/false);
}

std::string TxRaceCheck::formatViolations(size_t MaxLines) const {
  return formatSelected(reports(), MaxLines, /*ViolationsOnly=*/true);
}

CheckReport TxRaceCheck::checkReport() const {
  MutexLock L(M);
  CheckReport CR;
  CR.Checker = "txracecheck";
  for (unsigned I = 0; I != NumRaceDiags; ++I) {
    CR.Counts.emplace_back(raceDiagName((RaceDiag)I), Counts[I]);
    if (isRaceViolation((RaceDiag)I))
      CR.Violations += Counts[I];
    else
      CR.Lints += Counts[I];
  }
  for (const TxRaceReport &R : Reports)
    CR.Entries.push_back(CheckReportEntry{
        raceDiagName(R.Kind), isRaceViolation(R.Kind), R.ThreadId,
        R.OtherThreadId, R.TxnIndex, R.PoolOffset, R.Phase, R.Event});
  return CR;
}

void TxRaceCheck::clearReports() {
  MutexLock L(M);
  for (uint64_t &C : Counts)
    C = 0;
  Reports.clear();
  RaceReportedWords.clear();
  LintReportedWords.clear();
}
