//===- check/PersistCheck.h - Persist-ordering checker ---------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PersistCheck: a dynamic persist-ordering and durability-race checker.
///
/// The checker installs itself as the pool's PMemObserver and replays every
/// persistence-relevant event -- committed stores (with before/after
/// values), CLWB scheduling, drains, spontaneous evictions, direct persists
/// and crashes -- into a per-cache-line shadow state machine:
///
///     clean --store--> dirty --clwb--> flush-scheduled --drain--> persisted
///                        \________________evict_________________/
///
/// Each line carries monotonic sequence numbers of its last store, last
/// CLWB and last persist; comparing them classifies every event. On top of
/// the line machine, an explicit transaction-scope API (beginTxn /
/// setPhase / endTxn, driven by CraftyThread::run) and a decoder for the
/// registered undo-log regions let the checker tie program writes to the
/// undo entries that cover them. Five diagnostic classes result:
///
///  1. unflushed-store     a transaction's store to pool memory was never
///                         CLWB'd (nor otherwise persisted) by commit.
///  2. redundant-clwb      CLWB of a line with nothing unpersisted -- a
///                         pure waste of write-back bandwidth. Advisory
///                         lint: correct code may flush defensively (e.g.
///                         the predecessor-slot flush of Section 5.2), and
///                         lines cleaned by spontaneous eviction are not
///                         flagged (software cannot know they are clean).
///  3. early-write         a program write became persistable (entered the
///                         dirty cache) before the undo-log entry covering
///                         it had persisted -- the core Crafty invariant
///                         (paper Sections 4.1-4.2).
///  4. unlogged-store      a program write inside a transaction body with
///                         no covering undo-log entry staged this
///                         transaction.
///  5. broken-flush-chain  a drain persisted a line the draining thread
///                         stored to after its CLWB was scheduled, with no
///                         covering re-flush: on real hardware the late
///                         store may miss the write-back
///                         (flush-without-drain chains must be closed by a
///                         commit fence *before* the line is dirtied
///                         again). Another thread's late store to a shared
///                         line is that thread's own chain and is judged
///                         at its commit instead, and remote drains
///                         (forceEmptyCommit) are exempt: they sample the
///                         victim's chain at an arbitrary instant.
///
/// Classes 1 and 3-5 are violations: correct runtimes must produce none,
/// under any adversarial eviction schedule. Class 2 is a lint and is
/// reported separately. Diagnostics are deduplicated so one seeded bug
/// yields one report, and each report carries its source tag: the thread,
/// transaction index, Crafty phase and pool offset involved.
///
/// Thread safety: one internal mutex serializes all events. Callbacks may
/// run under pool-internal locks; the checker never calls back into the
/// pool or the HTM runtime, so no lock order cycle exists.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_CHECK_PERSISTCHECK_H
#define CRAFTY_CHECK_PERSISTCHECK_H

#include "check/CheckReport.h"
#include "pmem/PMemPool.h"
#include "support/Mutex.h"

#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace crafty {

/// Diagnostic classes; see the file comment for their definitions.
enum class PersistDiag : uint8_t {
  UnflushedStore,
  RedundantClwb, // Lint, not a violation.
  EarlyWrite,
  UnloggedStore,
  BrokenFlushChain,
};

inline constexpr unsigned NumPersistDiags = 5;

/// Returns the diagnostic's stable name ("unflushed-store", ...).
const char *persistDiagName(PersistDiag Kind);

/// True for the diagnostic classes counted as violations (all but the
/// redundant-clwb lint).
inline bool isPersistViolation(PersistDiag Kind) {
  return Kind != PersistDiag::RedundantClwb;
}

/// One source-tagged diagnostic.
struct PersistReport {
  PersistDiag Kind;
  /// Pool thread id the event is attributed to; ~0u when unknown.
  uint32_t ThreadId;
  /// Global index of the transaction scope involved; 0 outside any scope.
  uint64_t TxnIndex;
  /// Byte offset into the pool of the word (or line) involved.
  size_t PoolOffset;
  /// Crafty phase tag active in the scope ("log", "redo", ...; "" none).
  const char *Phase;
  /// Checker event that detected the problem ("store", "clwb", "commit",
  /// "drain").
  const char *Event;
};

class PersistCheck final : public PMemObserver {
public:
  /// Creates a checker for \p Pool. Call attach() (or let the owner call
  /// Pool.setObserver) to start receiving events.
  explicit PersistCheck(PMemPool &Pool);
  ~PersistCheck() override;

  PersistCheck(const PersistCheck &) = delete;
  PersistCheck &operator=(const PersistCheck &) = delete;

  /// Installs / removes this checker as the pool's observer.
  void attach();
  void detach();

  /// Declares [\p Slots, \p Slots + 2 * \p NumEntries) as \p ThreadId's
  /// undo-log region. Stores into registered regions are decoded as log
  /// entries (building the coverage map for diagnostics 3/4) instead of
  /// being treated as program writes.
  void registerLogRegion(uint32_t ThreadId, const uint64_t *Slots,
                         size_t NumEntries);

  /// Opens a transaction scope for the calling OS thread, attributing its
  /// subsequent events to pool thread \p ThreadId. Scopes do not nest.
  void beginTxn(uint32_t ThreadId);

  /// Tags the calling thread's open scope with a phase name (a pointer to
  /// a string with static storage duration). No-op without an open scope.
  void setPhase(const char *Tag);

  /// Closes the calling thread's scope, running the commit-time checks
  /// (diagnostic 1). No-op without an open scope.
  void endTxn();

  /// True when the calling OS thread has an open scope.
  bool inTxn();

  /// Diagnostic queries. reports() returns at most MaxStoredReports
  /// entries; the counters are exact.
  uint64_t violationCount() const;
  uint64_t lintCount() const;
  uint64_t count(PersistDiag Kind) const;
  std::vector<PersistReport> reports() const;
  /// Human-readable rendering of up to \p MaxLines stored reports.
  std::string formatReports(size_t MaxLines = 32) const;
  /// Like formatReports, but skips lints: only violations are rendered.
  /// Useful when a lint storm would push the violation past MaxLines.
  std::string formatViolations(size_t MaxLines = 32) const;
  /// Machine-readable rendering (check/CheckReport.h).
  CheckReport checkReport() const;
  void clearReports();

  /// Cap on stored (not counted) reports, to bound memory under lint
  /// storms in long runs.
  static constexpr size_t MaxStoredReports = 1024;

  // PMemObserver implementation.
  void onStore(void *Addr, uint64_t OldVal, uint64_t NewVal,
               bool ValuesKnown) override;
  void onClwb(uint32_t ThreadId, const void *Addr) override;
  void onDrain(uint32_t ThreadId, bool Remote) override;
  void onEvict(const void *LineAddr) override;
  void onPersistDirect(const void *Addr, size_t Len) override;
  void onPersistImageWord(uint32_t ThreadId, const void *Addr,
                          uint64_t Val) override;
  void onFlushEverything() override;
  void onCrash() override;
  void onReset() override;

private:
  /// Shadow state of one cache line. Sequence number 0 means "never".
  struct LineState {
    uint64_t LastStore = 0;
    uint64_t LastClwb = 0;
    uint64_t LastPersist = 0;
    /// Pool thread id of the scope that issued the last store; ~0u when
    /// the store ran outside any scope. Scopes flush chains they dirtied
    /// themselves; a concurrent thread's store to a shared line is that
    /// thread's own flushing responsibility (diagnostic 5).
    uint32_t LastStoreTid = ~0u;
    /// The line's cleanliness came from a spontaneous eviction, which
    /// software cannot observe; suppresses the redundant-clwb lint.
    bool CleanByEvict = false;
  };

  /// A scheduled-but-undrained CLWB.
  struct PendingClwb {
    size_t Line;
    uint64_t Seq;
  };

  /// A registered undo-log region.
  struct LogRegion {
    uintptr_t Begin;
    uintptr_t End;
    uint32_t ThreadId;
  };

  /// Undo-entry coverage of one program word: the entry's staging store
  /// sequence (the later of its two word stores) and the line holding the
  /// entry.
  struct Coverage {
    uint64_t Seq;
    size_t EntryLine;
  };

  /// Per-OS-thread transaction scope.
  struct TxnScope {
    uint32_t ThreadId = ~0u;
    uint64_t ScopeId = 0;
    uint64_t TxnIndex = 0;
    const char *Phase = "";
    bool Active = false;
    /// line -> sequence of the scope's last store to it (diagnostic 1).
    std::unordered_map<size_t, uint64_t> StoredLines;
    /// Program words already reported this scope (one report per word).
    std::unordered_set<uintptr_t> ReportedWords;
    /// program word -> undo entry this scope staged for it. Kept per
    /// scope: concurrent transactions may each cover the same word (the
    /// loser's validation will fail and restart), and a shared map would
    /// let one scope's entry shadow another's.
    std::unordered_map<uintptr_t, Coverage> Covered;
  };

  size_t lineIndexOf(const void *Addr) const;
  const LogRegion *findLogRegion(uintptr_t Addr) const CRAFTY_REQUIRES(M);
  TxnScope *currentScope() CRAFTY_REQUIRES(M);
  void markLinePersisted(LineState &LS, uint64_t Seq, bool ByEvict)
      CRAFTY_REQUIRES(M);
  void decodeLogStore(const LogRegion &Region, uintptr_t Addr,
                      uint64_t NewVal, uint64_t Seq, TxnScope *Scope)
      CRAFTY_REQUIRES(M);
  void report(PersistDiag Kind, uint32_t ThreadId, uint64_t TxnIndex,
              size_t PoolOffset, const char *Phase, const char *Event)
      CRAFTY_REQUIRES(M);

  PMemPool &Pool;
  const uintptr_t PoolBegin;
  const uintptr_t PoolEnd;
  bool Attached = false;

  mutable Mutex M;
  uint64_t NextSeq CRAFTY_GUARDED_BY(M) = 1;
  uint64_t NextScopeId CRAFTY_GUARDED_BY(M) = 1;
  uint64_t TxnCounter CRAFTY_GUARDED_BY(M) = 0;
  std::unordered_map<size_t, LineState> Lines CRAFTY_GUARDED_BY(M);
  std::vector<std::vector<PendingClwb>> Pending
      CRAFTY_GUARDED_BY(M); // [pool thread id]
  std::vector<LogRegion> LogRegions CRAFTY_GUARDED_BY(M);
  /// AddrWord slot address -> program word it currently covers (lets the
  /// ValWord store extend the entry's staging sequence).
  std::unordered_map<uintptr_t, uintptr_t> SlotWord CRAFTY_GUARDED_BY(M);
  std::unordered_map<std::thread::id, TxnScope> Scopes CRAFTY_GUARDED_BY(M);

  uint64_t Counts[NumPersistDiags] CRAFTY_GUARDED_BY(M) = {};
  std::vector<PersistReport> Reports CRAFTY_GUARDED_BY(M);
};

} // namespace crafty

#endif // CRAFTY_CHECK_PERSISTCHECK_H
