//===- check/TxRaceCheck.h - HTM-layer race & isolation checker -*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// TxRaceCheck: a FastTrack-style dynamic happens-before race and
/// isolation checker for the HTM/transaction layer.
///
/// PersistCheck (Section 5.1 of DESIGN.md) validates persist *ordering*;
/// this checker validates the *synchronization* assumptions those
/// orderings rest on: transaction bodies must be data-race-free and
/// deterministic (the Validate phase re-executes them, paper Section 4.3),
/// and non-transactional pool accesses must never race in-flight
/// transactions (the SGL fallback and the chunked thread-unsafe mode rely
/// on external mutual exclusion nothing else verifies).
///
/// The checker consumes the HtmRuntime AccessHooks stream (htm/Htm.h) and
/// maintains per-thread vector clocks plus a per-word shadow cell holding
/// the last write's epoch and the last read epoch per reader. The
/// happens-before edges, in checker event order (DESIGN.md Section 5.2):
///
///  - Commit order. Every writing commit at version V publishes the
///    committer's vector clock into a version-indexed prefix map P; a
///    transaction with snapshot S joins P(S) -- the join of all commit
///    clocks with version <= S -- when its buffered accesses are applied
///    at commit. The TL2 engine guarantees a committed transaction
///    serializes after every commit its snapshot covers, so these
///    "global-clock edges from the versioned write-locks" are real
///    synchronization.
///  - Non-transactional stores publish into P at their stripe version
///    (they are ordered before any later transaction that validates
///    against the bumped stripe) but do NOT join P: a bare nonTxStore
///    performs no acquire, and treating it as one would mask exactly the
///    weak-isolation races this checker exists to find.
///  - SGL order. While a thread holds the SGL (sglAcquired/sglReleased),
///    its accesses join the clocks of *all* published commits: any
///    transaction that read SglWord == 0 and committed validates against
///    the stripe the SGL CAS bumped, so everything published is genuinely
///    ordered before the section.
///  - Annotated external synchronization. The chunked thread-unsafe mode
///    (paper Figure 4) is racy by design unless the *application*
///    provides exclusion (examples/lock_durability.cpp). syncAcquire /
///    syncRelease declare those app-level lock operations, TSan-annotation
///    style, carrying a per-object vector clock.
///
/// Transactional accesses are buffered while speculative and applied to
/// the shadow state only at commit (aborted transactions touched
/// nothing). Committed transaction pairs are never reported as races: the
/// HTM serializes them regardless of clock order (two blind transactional
/// writers are legal). A committed transaction and an SGL-section access
/// are likewise never reported: every transaction reads SglWord at begin
/// and validates it at commit (lock subscription), so it serializes
/// wholly before the acquire or wholly after the release -- this covers
/// read-only commits, which publish no clock for the section to join.
/// Only pool addresses are tracked; registered exempt
/// regions (the per-thread undo logs, written by design from many
/// threads' forced commits) are ignored.
///
/// Diagnostics:
///
///  1. tx-nontx-race    a committed transactional access and a
///                      non-transactional access to the same word, on
///                      different threads, with no happens-before edge: a
///                      weak-isolation violation (the outcome depends on
///                      where the non-transactional access lands relative
///                      to the commit).
///  2. sgl-not-held     a chunked/SGL-mode pool access by a scope holding
///                      neither the SGL nor any annotated sync object
///                      while another transaction scope is concurrently
///                      active -- the Figure 4 flow is thread-unsafe by
///                      design and relies on exclusion being held.
///  3. nontx-race       both accesses non-transactional, different
///                      threads, no happens-before edge.
///  4. nondet-validate  a Validate-phase re-execution diverged from the
///                      Log phase (address mismatch, undo-value mismatch
///                      or length mismatch) although no other thread
///                      wrote any word the transaction accessed since the
///                      Log phase began: the body itself is
///                      nondeterministic, which Crafty cannot tolerate
///                      (paper Section 4.3).
///  5. unscoped-store   advisory lint: a non-transactional store to a
///                      pool data word outside any transaction scope --
///                      legal for setup code, but invisible to recovery.
///
/// Classes 1-4 are violations; class 5 is a lint. Race diagnostics are
/// deduplicated per word and sgl-not-held per scope, so one seeded bug
/// yields one report.
///
/// Thread safety: one internal mutex serializes all events. The checker
/// never calls back into the HTM runtime or the pool, so no lock-order
/// cycle exists with the stripe locks its callbacks may run under.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_CHECK_TXRACECHECK_H
#define CRAFTY_CHECK_TXRACECHECK_H

#include "check/CheckReport.h"
#include "support/Mutex.h"

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace crafty {

class HtmRuntime;
class PMemPool;

/// Diagnostic classes; see the file comment for their definitions.
enum class RaceDiag : uint8_t {
  TxNonTxRace,
  SglNotHeld,
  NonTxRace,
  NondetValidate,
  UnscopedStore, // Lint, not a violation.
};

inline constexpr unsigned NumRaceDiags = 5;

/// Returns the diagnostic's stable name ("tx-nontx-race", ...).
const char *raceDiagName(RaceDiag Kind);

/// True for the diagnostic classes counted as violations (all but the
/// unscoped-store lint).
inline bool isRaceViolation(RaceDiag Kind) {
  return Kind != RaceDiag::UnscopedStore;
}

/// One source-tagged diagnostic.
struct TxRaceReport {
  RaceDiag Kind;
  /// Pool thread id of the access that completed the race (or the scope
  /// for sgl-not-held / nondet-validate); ~0u when unknown.
  uint32_t ThreadId;
  /// The racing partner's pool thread id; ~0u for single-thread kinds.
  uint32_t OtherThreadId;
  /// Global index of the transaction scope involved; 0 outside any scope.
  uint64_t TxnIndex;
  /// Byte offset into the pool of the word involved.
  size_t PoolOffset;
  /// Crafty phase tag active in the scope ("log", "chunked", ...; "").
  const char *Phase;
  /// Access that detected the problem ("load", "store", "commit",
  /// "validate").
  const char *Event;
};

class TxRaceCheck {
public:
  /// Creates a checker scoped to \p Pool's address range. Call
  /// installHtmHooks to start receiving events.
  explicit TxRaceCheck(PMemPool &Pool);
  ~TxRaceCheck();

  TxRaceCheck(const TxRaceCheck &) = delete;
  TxRaceCheck &operator=(const TxRaceCheck &) = delete;

  /// Installs this checker's trampolines as \p Htm's AccessHooks /
  /// removes them again. Not thread-safe (same contract as
  /// HtmRuntime::setAccessHooks).
  void installHtmHooks(HtmRuntime &Htm);
  void removeHtmHooks(HtmRuntime &Htm);

  /// Declares [\p Begin, \p Begin + \p Bytes) exempt from race tracking
  /// (undo-log regions: written by design from many threads' forced
  /// commits, always inside transactions).
  void registerExemptRegion(const void *Begin, size_t Bytes);

  //===--------------------------------------------------------------------===
  // Scope API, driven by CraftyThread::run (mirrors PersistCheck's).
  //===--------------------------------------------------------------------===

  /// Opens a transaction scope for pool thread \p ThreadId and binds the
  /// calling OS thread to it (subsequent raw non-transactional events on
  /// this OS thread are attributed to \p ThreadId). Scopes do not nest.
  void beginTxn(uint32_t ThreadId);
  /// Tags \p ThreadId's open scope with a phase name (a pointer with
  /// static storage duration). "log" additionally resets the scope's read
  /// footprint and conflict horizon for the nondet-validate analysis.
  void setPhase(uint32_t ThreadId, const char *Tag);
  /// Closes \p ThreadId's scope.
  void endTxn(uint32_t ThreadId);

  /// The SGL was acquired / released by \p ThreadId (diagnostic 2 and the
  /// SGL happens-before edge).
  void sglAcquired(uint32_t ThreadId);
  void sglReleased(uint32_t ThreadId);

  /// Declares an application-level synchronization operation on the
  /// opaque object \p Obj (e.g. a std::mutex's address): acquire joins
  /// the object's clock, release stores the thread's clock into it. This
  /// is how externally synchronized thread-unsafe-mode programs
  /// (examples/lock_durability.cpp) tell the checker about ordering it
  /// cannot see.
  void syncAcquire(uint32_t ThreadId, const void *Obj);
  void syncRelease(uint32_t ThreadId, const void *Obj);

  /// The Validate phase diverged from the Log phase: a body write hit
  /// \p GotAddr where the undo record expected \p WantAddr (either may be
  /// null: value mismatches pass the common address, length mismatches
  /// pass null). Classified as nondet-validate unless a foreign write to
  /// the scope's footprint explains the divergence (diagnostic 4).
  void noteValidateDivergence(uint32_t ThreadId, const void *GotAddr,
                              const void *WantAddr);

  //===--------------------------------------------------------------------===
  // Event API: called by the AccessHooks trampolines; public so tests can
  // drive the checker deterministically without a runtime.
  //===--------------------------------------------------------------------===

  void txBegin(uint32_t ThreadId, uint64_t Snapshot);
  void txLoad(uint32_t ThreadId, const void *Addr);
  void txStore(uint32_t ThreadId, void *Addr);
  void txCommit(uint32_t ThreadId, uint64_t Version, bool HadWrites);
  void txAbort(uint32_t ThreadId);
  /// Raw non-transactional accesses, attributed to the calling OS
  /// thread's bound pool thread (or a synthetic id when unbound).
  void nonTxLoad(const void *Addr);
  void nonTxStore(void *Addr, uint64_t Version);

  //===--------------------------------------------------------------------===
  // Diagnostic queries (same shape as PersistCheck's).
  //===--------------------------------------------------------------------===

  uint64_t violationCount() const;
  uint64_t lintCount() const;
  uint64_t count(RaceDiag Kind) const;
  std::vector<TxRaceReport> reports() const;
  /// Human-readable rendering of up to \p MaxLines stored reports.
  std::string formatReports(size_t MaxLines = 32) const;
  /// Like formatReports, but skips lints: only violations are rendered.
  std::string formatViolations(size_t MaxLines = 32) const;
  /// Machine-readable rendering (check/CheckReport.h).
  CheckReport checkReport() const;
  void clearReports();

  /// Cap on stored (not counted) reports.
  static constexpr size_t MaxStoredReports = 1024;

  /// First thread id handed to unbound OS threads; real pool thread ids
  /// must stay below it.
  static constexpr uint32_t FirstSyntheticTid = 1024;

private:
  using VectorClock = std::vector<uint64_t>;

  /// One buffered speculative access of a live transaction.
  struct Access {
    uintptr_t Addr;
    bool IsWrite;
  };

  /// Last-reader record of a shadow word (one per reading thread).
  struct ReadEntry {
    uint32_t Tid;
    uint64_t Clk;
    bool Tx;
    /// Issued while the reader held the SGL.
    bool Sgl;
  };

  /// Per-word shadow cell.
  struct WordState {
    uint32_t WTid = ~0u;
    uint64_t WClk = 0;
    bool WTx = false;
    /// Last write was issued while its thread held the SGL.
    bool WSgl = false;
    /// Global event sequence of the last write (nondet-validate horizon).
    uint64_t WSeq = 0;
    std::vector<ReadEntry> Reads;
  };

  /// Per-thread vector-clock state.
  struct ThreadState {
    VectorClock C;
    uint64_t Snapshot = 0;
    bool InTx = false;
    unsigned SglDepth = 0;
    /// Count of annotated sync objects currently held (diagnostic 2).
    unsigned SyncHeld = 0;
    std::vector<Access> TxAccesses;
  };

  /// Per-pool-thread transaction scope.
  struct TxnScope {
    uint64_t TxnIndex = 0;
    const char *Phase = "";
    bool Active = false;
    bool SglNotHeldReported = false;
    /// Event sequence at the last setPhase("log"): foreign writes after
    /// this explain a Validate divergence (diagnostic 4).
    uint64_t LogStartSeq = 0;
    /// Pool data words this scope accessed since the Log phase began.
    std::unordered_set<uintptr_t> Footprint;
  };

  struct ExemptRegion {
    uintptr_t Begin;
    uintptr_t End;
  };

  /// True for pool words the checker tracks (in pool, not exempt).
  bool tracked(const void *Addr) const;

  ThreadState &stateFor(uint32_t Tid) CRAFTY_REQUIRES(M);
  TxnScope *scopeFor(uint32_t Tid) CRAFTY_REQUIRES(M);
  uint32_t boundTid() CRAFTY_REQUIRES(M);

  static uint64_t clockOf(const VectorClock &C, uint32_t Tid) {
    return Tid < C.size() ? C[Tid] : 0;
  }
  static void joinInto(VectorClock &Dst, const VectorClock &Src);

  /// P(UpTo): join of all commit clocks published at versions <= UpTo.
  void joinPrefix(VectorClock &Dst, uint64_t UpTo) CRAFTY_REQUIRES(M);
  /// Publishes \p C at \p Version into the prefix map (folding old
  /// entries beyond kMaxPrefixEntries into the cumulative base).
  void publish(uint64_t Version, const VectorClock &C) CRAFTY_REQUIRES(M);

  /// Shadow-state update with race checks. \p Event names the access for
  /// reports.
  void applyAccess(uint32_t Tid, uintptr_t Addr, bool IsWrite, bool IsTx,
                   const char *Event) CRAFTY_REQUIRES(M);
  /// Diagnostic 2: chunked-phase access with no exclusion held.
  void checkChunkedExclusion(uint32_t Tid, uintptr_t Addr, const char *Event)
      CRAFTY_REQUIRES(M);
  void report(RaceDiag Kind, uint32_t Tid, uint32_t OtherTid, uintptr_t Addr,
              const char *Event) CRAFTY_REQUIRES(M);

  const uintptr_t PoolBegin;
  const uintptr_t PoolEnd;
  bool HooksInstalled = false;

  mutable Mutex M;
  uint64_t NextSeq CRAFTY_GUARDED_BY(M) = 1;
  uint64_t TxnCounter CRAFTY_GUARDED_BY(M) = 0;
  uint32_t NextSyntheticTid CRAFTY_GUARDED_BY(M) = FirstSyntheticTid;
  std::vector<ExemptRegion> Exempt; // Written before events flow.
  std::unordered_map<uintptr_t, WordState> Words CRAFTY_GUARDED_BY(M);
  std::unordered_map<uint32_t, ThreadState> ThreadStates CRAFTY_GUARDED_BY(M);
  std::unordered_map<uint32_t, TxnScope> Scopes CRAFTY_GUARDED_BY(M);
  std::unordered_map<std::thread::id, uint32_t> Bindings CRAFTY_GUARDED_BY(M);
  std::unordered_map<const void *, VectorClock> SyncClocks
      CRAFTY_GUARDED_BY(M);
  unsigned ActiveScopes CRAFTY_GUARDED_BY(M) = 0;

  /// Commit-order prefix map: individual published clocks by version,
  /// with versions <= FoldedUpTo already joined into FoldedVC. Folding
  /// can only add (sound) extra edges to queries below FoldedUpTo.
  static constexpr size_t kMaxPrefixEntries = 256;
  std::map<uint64_t, VectorClock> Published CRAFTY_GUARDED_BY(M);
  VectorClock FoldedVC CRAFTY_GUARDED_BY(M);
  uint64_t FoldedUpTo CRAFTY_GUARDED_BY(M) = 0;
  /// Join of every published clock (the SGL-section acquire edge).
  VectorClock AllVC CRAFTY_GUARDED_BY(M);

  std::unordered_set<uintptr_t> RaceReportedWords CRAFTY_GUARDED_BY(M);
  std::unordered_set<uintptr_t> LintReportedWords CRAFTY_GUARDED_BY(M);
  uint64_t Counts[NumRaceDiags] CRAFTY_GUARDED_BY(M) = {};
  std::vector<TxRaceReport> Reports CRAFTY_GUARDED_BY(M);
};

} // namespace crafty

#endif // CRAFTY_CHECK_TXRACECHECK_H
