//===- perfbench/src/Layers.h - Per-layer counters and metrics -*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer side of a traced run. Counters are read only through the
/// program's public statistics (PtmBackend::txnStats / htmStats,
/// PMemPool::stats, HtmRuntime::nonTxClockBumps, the server's STATS
/// document, recovery reports and KvStore::auditHeap), as before/after
/// snapshots around the timed phase, so every ratio covers exactly the
/// measured requests or transactions.
///
/// Every workload emits the same metric names in the same order; a
/// metric whose layer the workload does not exercise reads 0 (the
/// README lists which apply where).
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_PERFBENCH_LAYERS_H
#define CRAFTY_PERFBENCH_LAYERS_H

#include "Report.h"

#include "core/Ptm.h"
#include "pmem/PMemPool.h"
#include "recovery/Recovery.h"

#include <string>
#include <vector>

namespace perfbench {

/// Cumulative counters of the core, htm and pmem layers.
struct LayerCounters {
  crafty::PtmStats Ptm;
  crafty::HtmStats Htm;
  crafty::PMemStats Pm;
  uint64_t NonTxClockBumps = 0;

  /// Adds one backend/pool pair's counters.
  void add(const crafty::PtmBackend &B, const crafty::PMemPool &P,
           uint64_t NonTxBumps);
  /// The counters accumulated since \p Before.
  LayerCounters since(const LayerCounters &Before) const;
};

/// Server-side timing totals from the STATS document (summed over
/// workers).
struct ServerTotals {
  uint64_t Requests = 0;
  uint64_t QueueWaitNs = 0;
  uint64_t ExecuteNs = 0;
  uint64_t CommitWaitNs = 0;
  uint64_t Barriers = 0;
  uint64_t BarrierNs = 0;
  uint64_t SgPieces = 0;

  /// Parses the workers section of a STATS document.
  static ServerTotals fromStats(const std::string &Json);
  ServerTotals since(const ServerTotals &Before) const;
};

/// Everything the per-layer metrics are computed from. Fields a workload
/// does not fill stay 0.
struct LayerInputs {
  /// Requests (KV) or transactions (bank) completed in the timed phase,
  /// and the layer counters accumulated over exactly that phase.
  uint64_t Ops = 0;
  LayerCounters Timed;
  /// Mean PtmBackend::run latency (bank spans) in microseconds; for the
  /// KV workloads the server's execute time per transaction instead.
  double TxnUs = 0;

  ServerTotals Server;

  /// Spans of the in-process KvStore replay and its request/txn counts.
  Tracer Replay;
  uint64_t ReplayRequests = 0;
  uint64_t ReplayTxns = 0;
  uint64_t ReplayMsetKeys = 0;

  double HeapPagesPerValue = 0;

  /// Summed over every simulated crash of the run; Reopens counts them
  /// (the metrics are means per reopen).
  crafty::RecoveryReport Recovery;
  uint64_t HeapExtentsReclaimed = 0;
  uint64_t Reopens = 0;
  uint64_t ImageBytes = 0;

  /// Adds one pool's recovery report (one per shard for KV).
  void addRecovery(const crafty::RecoveryReport &Rep) {
    Recovery.SequencesFound += Rep.SequencesFound;
    Recovery.SequencesRolledBack += Rep.SequencesRolledBack;
    Recovery.WordsRestored += Rep.WordsRestored;
  }
};

/// Emits every per-layer metric, by name, into \p R.
void emitLayerMetrics(RunResult &R, const LayerInputs &L);

} // namespace perfbench

#endif // CRAFTY_PERFBENCH_LAYERS_H
