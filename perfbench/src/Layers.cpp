//===- perfbench/src/Layers.cpp - Per-layer counters and metrics ----------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <cstdlib>

using namespace perfbench;
using namespace crafty;

void LayerCounters::add(const PtmBackend &B, const PMemPool &P,
                        uint64_t NonTxBumps) {
  Ptm += B.txnStats();
  Htm += B.htmStats();
  PMemStats S = P.stats();
  Pm.ClwbCalls += S.ClwbCalls;
  Pm.LinesScheduled += S.LinesScheduled;
  Pm.Drains += S.Drains;
  Pm.EmptyDrains += S.EmptyDrains;
  Pm.EvictedLines += S.EvictedLines;
  NonTxClockBumps += NonTxBumps;
}

LayerCounters LayerCounters::since(const LayerCounters &B) const {
  LayerCounters D;
  D.Ptm.NonCrafty = Ptm.NonCrafty - B.Ptm.NonCrafty;
  D.Ptm.ReadOnly = Ptm.ReadOnly - B.Ptm.ReadOnly;
  D.Ptm.Redo = Ptm.Redo - B.Ptm.Redo;
  D.Ptm.Validate = Ptm.Validate - B.Ptm.Validate;
  D.Ptm.Sgl = Ptm.Sgl - B.Ptm.Sgl;
  D.Ptm.Writes = Ptm.Writes - B.Ptm.Writes;
  D.Ptm.SglWaits = Ptm.SglWaits - B.Ptm.SglWaits;
  D.Ptm.LogPhaseNs = Ptm.LogPhaseNs - B.Ptm.LogPhaseNs;
  D.Ptm.RedoPhaseNs = Ptm.RedoPhaseNs - B.Ptm.RedoPhaseNs;
  D.Ptm.ValidatePhaseNs = Ptm.ValidatePhaseNs - B.Ptm.ValidatePhaseNs;
  D.Ptm.SglNs = Ptm.SglNs - B.Ptm.SglNs;
  D.Htm.Commits = Htm.Commits - B.Htm.Commits;
  D.Htm.AbortConflict = Htm.AbortConflict - B.Htm.AbortConflict;
  D.Htm.AbortCapacity = Htm.AbortCapacity - B.Htm.AbortCapacity;
  D.Htm.AbortExplicit = Htm.AbortExplicit - B.Htm.AbortExplicit;
  D.Htm.AbortZero = Htm.AbortZero - B.Htm.AbortZero;
  D.Htm.ValidatedReadSlots = Htm.ValidatedReadSlots - B.Htm.ValidatedReadSlots;
  D.Htm.WriteWordsTotal = Htm.WriteWordsTotal - B.Htm.WriteWordsTotal;
  D.Htm.SnapshotExtensions = Htm.SnapshotExtensions - B.Htm.SnapshotExtensions;
  D.Htm.ClockBumps = Htm.ClockBumps - B.Htm.ClockBumps;
  D.Pm.ClwbCalls = Pm.ClwbCalls - B.Pm.ClwbCalls;
  D.Pm.LinesScheduled = Pm.LinesScheduled - B.Pm.LinesScheduled;
  D.Pm.Drains = Pm.Drains - B.Pm.Drains;
  D.Pm.EmptyDrains = Pm.EmptyDrains - B.Pm.EmptyDrains;
  D.Pm.EvictedLines = Pm.EvictedLines - B.Pm.EvictedLines;
  D.NonTxClockBumps = NonTxClockBumps - B.NonTxClockBumps;
  return D;
}

/// Sum of every `"Key":<digits>` in \p Json. The server emits the
/// document itself, so a scan is enough; the trailing colon keeps
/// "requests" from matching "sg_requests".
static uint64_t sumJsonInts(const std::string &Json, const std::string &Key) {
  uint64_t Sum = 0;
  std::string Needle = "\"" + Key + "\":";
  for (size_t Pos = Json.find(Needle); Pos != std::string::npos;
       Pos = Json.find(Needle, Pos)) {
    Pos += Needle.size();
    Sum += std::strtoull(Json.c_str() + Pos, nullptr, 10);
  }
  return Sum;
}

ServerTotals ServerTotals::fromStats(const std::string &Json) {
  // Worker timing keys appear only before the "shards" section.
  std::string Workers = Json.substr(0, Json.find("\"shards\":"));
  ServerTotals T;
  T.Requests = sumJsonInts(Workers, "requests");
  T.QueueWaitNs = sumJsonInts(Workers, "queue_wait_ns");
  T.ExecuteNs = sumJsonInts(Workers, "execute_ns");
  T.CommitWaitNs = sumJsonInts(Workers, "commit_wait_ns");
  T.Barriers = sumJsonInts(Workers, "barriers");
  T.BarrierNs = sumJsonInts(Workers, "barrier_ns");
  T.SgPieces = sumJsonInts(Workers, "sg_pieces");
  return T;
}

ServerTotals ServerTotals::since(const ServerTotals &B) const {
  ServerTotals D;
  D.Requests = Requests - B.Requests;
  D.QueueWaitNs = QueueWaitNs - B.QueueWaitNs;
  D.ExecuteNs = ExecuteNs - B.ExecuteNs;
  D.CommitWaitNs = CommitWaitNs - B.CommitWaitNs;
  D.Barriers = Barriers - B.Barriers;
  D.BarrierNs = BarrierNs - B.BarrierNs;
  D.SgPieces = SgPieces - B.SgPieces;
  return D;
}

void perfbench::emitLayerMetrics(RunResult &R, const LayerInputs &L) {
  const ServerTotals &S = L.Server;
  double Req = (double)S.Requests;
  R.metric("kv.server.queue_wait_us_per_req",
           ratio((double)S.QueueWaitNs / 1e3, Req), "us");
  R.metric("kv.server.execute_us_per_req",
           ratio((double)S.ExecuteNs / 1e3, Req), "us");
  R.metric("kv.server.commit_wait_us_per_req",
           ratio((double)S.CommitWaitNs / 1e3, Req), "us");
  R.metric("kv.server.barrier_us_per_call",
           ratio((double)S.BarrierNs / 1e3, (double)S.Barriers), "us");
  R.metric("kv.server.barriers_per_req", ratio((double)S.Barriers, Req),
           "1/req");
  R.metric("kv.server.sg_pieces_per_req", ratio((double)S.SgPieces, Req),
           "1/req");

  const Tracer &Sp = L.Replay;
  const Tracer::Totals &Mset = Sp[SpanName::StoreMset];
  R.metric("kv.store.get_us", Sp.meanUs(SpanName::StoreGet), "us");
  R.metric("kv.store.set_us", Sp.meanUs(SpanName::StoreSet), "us");
  R.metric("kv.store.mset_us_per_key",
           ratio((double)Mset.TotalNs / 1e3, (double)L.ReplayMsetKeys), "us");
  R.metric("kv.store.txns_per_req",
           ratio((double)L.ReplayTxns, (double)L.ReplayRequests), "1/req");
  R.metric("kv.store.persist_ack_us", Sp.meanUs(SpanName::PersistAck), "us");

  const PtmStats &P = L.Timed.Ptm;
  const HtmStats &H = L.Timed.Htm;
  const PMemStats &M = L.Timed.Pm;
  double Txns = (double)P.transactions();
  R.metric("core.txn_us", L.TxnUs, "us");
  R.metric("core.log_ns_per_txn", ratio((double)P.LogPhaseNs, Txns), "ns");
  R.metric("core.redo_ns_per_txn", ratio((double)P.RedoPhaseNs, Txns), "ns");
  R.metric("core.validate_ns_per_txn",
           ratio((double)P.ValidatePhaseNs, Txns), "ns");
  R.metric("core.redo_commits_per_txn", ratio((double)P.Redo, Txns), "1/txn");
  R.metric("core.validate_commits_per_txn", ratio((double)P.Validate, Txns),
           "1/txn");
  R.metric("core.sgl_commits_per_txn", ratio((double)P.Sgl, Txns), "1/txn");
  R.metric("core.readonly_commits_per_txn", ratio((double)P.ReadOnly, Txns),
           "1/txn");
  R.metric("core.sgl_waits_per_txn", ratio((double)P.SglWaits, Txns),
           "1/txn");
  R.metric("core.writes_per_txn", ratio((double)P.Writes, Txns), "1/txn");

  double Commits = (double)H.Commits;
  R.metric("htm.conflict_aborts_per_txn", ratio((double)H.AbortConflict, Txns),
           "1/txn");
  R.metric("htm.clock_bumps_per_commit",
           ratio((double)(H.ClockBumps + L.Timed.NonTxClockBumps), Commits),
           "1/commit");
  R.metric("htm.snapshot_extensions_per_txn",
           ratio((double)H.SnapshotExtensions, Txns), "1/txn");
  R.metric("htm.capacity_aborts_per_txn", ratio((double)H.AbortCapacity, Txns),
           "1/txn");
  R.metric("htm.commits_per_txn", ratio(Commits, Txns), "1/txn");
  R.metric("htm.useful_ratio", ratio(Commits, (double)H.started()), "ratio");
  R.metric("htm.validated_read_slots_per_commit",
           ratio((double)H.ValidatedReadSlots, Commits), "1/commit");

  double Ops = (double)L.Ops;
  R.metric("pmem.clwb_calls_per_op", ratio((double)M.ClwbCalls, Ops), "1/op");
  R.metric("pmem.empty_drain_ratio",
           ratio((double)M.EmptyDrains, (double)M.Drains), "ratio");
  R.metric("pmem.lines_per_op", ratio((double)M.LinesScheduled, Ops), "1/op");
  R.metric("pmem.coalesce_ratio",
           ratio((double)M.LinesScheduled, (double)M.ClwbCalls), "ratio");
  R.metric("pmem.drains_per_op", ratio((double)M.Drains, Ops), "1/op");

  double Reopens = (double)L.Reopens;
  R.metric("heap.set_us", Sp.meanUs(SpanName::HeapSet), "us");
  R.metric("heap.pages_per_value", L.HeapPagesPerValue, "pages");
  R.metric("heap.extents_reclaimed",
           ratio((double)L.HeapExtentsReclaimed, Reopens), "count");

  R.metric("recovery.sequences_rolled_back",
           ratio((double)L.Recovery.SequencesRolledBack, Reopens), "count");
  R.metric("recovery.words_restored",
           ratio((double)L.Recovery.WordsRestored, Reopens), "count");
  R.metric("recovery.image_bytes", (double)L.ImageBytes, "B");
}
