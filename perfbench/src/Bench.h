//===- perfbench/src/Bench.h - Workload entry points -----------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_PERFBENCH_BENCH_H
#define CRAFTY_PERFBENCH_BENCH_H

#include "Report.h"

namespace perfbench {

/// Threads a workload runs at once (client threads plus server workers);
/// 0 for an unknown workload name.
unsigned workloadThreads(const std::string &Name);

/// Each runs one workload and fills \p R; a nonzero return means the
/// workload could not start (nothing was measured).
int runTxnBank(const RunOptions &Opt, RunResult &R);
int runKv(const RunOptions &Opt, RunResult &R);

/// Untimed warm-up before the timed phase: long enough for caches, lazy
/// set-up and the server's connections to settle.
inline uint64_t warmupNanos(const RunOptions &Opt) {
  double S = Opt.Seconds / 4 < 1.0 ? Opt.Seconds / 4 : 1.0;
  return (uint64_t)(S * 1e9);
}

} // namespace perfbench

#endif // CRAFTY_PERFBENCH_BENCH_H
