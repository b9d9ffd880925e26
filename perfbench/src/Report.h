//===- perfbench/src/Report.h - Run results, timing and spans --*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What one benchmark run reports: attempted and failed operations, the
/// end-to-end metrics (untraced runs) and the per-layer metrics (traced
/// runs), printed as the single JSON object on the last line of stdout.
/// Also the small helpers every workload shares: percentiles, process and
/// thread CPU time, medians of repeated set-up and recovery samples, and
/// the in-memory span totals used by traced runs.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_PERFBENCH_REPORT_H
#define CRAFTY_PERFBENCH_REPORT_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

/// Options shared by every workload (parsed in main.cpp).
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Private directory for file-backed stores; removed by run.py.
  std::string DataDir;
};

/// Result of one run. Failed operations are printed to stderr with their
/// key as they are found (see fail()).
class RunResult {
public:
  void metric(const std::string &Name, double Value, const char *Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Counts one checked operation.
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Counts one failed operation and says why on stderr (the first few
  /// of each run only, so a systematic fault cannot flood the log).
  void fail(const std::string &What);
  /// A whole-run invariant (bank conservation, heap audit) was violated:
  /// the run's outputs are wrong, not just one operation.
  void invariantBroken(const std::string &What) {
    fail(What);
    Correct = false;
  }

  /// The run's result as one line of JSON.
  std::string json() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Correct = true;
};

/// The \p P-quantile (0..1) of \p V by nearest rank; sorts \p V. 0 when
/// empty.
double percentile(std::vector<float> &V, double P);
/// The median of a small sample; 0 when empty.
double median(std::vector<double> V);

/// Process CPU time (user + system) in seconds.
double processCpuSeconds();
/// CPU time of the calling thread (user + system) in seconds.
double threadCpuSeconds();
/// Monotonic wall clock in seconds.
double nowSeconds();

/// Ratio that reads 0 instead of dividing by zero (layer counters that a
/// workload never touches).
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// What one timed phase measured: every completed operation's latency
/// and the phase's wall time, from the first operation to the last.
struct Phase {
  std::vector<float> LatencyUs;
  double Seconds = 0;
  /// Steal time the hypervisor took from this machine's CPUs during the
  /// phase, as a share of their time: printed as a diagnostic of the
  /// host, never used in a metric.
  double StealShare = 0;

  double throughput() const {
    return ratio((double)LatencyUs.size(), Seconds);
  }
  /// Sorts LatencyUs partially (see percentile()).
  double percentileUs(double P) { return percentile(LatencyUs, P); }
};

/// Prints a timed phase's figures on stderr, p99 and steal included.
void reportPhase(const char *Workload, bool Trace, Phase &P);

/// Names of the spans the benchmark records around calls into the program.
enum class SpanName : uint8_t {
  StoreGet,    ///< KvStore::get
  StoreSet,    ///< KvStore::set (inline value)
  HeapSet,     ///< KvStore::set of a heap-routed value
  StoreMset,   ///< KvStore::msetBatch
  PersistAck,  ///< KvStore::persistAck
  BackendRun,  ///< PtmBackend::run (one bank transaction)
  NumNames
};

/// In-memory span totals for traced runs: per span name, how many spans
/// and their summed duration, kept until the run ends. One instance per
/// thread, so recording takes no lock.
class Tracer {
public:
  struct Totals {
    uint64_t Count = 0;
    uint64_t TotalNs = 0;
  };

  /// Records the finished span [StartNs, EndNs).
  void record(SpanName N, uint64_t StartNs, uint64_t EndNs) {
    Totals &T = Sums[(size_t)N];
    T.Count += 1;
    T.TotalNs += EndNs - StartNs;
  }
  /// Adds \p O's totals to this recorder's.
  void merge(const Tracer &O) {
    for (size_t I = 0; I != (size_t)SpanName::NumNames; ++I) {
      Sums[I].Count += O.Sums[I].Count;
      Sums[I].TotalNs += O.Sums[I].TotalNs;
    }
  }
  const Totals &operator[](SpanName N) const { return Sums[(size_t)N]; }
  /// Mean duration of \p N in microseconds (0 when never recorded).
  double meanUs(SpanName N) const {
    const Totals &T = Sums[(size_t)N];
    return ratio((double)T.TotalNs / 1000.0, (double)T.Count);
  }

private:
  Totals Sums[(size_t)SpanName::NumNames];
};

} // namespace perfbench

#endif // CRAFTY_PERFBENCH_REPORT_H
