//===- perfbench/src/Report.cpp - Run results, timing and spans -----------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include <cmath>
#include <cstddef>
#include <ctime>
#include <sys/resource.h>

using namespace perfbench;

void RunResult::fail(const std::string &What) {
  ++Failed;
  if (Failed <= 20)
    std::fprintf(stderr, "perfbench: FAILED %s\n", What.c_str());
  else if (Failed == 21)
    std::fprintf(stderr, "perfbench: further failures not printed\n");
}

std::string RunResult::json() const {
  std::string J = "{\"correct\": ";
  J += Correct && Failed == 0 ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    if (I)
      J += ", ";
    J += "\"" + M.Name + "\": {\"value\": " + Buf + ", \"unit\": \"" +
         M.Unit + "\"}";
  }
  J += "}}";
  return J;
}

double perfbench::percentile(std::vector<float> &V, double P) {
  if (V.empty())
    return 0;
  size_t Rank = (size_t)std::ceil(P * (double)V.size());
  size_t I = Rank ? Rank - 1 : 0;
  std::nth_element(V.begin(), V.begin() + (std::ptrdiff_t)I, V.end());
  return V[I];
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

void perfbench::reportPhase(const char *Workload, bool Trace, Phase &P) {
  std::fprintf(stderr,
               "perfbench: %s %s: %zu ops in %.3f s, %.0f/s, latency p50 "
               "%.2f p90 %.2f p99 %.2f us, steal %.1f%%\n",
               Workload, Trace ? "traced" : "untraced", P.LatencyUs.size(),
               P.Seconds, P.throughput(), P.percentileUs(0.50),
               P.percentileUs(0.90), P.percentileUs(0.99),
               100 * P.StealShare);
}

static double timevalSeconds(const timeval &T) {
  return (double)T.tv_sec + (double)T.tv_usec * 1e-6;
}

double perfbench::processCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return timevalSeconds(U.ru_utime) + timevalSeconds(U.ru_stime);
}

double perfbench::threadCpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_THREAD, &U);
  return timevalSeconds(U.ru_utime) + timevalSeconds(U.ru_stime);
}

double perfbench::nowSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return (double)Ts.tv_sec + (double)Ts.tv_nsec * 1e-9;
}
