//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Usage: crafty_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                         --datadir DIR
//
// Runs one workload (kv-write, kv-read, kv-large, txn-bank) and prints, as
// the last line of stdout, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. Exits non-zero without a result
// when the workload cannot start. perfbench/run.py builds this program
// and calls it; see perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"

#include <csignal>
#include <cstdlib>
#include <string>

using namespace perfbench;

static int usage(const char *Why) {
  std::fprintf(stderr,
               "crafty_perfbench: %s\nusage: crafty_perfbench --workload "
               "kv-write|kv-read|kv-large|txn-bank --seed N --seconds S "
               "--trace 0|1 --datadir DIR\n",
               Why);
  return 2;
}

int main(int argc, char **argv) {
  std::signal(SIGPIPE, SIG_IGN);
  RunOptions Opt;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Arg).c_str());
    const char *V = argv[++I];
    if (Arg == "--workload")
      Opt.Workload = V;
    else if (Arg == "--seed")
      Opt.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      Opt.Seconds = std::atof(V);
    else if (Arg == "--trace")
      Opt.Trace = std::string(V) != "0";
    else if (Arg == "--datadir")
      Opt.DataDir = V;
    else
      return usage(("unknown option " + Arg).c_str());
  }
  if (Opt.Seconds <= 0)
    return usage("--seconds must be positive");
  if (Opt.DataDir.empty())
    return usage("--datadir is required");
  unsigned Threads = workloadThreads(Opt.Workload);
  if (!Threads)
    return usage(("unknown workload '" + Opt.Workload + "'").c_str());

  // More runnable threads than cores would measure the scheduler, not
  // the program.
  unsigned Cpus = (unsigned)allowedCpus().size();
  if (Threads > Cpus) {
    std::fprintf(stderr,
                 "crafty_perfbench: %s runs %u threads but only %u CPUs are "
                 "available; refusing to start\n",
                 Opt.Workload.c_str(), Threads, Cpus);
    return 3;
  }

  RunResult R;
  int Rc = Opt.Workload == "txn-bank" ? runTxnBank(Opt, R) : runKv(Opt, R);
  if (Rc != 0) {
    std::fprintf(stderr, "crafty_perfbench: %s could not run\n",
                 Opt.Workload.c_str());
    return Rc;
  }
  std::printf("%s\n", R.json().c_str());
  return 0;
}
