//===- perfbench/src/Host.cpp - CPU placement and host noise --------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Report.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

using namespace perfbench;

std::vector<int> perfbench::allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return {0};
  std::vector<int> Cpus;
  for (int C = 0; C != CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Cpus.push_back(C);
  return Cpus;
}

void perfbench::pinThread(const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

std::vector<pid_t> perfbench::threadIds() {
  std::vector<pid_t> Ids;
  std::error_code Ec;
  for (const auto &E :
       std::filesystem::directory_iterator("/proc/self/task", Ec))
    Ids.push_back((pid_t)std::atoi(E.path().filename().c_str()));
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

void perfbench::pinTask(pid_t Tid, int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(Tid, sizeof(Set), &Set);
}

uint64_t perfbench::stealTicks() {
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return 0;
  unsigned long long V[8] = {};
  int N = std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                      &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]);
  std::fclose(F);
  return N == 8 ? V[7] : 0;
}

double perfbench::stealShareSince(uint64_t Since, double Seconds) {
  return ratio((double)(stealTicks() - Since),
               Seconds * (double)sysconf(_SC_CLK_TCK) *
                   (double)sysconf(_SC_NPROCESSORS_ONLN));
}

IdlePollers::IdlePollers(const std::vector<int> &Cpus) : CpuS(Cpus.size()) {
  for (size_t I = 0; I != Cpus.size(); ++I)
    Threads.emplace_back([this, I, Cpu = Cpus[I]] {
      pinThread({Cpu});
      sched_param P{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &P);
      double Cpu0 = threadCpuSeconds();
      while (!Stop.load(std::memory_order_relaxed))
        __builtin_ia32_pause();
      CpuS[I] = threadCpuSeconds() - Cpu0;
    });
}

double IdlePollers::stop() {
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Threads)
    if (T.joinable())
      T.join();
  double Sum = 0;
  for (double S : CpuS)
    Sum += S;
  return Sum;
}
