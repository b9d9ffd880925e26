//===- perfbench/src/Host.h - CPU placement and host noise -----*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the benchmark does about the machine it runs on. This host is a
/// 4-CPU virtual machine on a shared hypervisor, and two effects of that
/// decided the design:
///
///  - Threads are pinned to disjoint CPUs, so the server's workers, the
///    client thread and the bank's workers do not trade places.
///
///  - A CPU that goes idle halts; waking it again means waiting for the
///    hypervisor to schedule it, which on a busy host takes milliseconds
///    and shows as steal time in /proc/stat. The KV workloads wake their
///    threads once per request batch, so without care they measure the
///    hypervisor: kv-write ran at 18-24k req/s with 19-22% steal, and at
///    44-48k req/s with 2-4% steal once the CPUs were kept from halting.
///    IdlePollers keeps them from halting with lowest-priority spinning
///    threads that run only when nothing else wants the CPU.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_PERFBENCH_HOST_H
#define CRAFTY_PERFBENCH_HOST_H

#include <atomic>
#include <cstdint>
#include <sys/types.h>
#include <thread>
#include <vector>

namespace perfbench {

/// The CPUs this process may run on, in order.
std::vector<int> allowedCpus();
/// Restricts the calling thread to \p Cpus.
void pinThread(const std::vector<int> &Cpus);
/// Ids of this process's threads, in creation order.
std::vector<pid_t> threadIds();
/// Restricts thread \p Tid of this process to \p Cpu (for threads the
/// program starts, which the benchmark cannot pin from inside).
void pinTask(pid_t Tid, int Cpu);

/// Cumulative steal time of all CPUs in clock ticks (/proc/stat), or 0
/// where the kernel does not report it.
uint64_t stealTicks();
/// Steal time since \p Since (an earlier stealTicks()) as a share of all
/// CPUs' time over \p Seconds.
double stealShareSince(uint64_t Since, double Seconds);

/// One SCHED_IDLE spinning thread per CPU of \p Cpus, from construction
/// until stop(). They take no CPU time from any other thread; the time
/// they do use is reported so that CPU-per-operation figures can leave it
/// out.
class IdlePollers {
public:
  explicit IdlePollers(const std::vector<int> &Cpus);
  ~IdlePollers() { stop(); }
  IdlePollers(const IdlePollers &) = delete;
  IdlePollers &operator=(const IdlePollers &) = delete;

  /// Stops and joins the pollers; returns the CPU seconds they used.
  double stop();

private:
  std::atomic<bool> Stop{false};
  std::vector<double> CpuS;
  std::vector<std::thread> Threads;
};

} // namespace perfbench

#endif // CRAFTY_PERFBENCH_HOST_H
