//===- tests/PMemTest.cpp - Persistent-memory simulator tests -------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "pmem/PMemAllocator.h"
#include "pmem/PMemPool.h"
#include "support/Clock.h"
#include "support/Spin.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

using namespace crafty;

namespace {

PMemConfig trackedConfig(size_t Bytes = 1 << 20) {
  PMemConfig C;
  C.PoolBytes = Bytes;
  C.Mode = PMemMode::Tracked;
  C.DrainLatencyNs = 0;
  return C;
}

uint64_t imageWordAt(PMemPool &Pool, const uint64_t *Addr) {
  std::vector<uint8_t> Img = Pool.imageSnapshot();
  size_t Off = reinterpret_cast<const uint8_t *>(Addr) - Pool.base();
  uint64_t V;
  std::memcpy(&V, Img.data() + Off, sizeof(V));
  return V;
}

TEST(PMemPool, CarveIsAlignedAndDisjoint) {
  PMemPool Pool(trackedConfig());
  void *A = Pool.carve(100);
  void *B = Pool.carve(100);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(A) % CacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(B) % CacheLineBytes, 0u);
  EXPECT_GE(reinterpret_cast<uint8_t *>(B),
            reinterpret_cast<uint8_t *>(A) + 100);
  EXPECT_TRUE(Pool.contains(A));
  EXPECT_TRUE(Pool.contains(B));
}

TEST(PMemPool, StoreDoesNotPersistWithoutFlush) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 42;
  Pool.onCommittedStore(W);
  EXPECT_EQ(imageWordAt(Pool, W), 0u);
  EXPECT_TRUE(Pool.isLineDirty(W));
}

TEST(PMemPool, ClwbAlonePersistsNothingUntilDrain) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 42;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  EXPECT_EQ(imageWordAt(Pool, W), 0u);
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 42u);
  EXPECT_FALSE(Pool.isLineDirty(W));
}

TEST(PMemPool, DrainIsPerThread) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 7;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  Pool.drain(1); // A different thread's drain does not complete ours.
  EXPECT_EQ(imageWordAt(Pool, W), 0u);
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 7u);
}

TEST(PMemPool, CrashDiscardsUnpersistedStores) {
  PMemPool Pool(trackedConfig());
  auto *A = static_cast<uint64_t *>(Pool.carve(8));
  auto *B = static_cast<uint64_t *>(Pool.carve(8));
  *A = 1;
  Pool.onCommittedStore(A);
  Pool.persist(0, A, 8);
  *B = 2;
  Pool.onCommittedStore(B);
  Pool.crash();
  EXPECT_EQ(*A, 1u) << "persisted store survives";
  EXPECT_EQ(*B, 0u) << "unpersisted store is lost";
}

TEST(PMemPool, EvictionCanPersistDirtyLinesSpontaneously) {
  PMemConfig C = trackedConfig(/*Bytes=*/64 << 10);
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 9;
  Pool.onCommittedStore(W);
  // Random probing: iterate until the dirty line is chosen.
  for (int I = 0; I != 1000 && imageWordAt(Pool, W) != 9u; ++I)
    Pool.evictRandomLines(64);
  EXPECT_EQ(imageWordAt(Pool, W), 9u);
  EXPECT_GT(Pool.stats().EvictedLines, 0u);
}

TEST(PMemPool, PersistDirectBypassesCache) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  uint64_t V = 1234;
  Pool.persistDirect(W, &V, sizeof(V));
  EXPECT_EQ(*W, 1234u);
  EXPECT_EQ(imageWordAt(Pool, W), 1234u);
}

TEST(PMemPool, FlushEverythingPersistsAllDirtyLines) {
  PMemPool Pool(trackedConfig());
  auto *A = static_cast<uint64_t *>(Pool.carve(8));
  auto *B = static_cast<uint64_t *>(Pool.carve(8));
  *A = 5;
  *B = 6;
  Pool.onCommittedStore(A);
  Pool.onCommittedStore(B);
  Pool.flushEverything();
  EXPECT_EQ(imageWordAt(Pool, A), 5u);
  EXPECT_EQ(imageWordAt(Pool, B), 6u);
}

TEST(PMemPool, StatsCountOperations) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(128));
  Pool.clwbRange(0, W, 128); // Two cache lines.
  Pool.drain(0);
  Pool.drain(0); // No pending work: an empty drain.
  PMemStats S = Pool.stats();
  EXPECT_EQ(S.ClwbCalls, 2u);
  EXPECT_EQ(S.LinesScheduled, 2u);
  EXPECT_EQ(S.Drains, 2u);
  EXPECT_EQ(S.EmptyDrains, 1u);
  EXPECT_EQ(S.drainsWithWork(), 1u);
}

TEST(PMemPool, RepeatedClwbsOfOneLineCoalesce) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(CacheLineBytes));
  *W = 1;
  Pool.onCommittedStore(W);
  for (int I = 0; I != 100; ++I)
    Pool.clwb(0, W);
  PMemStats S = Pool.stats();
  EXPECT_EQ(S.ClwbCalls, 100u);
  EXPECT_EQ(S.LinesScheduled, 1u) << "repeats within one epoch coalesce";
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 1u);
  Pool.clwb(0, W); // New epoch: re-arms even with no intervening store.
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
}

TEST(PMemPool, LinesScheduledBoundedByDistinctDirtyLines) {
  // PendingLines used to accumulate one entry per clwb call; with the
  // filter, repeats of an unchanged line never schedule new write-backs.
  PMemPool Pool(trackedConfig());
  auto *Base = static_cast<uint64_t *>(Pool.carve(3 * CacheLineBytes));
  const size_t WordsPerLine = CacheLineBytes / sizeof(uint64_t);
  std::vector<uint64_t *> Words;
  for (size_t L = 0; L != 3; ++L)
    for (size_t I = 0; I != 4; ++I) {
      uint64_t *W = Base + L * WordsPerLine + I;
      *W = L * 10 + I + 1;
      Pool.onCommittedStore(W);
      Words.push_back(W);
    }
  for (int Round = 0; Round != 50; ++Round)
    for (uint64_t *W : Words)
      Pool.clwb(0, W);
  PMemStats S = Pool.stats();
  EXPECT_EQ(S.ClwbCalls, 50u * Words.size());
  EXPECT_EQ(S.LinesScheduled, 3u) << "<= distinct dirty lines";
  Pool.drain(0);
  for (uint64_t *W : Words)
    EXPECT_EQ(imageWordAt(Pool, W), *W);
}

TEST(PMemPool, RedirtiedLineRearmsWithinEpoch) {
  PMemPool Pool(trackedConfig());
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 1;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  EXPECT_EQ(Pool.stats().LinesScheduled, 1u);
  *W = 2;
  Pool.onCommittedStore(W); // Bumps the line's store generation.
  Pool.clwb(0, W);          // Same epoch, but the line changed: re-arm.
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
  Pool.clwb(0, W); // Unchanged again: coalesced.
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
  Pool.drain(0);
  EXPECT_EQ(imageWordAt(Pool, W), 2u);
}

TEST(PMemPool, EagerWritebackExposesRedirtyAfterClwbHazard) {
  // Hardware may write a line back at any instant between the CLWB and
  // the fence. EagerWriteback models the earliest instant: a store after
  // the clwb is then NOT covered by the next drain, so a crash must be
  // allowed to expose it as unpersisted.
  PMemConfig C = trackedConfig();
  C.EagerWriteback = true;
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 1;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W); // Written back now.
  *W = 2;
  Pool.onCommittedStore(W); // Re-dirtied after the clwb.
  Pool.drain(0);            // Covers nothing new.
  Pool.crash();
  EXPECT_EQ(*W, 1u) << "second store lost: no covering re-flush";
}

TEST(PMemPool, EagerWritebackHonorsCoveringReflush) {
  // The dual of the hazard test: a fresh clwb after the re-dirtying
  // store must never be coalesced away (same line, same epoch -- only
  // the store generation distinguishes it).
  PMemConfig C = trackedConfig();
  C.EagerWriteback = true;
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  *W = 1;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W);
  *W = 2;
  Pool.onCommittedStore(W);
  Pool.clwb(0, W); // Covering re-flush.
  Pool.drain(0);
  Pool.crash();
  EXPECT_EQ(*W, 2u) << "re-flush re-armed despite the coalescing filter";
  EXPECT_EQ(Pool.stats().LinesScheduled, 2u);
}

TEST(PMemPool, LatencyModeChargesDrain) {
  PMemConfig C;
  C.PoolBytes = 1 << 16;
  C.Mode = PMemMode::LatencyOnly;
  C.DrainLatencyNs = 200000; // 0.2 ms, measurable.
  PMemPool Pool(C);
  auto *W = static_cast<uint64_t *>(Pool.carve(8));
  // The write-back's deadline starts at the CLWB (drain waits only for
  // the remainder), so time the clwb+drain pair as a whole.
  uint64_t T0 = monotonicNanos();
  Pool.clwb(0, W);
  Pool.drain(0);
  uint64_t Elapsed = monotonicNanos() - T0;
  EXPECT_GE(Elapsed, 200000u);
  // Drain with no pending flush is free.
  T0 = monotonicNanos();
  Pool.drain(0);
  EXPECT_LT(monotonicNanos() - T0, 200000u);
}

TEST(PMemPool, ConcurrentStoresAndFlushesLeaveNoLineBehind) {
  // Two threads store to and write back the same 64 lines at once: each
  // store marks its line dirty while the other thread's drain or
  // flushEverything copies that line to the image and clears its dirty
  // state. Whatever the interleaving, a store must either reach the image
  // through a copy that read it or leave its line dirty and findable, so
  // once both threads quiesce one flushEverything makes the image equal
  // to memory with no line left dirty.
  constexpr unsigned Lines = 64;
  constexpr unsigned Rounds = 3000;
  constexpr unsigned Iters = 400;
  PMemPool Pool(trackedConfig(1 << 16));
  auto *Words = static_cast<uint64_t *>(Pool.carve(Lines * CacheLineBytes));
  constexpr unsigned WordsPerLine = CacheLineBytes / 8;
  unsigned Failures = 0;
  for (unsigned R = 0; R != Rounds; ++R) {
    std::atomic<unsigned> Ready{0};
    auto Worker = [&](uint32_t Tid) {
      Ready.fetch_add(1);
      while (Ready.load() != 2)
        cpuPause();
      for (unsigned I = 0; I != Iters; ++I) {
        uint64_t *W = &Words[(I % Lines) * WordsPerLine + I % WordsPerLine];
        __atomic_store_n(W, ((uint64_t)R << 32) | (I << 1) | Tid,
                         __ATOMIC_RELEASE);
        Pool.onCommittedStore(W);
        if (Tid == 0 || I % 8 != 0) {
          Pool.clwb(Tid, W);
          Pool.drain(Tid);
        } else {
          Pool.flushEverything();
        }
      }
    };
    std::thread A(Worker, 0), B(Worker, 1);
    A.join();
    B.join();
    Pool.flushEverything();
    std::vector<uint8_t> Img = Pool.imageSnapshot();
    size_t Off = reinterpret_cast<uint8_t *>(Words) - Pool.base();
    bool Lost =
        std::memcmp(Img.data() + Off, Words, Lines * CacheLineBytes) != 0;
    for (unsigned L = 0; L != Lines; ++L)
      Lost |= Pool.isLineDirty(&Words[L * WordsPerLine]);
    Failures += Lost;
  }
  EXPECT_EQ(Failures, 0u) << "rounds that lost a store, of " << Rounds;
}

TEST(PMemAllocator, AllocFreeReuse) {
  PMemPool Pool(trackedConfig());
  PMemAllocator Alloc(Pool, 2, 64 << 10);
  void *A = Alloc.alloc(0, 24);
  void *B = Alloc.alloc(0, 24);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_NE(A, B);
  EXPECT_TRUE(Pool.contains(A));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(A) % 8, 0u);
  Alloc.dealloc(0, A);
  void *C = Alloc.alloc(0, 20); // Same size class: reuses A.
  EXPECT_EQ(C, A);
  EXPECT_GT(Alloc.bytesInUse(), 0u);
}

TEST(PMemAllocator, PerThreadArenasAreDisjoint) {
  PMemPool Pool(trackedConfig());
  PMemAllocator Alloc(Pool, 2, 4 << 10);
  void *A = Alloc.alloc(0, 64);
  void *B = Alloc.alloc(1, 64);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  EXPECT_GE(std::abs(reinterpret_cast<intptr_t>(A) -
                     reinterpret_cast<intptr_t>(B)),
            (intptr_t)(4 << 10) - 128);
}

TEST(PMemAllocator, ExhaustionReturnsNull) {
  PMemPool Pool(trackedConfig());
  PMemAllocator Alloc(Pool, 1, 1 << 10);
  void *Last = nullptr;
  int Count = 0;
  while (void *P = Alloc.alloc(0, 128)) {
    Last = P;
    ++Count;
  }
  EXPECT_GT(Count, 0);
  EXPECT_NE(Last, nullptr);
}

} // namespace
