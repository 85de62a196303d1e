//===- tests/workerpool_test.cpp - WorkerPool tests -----------------------===//
//
// Part of the Spice reproduction project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/WorkerPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace spice::core;

TEST(WorkerPool, RunsEveryLeasedLaneExactlyOnce) {
  WorkerPool Pool(4);
  WorkerPool::SessionHandle S = Pool.acquireSession(4, true);
  ASSERT_EQ(S->lanes(), 4u);
  std::vector<std::atomic<int>> Hits(4);
  S->launch([&](unsigned Lane) { Hits[Lane].fetch_add(1); });
  S->wait();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(WorkerPool, PartialLeaseLeavesOthersFree) {
  WorkerPool Pool(4);
  WorkerPool::SessionHandle S = Pool.acquireSession(2, true);
  ASSERT_EQ(S->lanes(), 2u);
  std::vector<std::atomic<int>> Hits(4);
  S->launch([&](unsigned Lane) { Hits[Lane].fetch_add(1); });
  S->wait();
  EXPECT_EQ(Hits[0].load(), 1);
  EXPECT_EQ(Hits[1].load(), 1);
  EXPECT_EQ(Hits[2].load(), 0);
  EXPECT_EQ(Hits[3].load(), 0);
  EXPECT_EQ(Pool.freeWorkers(), 2u) << "unleased workers stay free";
}

TEST(WorkerPool, ReusableAcrossManyLaunches) {
  WorkerPool Pool(3);
  std::atomic<uint64_t> Sum{0};
  for (int Round = 0; Round != 200; ++Round) {
    WorkerPool::SessionHandle S = Pool.acquireSession(3, true);
    S->launch([&](unsigned Lane) { Sum.fetch_add(Lane + 1); });
    S->wait();
  }
  EXPECT_EQ(Sum.load(), 200u * (1 + 2 + 3));
  const SessionPoolStats St = Pool.sessionPoolStats();
  EXPECT_EQ(St.SessionsCreated, 1u) << "released sessions are recycled";
  EXPECT_EQ(St.SessionPoolHits, 199u);
}

TEST(WorkerPool, CallerRunsConcurrentlyWithWorkers) {
  WorkerPool Pool(1);
  WorkerPool::SessionHandle S = Pool.acquireSession(1, true);
  std::atomic<bool> WorkerSawFlag{false};
  std::atomic<bool> Flag{false};
  S->launch([&](unsigned) {
    // Wait (bounded) for the caller to set the flag after launch.
    for (int I = 0; I != 1'000'000 && !Flag.load(); ++I)
      std::this_thread::yield();
    WorkerSawFlag = Flag.load();
  });
  Flag = true; // If launch() blocked until completion, this would be late.
  S->wait();
  EXPECT_TRUE(WorkerSawFlag.load());
}

TEST(WorkerPool, DestructionJoinsCleanly) {
  for (int I = 0; I != 20; ++I) {
    WorkerPool Pool(2);
    std::atomic<int> N{0};
    {
      WorkerPool::SessionHandle S = Pool.acquireSession(2, true);
      S->launch([&](unsigned) { N.fetch_add(1); });
      S->wait();
    } // Sessions must be released before the pool is destroyed.
    EXPECT_EQ(N.load(), 2);
  }
}

TEST(WorkerPoolDeathTest, ThrowingWorkerStartHookAborts) {
  // A WorkerStartHook that throws during pool start has no unwind path
  // (workers never propagate exceptions); it must abort loudly with the
  // hook's message instead of calling std::terminate with no context --
  // or worse, wedging the pool with fewer workers than it advertises.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WorkerPool Pool(2, [](unsigned Index) {
          if (Index == 1)
            throw std::runtime_error("pinning failed: no such node");
        });
        // The destructor joins the workers, so the block cannot exit
        // normally: worker 1 runs the hook before its first park.
      },
      "WorkerStartHook threw during worker start.*no such node");
}

TEST(WorkerSessionDeathTest, ReentrantLaunchAborts) {
  // A second launch before wait() is a protocol violation: it must die
  // with a diagnostic instead of clobbering the in-flight job (UB).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        WorkerPool Pool(2);
        WorkerPool::SessionHandle S = Pool.acquireSession(2, true);
        S->launch([](unsigned) {});
        S->launch([](unsigned) {}); // No wait(): must abort.
      },
      "launch");
}

//===----------------------------------------------------------------------===//
// Chunk deques and work stealing
//===----------------------------------------------------------------------===//

TEST(WorkerPoolQueues, OwnLanePopsInFifoOrder) {
  detail::ChunkDeques Q; // Queues work without any worker threads.
  Q.reset(1, /*AllowStealing=*/true);
  Q.push(0, 1);
  Q.push(0, 2);
  Q.push(0, 3);
  Q.close();
  uint32_t C = 0;
  bool Stolen = true;
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 1u);
  EXPECT_FALSE(Stolen);
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 2u);
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 3u);
  EXPECT_FALSE(Q.acquire(0, C, Stolen)) << "closed and drained";
}

TEST(WorkerPoolQueues, StealsMostSpeculativeChunkFromTheBack) {
  detail::ChunkDeques Q;
  Q.reset(2, /*AllowStealing=*/true);
  Q.push(0, 1); // Lane 0 holds {1, 3}; lane 1 is empty.
  Q.push(0, 3);
  Q.close();
  uint32_t C = 0;
  bool Stolen = false;
  ASSERT_TRUE(Q.acquire(1, C, Stolen));
  EXPECT_EQ(C, 3u) << "thief takes the back, leaving 1 to its owner";
  EXPECT_TRUE(Stolen);
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 1u);
  EXPECT_FALSE(Stolen);
}

TEST(WorkerPoolQueues, StealingCanBeDisabled) {
  // ChunksPerThread == 1 runs the paper's fixed schedule: a worker with
  // an empty lane must not poach from its neighbours.
  detail::ChunkDeques Q;
  Q.reset(2, /*AllowStealing=*/false);
  Q.push(0, 1);
  Q.close();
  uint32_t C = 0;
  bool Stolen = false;
  EXPECT_FALSE(Q.acquire(1, C, Stolen));
  ASSERT_TRUE(Q.acquire(0, C, Stolen));
  EXPECT_EQ(C, 1u);
}

TEST(WorkerPoolQueues, HelpPopFrontPrefersOldestChunkAcrossLanes) {
  detail::ChunkDeques Q;
  Q.reset(3, /*AllowStealing=*/true);
  Q.push(2, 2); // Fronts are 2, 5, 4; oldest pending is 2.
  Q.push(0, 5);
  Q.push(1, 4);
  Q.push(2, 7);
  uint32_t C = 0;
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 2u);
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 4u);
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 5u);
  ASSERT_TRUE(Q.helpPopFront(C));
  EXPECT_EQ(C, 7u);
  EXPECT_FALSE(Q.helpPopFront(C));
  EXPECT_EQ(Q.pending(), 0u);
}

TEST(WorkerPoolQueues, AcquireBlocksUntilLateWorkOrClose) {
  // A worker parked in acquireChunk must pick up work pushed after it
  // started waiting (the recovery re-enqueue path), then exit on close.
  WorkerPool Pool(1);
  WorkerPool::SessionHandle S = Pool.acquireSession(1, true);
  std::vector<uint32_t> Got;
  S->launch([&](unsigned Lane) {
    uint32_t C;
    bool Stolen;
    while (S->acquireChunk(Lane, C, Stolen))
      Got.push_back(C);
  });
  S->pushChunk(0, 11);
  S->pushChunk(0, 12);
  S->closeQueues();
  S->wait();
  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0], 11u);
  EXPECT_EQ(Got[1], 12u);
}

TEST(WorkerPoolQueues, OversubscribedDrainExecutesEveryChunkOnce) {
  // 64 chunks on 3 workers with stealing: every chunk runs exactly once.
  WorkerPool Pool(3);
  WorkerPool::SessionHandle S = Pool.acquireSession(3, true);
  std::vector<std::atomic<int>> Hits(64);
  for (uint32_t C = 0; C != 64; ++C)
    S->pushChunk(C % 3, C);
  S->closeQueues();
  std::atomic<int> StolenCount{0};
  S->launch([&](unsigned Lane) {
    uint32_t C;
    bool Stolen;
    while (S->acquireChunk(Lane, C, Stolen)) {
      Hits[C].fetch_add(1);
      if (Stolen)
        StolenCount.fetch_add(1);
    }
  });
  S->wait();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
  EXPECT_EQ(S->pendingChunks(), 0u);
}
