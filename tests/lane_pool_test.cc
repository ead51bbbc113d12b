// LanePool / LaneWall / AsyncLane unit tests: the one fan-out executor and
// lane cost model shared by the speculation pool, the commit folds and the
// optimistic block executor. Listed in tools/run_tsan.sh, so the threaded
// cases run under TSan with lockdep armed.
#include "src/common/lane_pool.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace frn {
namespace {

TEST(LanePoolTest, RunZeroJobsIsANoOp) {
  for (size_t physical : {1u, 4u}) {
    LanePool pool(4, physical);
    size_t calls = 0;
    pool.Run(0, [&](size_t, size_t) { ++calls; });
    EXPECT_EQ(calls, 0u);
  }
}

TEST(LanePoolTest, OnePhysicalThreadRunsInlineInJobOrder) {
  LanePool pool(4, 1);
  EXPECT_EQ(pool.lanes(), 4u);
  EXPECT_EQ(pool.physical_threads(), 1u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  bool all_on_caller = true;
  pool.Run(9, [&](size_t job, size_t thread) {
    order.push_back(job);
    all_on_caller = all_on_caller && thread == 0 && std::this_thread::get_id() == caller;
  });
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(order.size(), 9u);
  for (size_t j = 0; j < order.size(); ++j) {
    EXPECT_EQ(order[j], j);
  }
}

TEST(LanePoolTest, EveryJobRunsExactlyOnceOnItsStripe) {
  LanePool pool(4, 4);
  ASSERT_EQ(pool.physical_threads(), 4u);
  for (size_t n : {1u, 3u, 4u, 37u}) {
    // Disjoint slots: each job writes only its own, so no lock is needed and
    // the batch barrier publishes the writes back here.
    std::vector<size_t> runs(n, 0);
    std::vector<size_t> threads(n, 99);
    pool.Run(n, [&](size_t job, size_t thread) {
      ++runs[job];
      threads[job] = thread;
    });
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(runs[j], 1u) << "job " << j << " of " << n;
      EXPECT_LT(threads[j], pool.physical_threads());
      EXPECT_EQ(threads[j], j % pool.physical_threads()) << "static stripe";
    }
  }
}

TEST(LanePoolTest, PhysicalThreadsCappedAtHardwareConcurrency) {
  const size_t hw = HardwareThreads();
  ASSERT_GE(hw, 1u);
  LanePool pool(2 * hw + 1);
  EXPECT_EQ(pool.lanes(), 2 * hw + 1);
  EXPECT_EQ(pool.physical_threads(), hw);
  // More lanes than threads: every job still runs once, on a real thread.
  std::vector<size_t> runs(2 * hw + 1, 0);
  pool.Run(runs.size(), [&](size_t job, size_t thread) {
    EXPECT_LT(thread, hw);
    ++runs[job];
  });
  for (size_t r : runs) {
    EXPECT_EQ(r, 1u);
  }
  // The cap never raises the thread count above the lanes.
  EXPECT_EQ(LanePool(1).physical_threads(), 1u);
}

TEST(LanePoolTest, LaneWallTakesTheSlowestLane) {
  const std::vector<double> costs = {1, 2, 3, 4, 5};
  std::vector<double> offsets;
  // Lane 0 runs jobs 0, 2, 4 (1 + 3 + 5 = 9); lane 1 runs jobs 1, 3 (2 + 4).
  EXPECT_DOUBLE_EQ(LaneWall(costs, 2, &offsets), 9.0);
  EXPECT_EQ(offsets, (std::vector<double>{0, 0, 1, 2, 4}));
  // One lane is the serial sum, each job queued behind all earlier ones.
  EXPECT_DOUBLE_EQ(LaneWall(costs, 1, &offsets), 15.0);
  EXPECT_EQ(offsets, (std::vector<double>{0, 1, 3, 6, 10}));
  // More lanes than jobs: nothing queues, the largest job is the wall.
  EXPECT_DOUBLE_EQ(LaneWall(costs, 8, &offsets), 5.0);
  EXPECT_EQ(offsets, (std::vector<double>{0, 0, 0, 0, 0}));
  EXPECT_DOUBLE_EQ(LaneWall({}, 4, &offsets), 0.0);
  EXPECT_TRUE(offsets.empty());
}

TEST(LanePoolTest, ManySmallBatchesWithEmptyStripes) {
  // Regression for the batch-retirement race: a thread whose static stripe is
  // empty (fewer jobs than threads) can wake from the batch-start notify after
  // the caller retired the batch. Many tiny batches on four forced threads
  // maximize empty stripes and late wakeups; under TSan this must be
  // race-free. The batches go through the threads: the pool has no inline
  // shortcut above one physical thread.
  LanePool pool(4, 4);
  ASSERT_EQ(pool.physical_threads(), 4u);
  for (size_t round = 0; round < 200; ++round) {
    const size_t n = 2 + (round % 2);
    std::vector<size_t> runs(n, 0);
    pool.Run(n, [&](size_t job, size_t) { ++runs[job]; });
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(runs[j], 1u) << "round " << round;
    }
  }
}

TEST(AsyncLaneTest, RunsTasksInOrderAndDrainsOnDestruction) {
  std::vector<int> seen;
  {
    AsyncLane lane;
    for (int i = 0; i < 50; ++i) {
      lane.Submit([&seen, i] { seen.push_back(i); });
    }
  }  // the destructor completes every pending task before joining
  ASSERT_EQ(seen.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(seen[i], i);
  }
}

}  // namespace
}  // namespace frn
