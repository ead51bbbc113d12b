// The repo's one fan-out executor and its one cost model (paper §4:
// speculation is "free" as long as idle cores are available). Three users
// share it: the speculation pool (src/forerunner/spec_pool.h), the parallel
// storage-subtrie folds of StateDb::Commit, and the optimistic block
// executor's rounds (src/forerunner/parallel_exec.h).
//
// Two thread counts are deliberately distinct:
//  - `lanes` is the MODELED parallelism: job j belongs to lane j % lanes, and
//    LaneWall() turns per-job costs into the batch's modeled wall time, the
//    slowest lane's summed cost.
//  - the PHYSICAL threads that actually run jobs default to
//    min(lanes, hardware concurrency), so per-job costs (thread CPU plus
//    deferred store latency) stay clean when lanes exceed the host's cores.
//    Physical placement never changes results or modeled cost.
#ifndef SRC_COMMON_LANE_POOL_H_
#define SRC_COMMON_LANE_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/sync.h"

namespace frn {

// The host's hardware concurrency (at least 1). The only place the repo reads
// it: every physical-thread cap and every "one lane per core" default
// resolves through here.
size_t HardwareThreads();

// Modeled wall time of one batch: job j runs on lane j % lanes, and the batch
// takes as long as its slowest lane's summed job costs (0 for no jobs; the
// serial sum when lanes == 1). `queue_offsets`, when given, receives each
// job's modeled start offset on its lane: the summed costs of the jobs before
// it on the same lane.
double LaneWall(const std::vector<double>& job_costs, size_t lanes,
                std::vector<double>* queue_offsets = nullptr);

class LanePool {
 public:
  using JobFn = std::function<void(size_t job, size_t thread)>;

  // `lanes` >= 1 modeled lanes. `physical_threads` = 0 runs
  // min(lanes, HardwareThreads()) persistent threads; a nonzero value
  // overrides that cap (tests use this to force real concurrency). With one
  // physical thread no threads are spawned.
  explicit LanePool(size_t lanes, size_t physical_threads = 0);
  ~LanePool();
  LanePool(const LanePool&) = delete;
  LanePool& operator=(const LanePool&) = delete;

  size_t lanes() const { return lanes_; }
  size_t physical_threads() const { return physical_; }

  // Runs fn(job, thread) for every job in [0, n_jobs), blocking until all
  // finish. Job j runs on physical thread j % physical_threads(): a static
  // stripe of disjoint indices with no claim counter, so fn may write the
  // job's own slot of caller-owned state without a lock, and the batch
  // barrier publishes those writes back to the caller. With one physical
  // thread Run executes inline on the caller, in job order. One caller at a
  // time.
  void Run(size_t n_jobs, const JobFn& fn);

 private:
  void ThreadLoop(size_t thread);

  size_t lanes_;
  size_t physical_;
  // Batch handoff state, all guarded by the batch mutex — including the
  // retirement (fn_ = nullptr) at the end of Run(): a thread whose stripe was
  // empty can wake from the batch-start notify arbitrarily late, and its wait
  // predicate reads fn_ under this lock. The unguarded clear that raced here
  // once (the batch-retirement use-after-free) is a clang -Wthread-safety
  // build break.
  Mutex mutex_;
  CondVar work_cv_;  // threads: a batch (or shutdown) is ready
  CondVar done_cv_;  // caller: the batch drained
  bool shutdown_ FRN_GUARDED_BY(mutex_) = false;
  const JobFn* fn_ FRN_GUARDED_BY(mutex_) = nullptr;
  size_t n_jobs_ FRN_GUARDED_BY(mutex_) = 0;
  size_t batch_seq_ FRN_GUARDED_BY(mutex_) = 0;  // bumped per batch; wakes the threads
  size_t done_jobs_ FRN_GUARDED_BY(mutex_) = 0;
  std::vector<std::thread> threads_;  // declared after the state they use
};

// One background thread running tasks one at a time in submission order,
// spawned lazily on the first Submit. The chain.root_async pipeline runs a
// whole StateDb::FinishCommit body here, off the critical path; a task may
// itself call LanePool::Run, because the seal handshake keeps at most one
// commit in flight. Pending tasks are completed (not dropped) at destruction.
// Single submitter: only the coordinator thread may call Submit.
class AsyncLane {
 public:
  AsyncLane() = default;
  ~AsyncLane();
  AsyncLane(const AsyncLane&) = delete;
  AsyncLane& operator=(const AsyncLane&) = delete;

  void Submit(std::function<void()> task);

 private:
  void Loop();

  Mutex mutex_;
  CondVar cv_;
  std::deque<std::function<void()>> tasks_ FRN_GUARDED_BY(mutex_);
  bool shutdown_ FRN_GUARDED_BY(mutex_) = false;
  bool started_ = false;  // written by the single submitter + destructor only
  std::thread thread_;
};

}  // namespace frn

#endif  // SRC_COMMON_LANE_POOL_H_
