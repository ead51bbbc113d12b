#include "src/common/lane_pool.h"

#include <algorithm>

namespace frn {

size_t HardwareThreads() {
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

double LaneWall(const std::vector<double>& job_costs, size_t lanes,
                std::vector<double>* queue_offsets) {
  std::vector<double> lane_busy(std::max<size_t>(1, lanes), 0.0);
  if (queue_offsets != nullptr) {
    queue_offsets->resize(job_costs.size());
  }
  for (size_t j = 0; j < job_costs.size(); ++j) {
    double& busy = lane_busy[j % lane_busy.size()];
    if (queue_offsets != nullptr) {
      (*queue_offsets)[j] = busy;
    }
    busy += job_costs[j];
  }
  return *std::max_element(lane_busy.begin(), lane_busy.end());
}

LanePool::LanePool(size_t lanes, size_t physical_threads)
    : lanes_(std::max<size_t>(1, lanes)),
      physical_(std::min(lanes_, physical_threads != 0 ? physical_threads
                                                       : HardwareThreads())) {
  if (physical_ == 1) {
    return;  // inline mode: the caller is the only executor
  }
  threads_.reserve(physical_);
  for (size_t t = 0; t < physical_; ++t) {
    threads_.emplace_back([this, t] { ThreadLoop(t); });
  }
}

LanePool::~LanePool() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void LanePool::Run(size_t n_jobs, const JobFn& fn) {
  if (n_jobs == 0) {
    return;
  }
  if (physical_ == 1) {
    for (size_t j = 0; j < n_jobs; ++j) {
      fn(j, 0);
    }
    return;
  }
  MutexLock lock(mutex_);
  fn_ = &fn;
  n_jobs_ = n_jobs;
  done_jobs_ = 0;
  ++batch_seq_;
  work_cv_.NotifyAll();
  while (done_jobs_ != n_jobs_) {
    done_cv_.Wait(mutex_);
  }
  // Retire the batch while still holding the mutex: a thread whose stripe
  // was empty may wake from the batch-start notify only now, and its wait
  // predicate reads fn_ under the lock — clearing it unlocked would race, and
  // a stale non-null pointer would dangle into the caller's frame.
  fn_ = nullptr;
  n_jobs_ = 0;
}

void LanePool::ThreadLoop(size_t thread) {
  size_t seen_batch = 0;
  for (;;) {
    // The handoff is copied out under the lock; the jobs then run unlocked
    // on this thread's disjoint stripe, and the done_jobs_ barrier publishes
    // their writes back to the caller.
    const JobFn* fn = nullptr;
    size_t n_jobs = 0;
    {
      MutexLock lock(mutex_);
      // Waking requires a *live* batch: a thread whose stripe was empty may
      // observe the next sequence number only once fn_ is installed again
      // (the caller may have retired a small batch without this thread).
      while (!shutdown_ && !(batch_seq_ != seen_batch && fn_ != nullptr)) {
        work_cv_.Wait(mutex_);
      }
      if (shutdown_) {
        return;
      }
      seen_batch = batch_seq_;
      fn = fn_;
      n_jobs = n_jobs_;
    }
    size_t done = 0;
    for (size_t j = thread; j < n_jobs; j += physical_) {
      (*fn)(j, thread);
      ++done;
    }
    MutexLock lock(mutex_);
    done_jobs_ += done;
    if (done_jobs_ == n_jobs) {
      done_cv_.NotifyOne();
    }
  }
}

AsyncLane::~AsyncLane() {
  if (!started_) {
    return;
  }
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  cv_.NotifyAll();
  thread_.join();
}

void AsyncLane::Submit(std::function<void()> task) {
  if (!started_) {
    started_ = true;
    thread_ = std::thread([this] { Loop(); });
  }
  {
    MutexLock lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.NotifyOne();
}

void AsyncLane::Loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (tasks_.empty() && !shutdown_) {
        cv_.Wait(mutex_);
      }
      if (tasks_.empty()) {
        return;  // shutdown with the queue drained
      }
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

}  // namespace frn
