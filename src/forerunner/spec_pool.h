// The parallel speculation engine (paper §4, "free" speculation on idle
// cores): fans pending-pool futures out across the modeled lanes of a
// LanePool (src/common/lane_pool.h), each job pre-executing against a
// read-only snapshot of the head state. The coordinator submits one job per
// predicted transaction, blocks until the batch drains, and merges results
// back in submission order, so every derived statistic is identical for any
// worker count. `workers` is the modeled lane count; the pool's physical
// threads are capped at the host's cores (see lane_pool.h).
#ifndef SRC_FORERUNNER_SPEC_POOL_H_
#define SRC_FORERUNNER_SPEC_POOL_H_

#include <vector>

#include "src/common/lane_pool.h"
#include "src/forerunner/speculator.h"

namespace frn {

// One unit of work: pre-execute every predicted future of one pending
// transaction against the immutable snapshot `root`, starting from the
// transaction's accumulated speculation state (copied in by the coordinator,
// so workers never touch shared mutable speculation state).
struct SpecJob {
  Hash root;
  Transaction tx;
  std::vector<FutureContext> futures;
  TxSpeculation spec;
};

// Per-future synthesis outcome in future order; the coordinator replays these
// to reproduce the exact serial ordering of the §5.5 / Figure 15 stat streams.
struct SpecFutureOutcome {
  bool synthesized = false;
  SynthesisStats stats;
};

struct SpecJobResult {
  TxSpeculation spec;
  std::vector<SpecFutureOutcome> outcomes;
  // Modeled cost of this job: the executing thread's CPU time plus the
  // deferred cold-read latency (what the job would cost wall-clock on an idle
  // core, independent of how the OS schedules the executor threads).
  double exec_seconds = 0;
  // Modeled start offset of the job on its lane: the summed exec_seconds of
  // the jobs ordered before it on the same lane within the batch.
  double queue_seconds = 0;
  size_t worker = 0;  // modeled lane (= job index % workers), deterministic
  KvStoreStats io;    // store traffic of this job (per-thread attribution)
};

class SpecPool {
 public:
  // `workers` >= 1 modeled lanes; `physical_threads` is the LanePool
  // override (0 = capped at hardware concurrency). With one physical thread
  // RunBatch executes jobs inline in submission order — the original
  // single-threaded pipeline's exact operation order (job costs use the same
  // modeled CPU + deferred-latency accounting as the threaded path).
  // `versioned` (may be null) lets each executor's scratch state views read
  // retained roots O(1) through pinned snapshot handles; jobs never write it.
  SpecPool(Mpt* trie, const Speculator::Options& options, size_t workers,
           size_t physical_threads = 0, VersionedState* versioned = nullptr);

  size_t workers() const { return pool_.lanes(); }
  size_t physical_threads() const { return pool_.physical_threads(); }

  // Executes the batch, blocking until every job finished. Results come back
  // in job order; lane attribution (round-robin by job index) and hence all
  // per-lane accounting is deterministic for a given worker count.
  std::vector<SpecJobResult> RunBatch(std::vector<SpecJob> jobs);

  // Modeled wall time of the last batch: LaneWall over the job costs
  // (== the serial sum when workers == 1).
  double last_batch_wall_seconds() const { return last_batch_wall_seconds_; }

  // Cumulative per-lane accounting across all batches.
  const std::vector<SpecWorkerStats>& worker_stats() const { return worker_stats_; }

 private:
  // Executes one job into its result slot, measuring modeled cost and store
  // traffic. Slot disjointness (the pool's static stripe) is the only
  // exclusion it needs.
  void ExecuteJob(const Speculator& speculator, SpecJob& job, SpecJobResult& result,
                  size_t job_index);

  LanePool pool_;
  // One per physical pool thread: no mutable state is shared between
  // executors, only the (reader-safe) trie/store underneath.
  std::vector<Speculator> speculators_;

  // Coordinator-only (written between batches, no executor ever touches them).
  double last_batch_wall_seconds_ = 0;
  std::vector<SpecWorkerStats> worker_stats_;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_SPEC_POOL_H_
