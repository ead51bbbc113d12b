#include "src/forerunner/spec_pool.h"

#include "src/common/clock.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace frn {

SpecPool::SpecPool(Mpt* trie, const Speculator::Options& options, size_t workers,
                   size_t physical_threads, VersionedState* versioned)
    : pool_(workers, physical_threads),
      speculators_(pool_.physical_threads(), Speculator(trie, options, versioned)),
      worker_stats_(pool_.lanes()) {}

void SpecPool::ExecuteJob(const Speculator& speculator, SpecJob& job, SpecJobResult& result,
                          size_t job_index) {
  static SecondsCounter* job_wall = MetricsRegistry::Global().GetSeconds("spec.job_wall_seconds");
  static Counter* jobs_counter = MetricsRegistry::Global().GetCounter("spec.jobs");
  static Counter* futures_counter = MetricsRegistry::Global().GetCounter("spec.futures");
  static SecondsCounter* modeled_busy =
      MetricsRegistry::Global().GetSeconds("spec.modeled_busy_seconds");
  static ExpHistogram* job_hist = MetricsRegistry::Global().GetHistogram("spec.job_seconds");
  TraceCollector* collector = &TraceCollector::Global();
  // Span + mirror sit outside the thread-CPU measurement, so tracing overhead
  // never leaks into the modeled job cost (exec_seconds) that drives lane
  // accounting and the determinism gate.
  TraceSpan span(collector, "spec", "tx.speculate", job_wall,
                 collector->enabled() && collector->SampleTx(job.tx.id));
  double cpu_start = ThreadCpuSeconds();
  {
    KvStore::StatsScope scope(&result.io);
    result.spec = std::move(job.spec);
    result.spec.tx_id = job.tx.id;
    result.outcomes.reserve(job.futures.size());
    for (const FutureContext& future : job.futures) {
      SpecFutureOutcome outcome;
      outcome.synthesized =
          speculator.SpeculateFuture(job.root, job.tx, future, &result.spec);
      if (outcome.synthesized) {
        outcome.stats = result.spec.last_stats;
      }
      result.outcomes.push_back(outcome);
    }
  }
  result.exec_seconds =
      (ThreadCpuSeconds() - cpu_start) + result.io.deferred_latency_seconds;
  jobs_counter->Add();
  futures_counter->Add(result.outcomes.size());
  modeled_busy->Add(result.exec_seconds);
  job_hist->Record(result.exec_seconds);
  span.AddArg(TraceArg::U64("tx", job.tx.id));
  span.AddArg(TraceArg::U64("lane", job_index % pool_.lanes()));
  span.AddArg(TraceArg::U64("futures", result.outcomes.size()));
  span.AddArg(TraceArg::F64("modeled_exec_s", result.exec_seconds));
  span.AddArg(TraceArg::U64("cold_reads", result.io.cold_reads));
}

std::vector<SpecJobResult> SpecPool::RunBatch(std::vector<SpecJob> jobs) {
  std::vector<SpecJobResult> results(jobs.size());
  if (jobs.empty()) {
    last_batch_wall_seconds_ = 0;
    return results;
  }

  pool_.Run(jobs.size(), [&](size_t j, size_t thread) {
    ExecuteJob(speculators_[thread], jobs[j], results[j], j);
  });

  // Lane accounting on the coordinator: deterministic round-robin assignment
  // of jobs to modeled lanes, independent of which pool thread ran what.
  const size_t lanes = pool_.lanes();
  std::vector<double> costs(results.size());
  for (size_t j = 0; j < results.size(); ++j) {
    costs[j] = results[j].exec_seconds;
  }
  std::vector<double> queue_offsets;
  last_batch_wall_seconds_ = LaneWall(costs, lanes, &queue_offsets);
  double wait_sum = 0;
  for (size_t j = 0; j < results.size(); ++j) {
    SpecJobResult& result = results[j];
    result.worker = j % lanes;
    result.queue_seconds = queue_offsets[j];
    wait_sum += result.queue_seconds;

    SpecWorkerStats& stats = worker_stats_[result.worker];
    ++stats.jobs;
    stats.futures += result.outcomes.size();
    stats.busy_seconds += result.exec_seconds;
    stats.queue_wait_seconds += result.queue_seconds;
    stats.store_reads += result.io.reads;
    stats.store_cold_reads += result.io.cold_reads;
  }
  static SecondsCounter* batch_wall =
      MetricsRegistry::Global().GetSeconds("spec.batch_wall_seconds");
  static SecondsCounter* queue_wait =
      MetricsRegistry::Global().GetSeconds("spec.queue_wait_seconds");
  static Gauge* lane_occupancy = MetricsRegistry::Global().GetGauge("spec.max_lane_occupancy");
  batch_wall->Add(last_batch_wall_seconds_);
  queue_wait->Add(wait_sum);
  lane_occupancy->SetMax(static_cast<double>((results.size() + lanes - 1) / lanes));
  return results;
}

}  // namespace frn
