#include "src/forerunner/parallel_exec.h"

#include "src/common/clock.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/state/versioned_state.h"
#include "src/trie/kv_store.h"

namespace frn {

namespace {

// Rounds beyond the 2n convergence bound before the safety valve trips (see
// parallel_exec.h).
constexpr size_t kRoundSlack = 4;

}  // namespace

// One transaction's latest execution attempt. Distinct attempts are touched
// by at most one thread per round (disjoint indices), and the round barrier
// (the end of the LanePool batch) publishes them to the coordinator's
// validation pass, so the struct carries no lock.
struct ParallelBlockExecutor::Attempt {
  std::vector<BlockStmReadDesc> reads;
  TxWriteSet writes;
  AccelOutcome outcome;
  double cost_seconds = 0;  // modeled: thread CPU + deferred store latency
  size_t attempts = 0;
  bool failed_once = false;  // already counted toward stats.conflicts
  // The attempt observed the fee-account balance (BALANCE on the coinbase, a
  // transfer out of it, ...): the commutative-fee exemption served a possibly
  // stale pre-block value, so the block must fall back to serial execution.
  bool fee_balance_observed = false;
};

ParallelBlockExecutor::ParallelBlockExecutor(Mpt* trie, SharedStateCache* shared_cache,
                                             VersionedState* versioned,
                                             const ParallelExecOptions& options)
    : trie_(trie),
      shared_cache_(shared_cache),
      versioned_(versioned),
      pool_(options.workers, options.physical_threads) {}

void ParallelBlockExecutor::RunAttempt(const Hash& root, const BlockContext& header,
                                       const Transaction& tx, const TxSpeculation* spec,
                                       ExecStrategy strategy, const MvMemory& mv,
                                       size_t tx_index, Attempt* attempt) {
  const double cpu_start = ThreadCpuSeconds();
  KvStoreStats io;
  {
    // Deferred-latency accounting (the SpecPool idiom): cold-read stalls are
    // charged to the modeled cost instead of physically spun, so the model
    // holds on a host with fewer cores than lanes.
    KvStore::StatsScope scope(&io);
    StateDb attempt_db(trie_, root, shared_cache_, versioned_);
    BlockStmView view(&mv, tx_index, header.coinbase);
    attempt_db.set_overlay(&view);
    attempt->outcome = Accelerator::Execute(&attempt_db, header, tx, spec, strategy);
    attempt->writes = attempt_db.ExtractWriteSet(&header.coinbase);
    attempt->reads = view.TakeReads();
    attempt->fee_balance_observed = view.fee_balance_observed();
  }
  attempt->cost_seconds = (ThreadCpuSeconds() - cpu_start) + io.deferred_latency_seconds;
  ++attempt->attempts;
}

bool ParallelBlockExecutor::ExecuteBlock(const Hash& root, const BlockContext& header,
                                         const std::vector<Transaction>& txs,
                                         const std::vector<const TxSpeculation*>& specs,
                                         ExecStrategy strategy,
                                         std::vector<ParallelTxResult>* results,
                                         ParallelBlockStats* stats) {
  static Counter* conflicts_counter = MetricsRegistry::Global().GetCounter("exec.conflicts");
  static Counter* reexec_counter = MetricsRegistry::Global().GetCounter("exec.reexecutions");
  static Counter* validation_failures_counter =
      MetricsRegistry::Global().GetCounter("exec.validation_failures");
  static Counter* rounds_counter = MetricsRegistry::Global().GetCounter("exec.parallel_rounds");
  static Counter* fallbacks_counter =
      MetricsRegistry::Global().GetCounter("exec.parallel_fallbacks");
  static SecondsCounter* parallel_wall =
      MetricsRegistry::Global().GetSeconds("exec.parallel_wall_seconds");

  *stats = ParallelBlockStats{};
  results->clear();
  const size_t n = txs.size();
  if (n == 0) {
    return true;
  }
  for (const Transaction& tx : txs) {
    if (tx.sender == header.coinbase) {
      // The commutative fee exemption assumes the fee account only ever
      // receives credits inside the block; a fee-account sender breaks that.
      stats->fallback_serial = true;
      fallbacks_counter->Add();
      return false;
    }
  }

  TraceCollector* collector = &TraceCollector::Global();
  TraceSpan span(collector, "block", "block.parallel", parallel_wall);
  span.AddArg(TraceArg::U64("txs", n));
  span.AddArg(TraceArg::U64("workers", pool_.lanes()));

  MvMemory mv;
  std::vector<Attempt> attempts(n);
  // Indices needing (re-)execution this round; starts as the whole block.
  std::vector<size_t> pending(n);
  for (size_t i = 0; i < n; ++i) {
    pending[i] = i;
  }
  const size_t max_rounds = 2 * n + kRoundSlack;
  size_t committed = 0;

  while (committed < n) {
    if (stats->rounds >= max_rounds) {
      // Unreachable by the convergence argument (header comment), kept as a
      // hard safety valve: the caller re-runs the block serially.
      stats->fallback_serial = true;
      fallbacks_counter->Add();
      return false;
    }
    ++stats->rounds;

    // Execute phase: every pending attempt runs against the frozen committed
    // prefix. Lane striping is by position in `pending` — deterministic, and
    // decoupled from the physical thread count.
    Stopwatch exec_watch;
    pool_.Run(pending.size(), [&](size_t j, size_t) {
      const size_t i = pending[j];
      RunAttempt(root, header, txs[i], specs[i], strategy, mv, i, &attempts[i]);
    });
    stats->exec_real_seconds += exec_watch.ElapsedSeconds();
    std::vector<double> costs(pending.size());
    bool fee_balance_observed = false;
    for (size_t j = 0; j < pending.size(); ++j) {
      const Attempt& attempt = attempts[pending[j]];
      costs[j] = attempt.cost_seconds;
      stats->exec_serial_seconds += attempt.cost_seconds;
      ++stats->executions;
      if (attempt.attempts > 1) {
        ++stats->reexecutions;
      }
      fee_balance_observed |= attempt.fee_balance_observed;
    }
    stats->exec_wall_seconds += LaneWall(costs, pool_.lanes());
    if (fee_balance_observed) {
      // Some attempt observed the fee-account balance: the exemption served a
      // pre-block value that lower-indexed fee credits may contradict. An
      // attempt's behavior depends only on the frozen committed prefix, so
      // the detection — like conflict accounting — is deterministic at any
      // worker count; the caller re-runs the block serially. (Transaction 0
      // against an empty prefix would technically be safe, but distinguishing
      // it would make the fallback decision depend on commit timing.)
      stats->fallback_serial = true;
      fallbacks_counter->Add();
      static Counter* fee_read_fallbacks =
          MetricsRegistry::Global().GetCounter("exec.fee_balance_fallbacks");
      fee_read_fallbacks->Add();
      return false;
    }
    pending.clear();

    // Validation phase (coordinator, ascending): extend the committed prefix
    // while reads hold, publishing each committed write set before validating
    // the next transaction. Kept attempts above a failure re-validate next
    // round without re-executing.
    Stopwatch validate_watch;
    bool prefix_open = true;
    for (size_t i = committed; i < n; ++i) {
      if (ValidateBlockStmReads(mv, i, attempts[i].reads)) {
        if (prefix_open) {
          mv.Publish(i, attempts[i].writes);
          committed = i + 1;
        }
        continue;
      }
      prefix_open = false;
      ++stats->validation_failures;
      validation_failures_counter->Add();
      if (!attempts[i].failed_once) {
        attempts[i].failed_once = true;
        ++stats->conflicts;
        conflicts_counter->Add();
      }
      pending.push_back(i);
    }
    stats->validate_seconds += validate_watch.ElapsedSeconds();
  }

  results->resize(n);
  for (size_t i = 0; i < n; ++i) {
    ParallelTxResult& r = (*results)[i];
    r.outcome = std::move(attempts[i].outcome);
    r.writes = std::move(attempts[i].writes);
    r.attempts = attempts[i].attempts;
    r.last_cost_seconds = attempts[i].cost_seconds;
  }
  reexec_counter->Add(stats->reexecutions);
  rounds_counter->Add(stats->rounds);
  span.AddArg(TraceArg::U64("rounds", stats->rounds));
  span.AddArg(TraceArg::U64("conflicts", stats->conflicts));
  span.AddArg(TraceArg::F64("modeled_wall_s", stats->exec_wall_seconds));
  return true;
}

}  // namespace frn
