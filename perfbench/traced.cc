// The traced run behind the per-layer metrics (--trace 1).
//
// 1. Node level: each node runs alone on the workload's inputs — once with
//    tracing off, diffing the process-global MetricsRegistry around the run
//    so its counters are attributed to that node, and once with the
//    TraceCollector armed for the block/commit/speculation spans. The
//    difference between the two walls is the tracing overhead.
// 2. Layer replay: the main chain is re-executed from genesis through the
//    quickstart API (Evm, TraceBuilder, Ap, StateDb::Commit) with the
//    benchmark's own spans around each call, then Keccak and RLP decode are
//    timed on the replay store's trie nodes. The replay must reproduce the
//    Baseline node's transactions and head root.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "perfbench/bench.h"
#include "src/common/clock.h"
#include "src/core/ap.h"
#include "src/core/trace_builder.h"
#include "src/crypto/keccak.h"
#include "src/evm/evm.h"
#include "src/obs/trace.h"
#include "src/rlp/rlp.h"

namespace perfbench {

namespace {

using frn::ExecStrategy;

struct Event {
  std::string name;
  double ts_us = 0;
  double dur_us = 0;
  uint64_t tid = 0;
};

// Per-name span totals: count, duration, and self time (duration minus the
// part covered by child spans).
struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0;
  double self_s = 0;
  std::vector<double> durations_s;
};
using SelfTimeTable = std::map<std::string, SpanTotals>;

// Nests each thread's complete events by interval containment (a span's
// parent is the innermost enclosing span on the same thread) and charges
// every span's duration against its parent's self time.
SelfTimeTable SelfTimes(std::vector<Event> events) {
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;
  });
  std::vector<double> child_us(events.size(), 0);
  std::vector<size_t> stack;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    while (!stack.empty()) {
      const Event& top = events[stack.back()];
      if (top.tid == e.tid && e.ts_us + e.dur_us <= top.ts_us + top.dur_us + 1e-3) {
        break;
      }
      stack.pop_back();
    }
    if (!stack.empty()) {
      child_us[stack.back()] += e.dur_us;
    }
    stack.push_back(i);
  }
  SelfTimeTable table;
  for (size_t i = 0; i < events.size(); ++i) {
    SpanTotals& t = table[events[i].name];
    ++t.count;
    t.total_s += events[i].dur_us * 1e-6;
    t.self_s += std::max(0.0, events[i].dur_us - child_us[i]) * 1e-6;
    t.durations_s.push_back(events[i].dur_us * 1e-6);
  }
  return table;
}

void PrintSelfTimes(const std::string& title, const SelfTimeTable& table, double passes) {
  std::printf("\nper-layer self time: %s\n", title.c_str());
  std::printf("  %-22s %10s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : table) {
    std::printf("  %-22s %10.0f %12.3f %12.3f\n", name.c_str(),
                static_cast<double>(t.count) / passes, t.total_s * 1e3 / passes,
                t.self_s * 1e3 / passes);
  }
}

// One node alone on fresh inputs of the workload.
struct AloneRun {
  frn::SimReport report;
  RegistryDiff diff;
  double wall_s = 0;
  frn::Hash head;
  frn::JsonValue store;  // Node::StatsJson()["node"]["store"]
  std::vector<Event> events;
};

AloneRun RunAlone(const WorkloadSpec& spec, ExecStrategy strategy, bool traced) {
  AloneRun out;
  Setup setup(spec);
  std::unique_ptr<frn::Node> node = setup.MakeNode(
      strategy, strategy == ExecStrategy::kBaseline ? 1 : ForerunnerWorkers());
  frn::TraceCollector& collector = frn::TraceCollector::Global();
  if (traced) {
    collector.Enable();
  }
  frn::MetricsSnapshot before = frn::MetricsRegistry::Global().Snapshot();
  frn::Stopwatch watch;
  out.report = setup.sim().Run({node.get()}, spec.name);
  out.wall_s = watch.ElapsedSeconds();
  out.diff = Diff(before, frn::MetricsRegistry::Global().Snapshot());
  out.head = node->head_root();
  out.store = *node->StatsJson().Find("node")->Find("store");
  if (traced) {
    collector.Disable();
    frn::JsonValue doc = collector.ToChromeJson();
    collector.Clear();
    for (const frn::JsonValue& v : doc.Find("traceEvents")->array_items()) {
      if (v.Find("ph")->AsString() != "X") {
        continue;
      }
      out.events.push_back(Event{v.Find("name")->AsString(), v.Find("ts")->AsDouble(),
                                 v.Find("dur")->AsDouble(), v.Find("tid")->AsU64()});
    }
  }
  return out;
}

// The benchmark's own span recorder for the layer replay: a parent span per
// block, and the transaction id shared by every span of one transaction.
class SpanLog {
 public:
  size_t Begin(const char* name, size_t parent, uint64_t tx) {
    spans_.push_back(Span{name, parent, tx, clock_.ElapsedSeconds(), 0, 0});
    return spans_.size();  // ids are 1-based; 0 is "no parent"
  }
  double End(size_t id) {
    Span& s = spans_[id - 1];
    s.dur_s = clock_.ElapsedSeconds() - s.start_s;
    if (s.parent != 0) {
      spans_[s.parent - 1].child_s += s.dur_s;
    }
    return s.dur_s;
  }
  SelfTimeTable Table() const {
    SelfTimeTable table;
    for (const Span& s : spans_) {
      SpanTotals& t = table[s.name];
      ++t.count;
      t.total_s += s.dur_s;
      t.self_s += std::max(0.0, s.dur_s - s.child_s);
      t.durations_s.push_back(s.dur_s);
    }
    return table;
  }

 private:
  struct Span {
    const char* name;
    size_t parent;
    uint64_t tx;
    double start_s;
    double dur_s;
    double child_s;
  };
  frn::Stopwatch clock_;
  std::vector<Span> spans_;
};

struct ReplayPass {
  frn::Hash root;
  uint64_t blocks = 0;
  uint64_t mismatched_txs = 0;
  uint64_t evm_gas = 0;
  std::vector<std::pair<frn::Hash, frn::Bytes>> nodes;  // reachable trie nodes
};

// Collects every trie node reachable from `root` (account trie plus storage
// tries) from the store, decoding each with the public RLP decoder.
void CollectTrieNodes(frn::KvStore* store, const frn::Hash& root,
                      std::vector<std::pair<frn::Hash, frn::Bytes>>* out) {
  std::vector<std::pair<frn::Hash, bool>> pending = {{root, true}};  // (hash, account trie)
  std::unordered_set<frn::Hash, frn::HashHasher> seen;
  const frn::Hash empty = frn::Mpt::EmptyRoot();
  auto to_hash = [](const frn::Bytes& b) {
    std::array<uint8_t, 32> h{};
    std::copy(b.begin(), b.end(), h.begin());
    return frn::Hash(h);
  };
  while (!pending.empty()) {
    auto [hash, account_trie] = pending.back();
    pending.pop_back();
    if (hash == empty || !seen.insert(hash).second) {
      continue;
    }
    std::optional<frn::Bytes> blob = store->Get(hash);
    frn::RlpDecoder::Item item;
    if (!blob || !frn::RlpDecoder::Decode(*blob, &item) || !item.is_list) {
      continue;
    }
    out->emplace_back(hash, *blob);
    if (item.children.size() == 17) {
      for (size_t i = 0; i < 16; ++i) {
        if (item.children[i].payload.size() == 32) {
          pending.emplace_back(to_hash(item.children[i].payload), account_trie);
        }
      }
    } else if (item.children.size() == 2 && !item.children[0].payload.empty()) {
      bool leaf = (item.children[0].payload[0] >> 4) >= 2;  // hex-prefix flag
      const frn::Bytes& value = item.children[1].payload;
      frn::RlpDecoder::Item account;
      if (!leaf && value.size() == 32) {
        pending.emplace_back(to_hash(value), account_trie);
      } else if (leaf && account_trie && frn::RlpDecoder::Decode(value, &account) &&
                 account.is_list && account.children.size() == 4 &&
                 account.children[2].payload.size() == 32) {
        pending.emplace_back(to_hash(account.children[2].payload), false);
      }
    }
  }
}

struct ReplayTimings {
  std::vector<double> evm_s, trace_s, synth_s, ap_exec_s, commit_s;
};

ReplayPass Replay(const Setup& setup, const std::vector<frn::Block>& chain,
                  const std::vector<frn::TxExecRecord>& base_records, SpanLog* log,
                  ReplayTimings* t, bool keep_nodes) {
  ReplayPass pass;
  frn::KvStore::Options store_options;
  store_options.cold_read_latency = std::chrono::nanoseconds(0);  // CPU layers only
  frn::KvStore store(store_options);
  frn::Mpt trie(&store);
  frn::Hash root;
  {
    frn::StateDb genesis(&trie, frn::Mpt::EmptyRoot());
    setup.Genesis()(&genesis);
    root = genesis.Commit();
  }
  size_t index = 0;
  for (const frn::Block& block : chain) {
    const frn::BlockContext& header = block.header;
    size_t block_span = log->Begin("replay.block", 0, 0);
    frn::StateDb state(&trie, root);
    for (const frn::Transaction& tx : block.txs) {
      // Baseline layer: the plain interpreter on the pre-tx state.
      int snapshot = state.Snapshot();
      size_t span = log->Begin("evm.execute", block_span, tx.id);
      frn::ExecResult expected = frn::Evm(&state, header).ExecuteTransaction(tx);
      t->evm_s.push_back(log->End(span));
      pass.evm_gas += expected.gas_used;
      state.RevertToSnapshot(snapshot);

      // Speculation layers, in the actual context: trace, synthesize, build.
      frn::Ap ap;
      bool have_ap = false;
      {
        frn::TraceBuilder builder(tx, &state);
        span = log->Begin("core.trace", block_span, tx.id);
        frn::ExecResult traced = frn::Evm(&state, header).ExecuteTransaction(tx, &builder);
        t->trace_s.push_back(log->End(span));
        state.RevertToSnapshot(snapshot);
        span = log->Begin("core.synthesize", block_span, tx.id);
        frn::LinearIr ir;
        if (builder.Finalize(traced, &ir)) {
          size_t build_span = log->Begin("core.ap_build", span, tx.id);
          ap = frn::Ap::Build(std::move(ir));
          log->End(build_span);
          have_ap = true;
        }
        t->synth_s.push_back(log->End(span));
      }

      // Critical path as the accelerator runs it: wrapper checks, the AP in
      // the actual context, the EVM as the fallback.
      frn::ExecResult got;
      bool done = false;
      if (have_ap && state.GetNonce(tx.sender) == tx.nonce &&
          !(state.GetBalance(tx.sender) < frn::U256(tx.gas_limit) * tx.gas_price + tx.value)) {
        span = log->Begin("core.ap_execute", block_span, tx.id);
        frn::ApRunResult run = ap.Execute(&state, header);
        t->ap_exec_s.push_back(log->End(span));
        if (run.satisfied) {
          frn::U256 fee = frn::U256(run.result.gas_used) * tx.gas_price;
          state.SetNonce(tx.sender, tx.nonce + 1);
          state.SubBalance(tx.sender, fee);
          state.AddBalance(header.coinbase, fee);
          got = std::move(run.result);
          done = true;
        }
      }
      if (!done) {
        span = log->Begin("evm.fallback", block_span, tx.id);
        got = frn::Evm(&state, header).ExecuteTransaction(tx);
        log->End(span);
      }
      bool base_ok = index < base_records.size() && base_records[index].tx_id == tx.id &&
                     base_records[index].gas_used == got.gas_used &&
                     base_records[index].status == got.status;
      if (!(got == expected) || !base_ok) {
        ++pass.mismatched_txs;
      }
      ++index;
    }
    size_t span = log->Begin("state.commit", block_span, 0);
    root = state.Commit();
    t->commit_s.push_back(log->End(span));
    log->End(block_span);
    ++pass.blocks;
  }
  pass.root = root;
  if (keep_nodes) {
    CollectTrieNodes(&store, root, &pass.nodes);
  }
  return pass;
}

// Nanoseconds per call of `fn` over `items`, repeated until ~50 ms elapse.
template <typename Items, typename Fn>
double NsPerItem(const Items& items, Fn fn) {
  if (items.empty()) {
    return 0;
  }
  uint64_t calls = 0;
  frn::Stopwatch watch;
  do {
    for (const auto& item : items) {
      fn(item);
    }
    calls += items.size();
  } while (watch.ElapsedSeconds() < 0.05);
  return watch.ElapsedSeconds() * 1e9 / static_cast<double>(calls);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

}  // namespace

Result RunTraced(const WorkloadSpec& spec, double seconds) {
  Result result;
  frn::Stopwatch window;
  const size_t workers = ForerunnerWorkers();

  // ---- 1. Node level ----
  AloneRun base = RunAlone(spec, ExecStrategy::kBaseline, false);
  AloneRun fr = RunAlone(spec, ExecStrategy::kForerunner, false);
  AloneRun base_traced = RunAlone(spec, ExecStrategy::kBaseline, true);
  AloneRun fr_traced = RunAlone(spec, ExecStrategy::kForerunner, true);
  const frn::NodeRunStats& bs = base.report.nodes[0];
  const frn::NodeRunStats& fs = fr.report.nodes[0];
  for (const AloneRun* run : {&base, &fr, &base_traced, &fr_traced}) {
    result.attempted += run->report.blocks + run->report.fork_blocks;
    if (!(run->head == base.head) || run->report.blocks != base.report.blocks) {
      result.Fail("one-node runs disagree on the chain or its head root");
      result.failed += run->report.blocks;
    }
  }
  uint64_t mismatched = MismatchedBlocks(base.report, bs, fs);
  if (mismatched != 0) {
    result.Fail(std::to_string(mismatched) + " blocks differ between Baseline and Forerunner");
    result.failed += mismatched;
  }

  CheckBacklog(fr.report, fs, &result);

  // ---- 2. Layer replay: passes while another one fits the window ----
  Setup setup(spec);
  std::vector<frn::TxExecRecord> base_main = MainChain(bs);
  SpanLog log;
  ReplayTimings rt;
  ReplayPass first;
  double passes = 0;
  double last_pass = 0;
  while (passes == 0 || window.ElapsedSeconds() + last_pass <= seconds) {
    frn::Stopwatch pass_watch;
    ReplayPass pass = Replay(setup, base.report.chain, base_main, &log, &rt, passes == 0);
    last_pass = pass_watch.ElapsedSeconds();
    result.attempted += pass.blocks;
    if (!(pass.root == base.head) || pass.mismatched_txs != 0) {
      result.Fail("layer replay: " + std::to_string(pass.mismatched_txs) +
                  " transactions differ from the Baseline node, final root " +
                  (pass.root == base.head ? "matches" : "differs"));
      result.failed += pass.blocks;
    }
    if (passes == 0) {
      first = std::move(pass);
    }
    passes += 1;
  }

  // Keccak and RLP on the replay store's trie nodes; every node's key must be
  // the hash of its blob.
  std::vector<frn::Bytes> blobs;
  std::vector<frn::Hash> keys;
  for (const auto& [key, blob] : first.nodes) {
    if (!(frn::Keccak256(blob) == key)) {
      result.Fail("trie node " + key.ToHex() + " does not hash to its key");
    }
    keys.push_back(key);
    blobs.push_back(blob);
  }
  if (blobs.empty()) {
    result.Fail("no trie nodes reachable from the replay's head root");
  }
  uint64_t sink = 0;
  double keccak_32b = NsPerItem(keys, [&](const frn::Hash& k) {
    sink += frn::Keccak256(k.bytes().data(), 32).bytes()[0];
  });
  double keccak_node = NsPerItem(blobs, [&](const frn::Bytes& b) {
    sink += frn::Keccak256(b).bytes()[0];
  });
  double decode = NsPerItem(blobs, [&](const frn::Bytes& b) {
    frn::RlpDecoder::Item item;
    sink += frn::RlpDecoder::Decode(b, &item) ? item.children.size() : 0;
  });
  if (sink == 0) {
    result.Fail("keccak/rlp timing loop produced no output");
  }

  // ---- Self-time tables ----
  SelfTimeTable base_table = SelfTimes(base_traced.events);
  SelfTimeTable fr_table = SelfTimes(fr_traced.events);
  SelfTimeTable replay_table = log.Table();
  PrintSelfTimes(spec.name + " / Baseline node (traced run)", base_table, 1);
  PrintSelfTimes(spec.name + " / Forerunner node (traced run)", fr_table, 1);
  PrintSelfTimes(spec.name + " / layer replay (per pass)", replay_table, passes);
  std::printf("\nlayer replay: %.0f passes over %llu blocks, %zu trie nodes\n\n", passes,
              static_cast<unsigned long long>(first.blocks), blobs.size());

  // ---- Metrics ----
  const RegistryDiff& bd = base.diff;
  const RegistryDiff& fd = fr.diff;
  const RegistryDiff& ftd = fr_traced.diff;
  std::vector<frn::TxExecRecord> fr_main = MainChain(fs);
  double base_cp = 0, fr_cp = 0, skipped = 0, instrs = 0, accelerated = 0;
  for (const frn::TxExecRecord& r : base_main) base_cp += r.seconds;
  for (const frn::TxExecRecord& r : fr_main) {
    fr_cp += r.seconds;
    accelerated += r.accelerated ? 1 : 0;
    if (r.accelerated) {
      skipped += static_cast<double>(r.instrs_skipped);
      instrs += static_cast<double>(r.instrs_executed + r.instrs_skipped);
    }
  }
  const double futures = static_cast<double>(fs.futures_speculated);

  result.Add("forerunner.mempool.pending_end", static_cast<double>(fs.mempool.size), "count");
  result.Add("forerunner.mempool.pending_max", static_cast<double>(fs.mempool.max_size_seen),
             "count");

  result.Add("forerunner.predictor.rounds", fd.Count("predict.rounds"), "count");
  result.Add("forerunner.predictor.futures", fd.Count("predict.futures"), "count");
  result.Add("forerunner.predictor.wall_s", fd.Seconds("predict.wall_seconds"), "s");

  // Spec pool: the real wall of each batch is the extent of its job spans
  // inside the coordinator's round.speculate span; the model is the pool's
  // max-over-lanes wall for the same batches.
  double batch_wall = 0, job_wall = 0;
  {
    std::vector<const Event*> rounds, jobs;
    for (const Event& e : fr_traced.events) {
      if (e.name == "round.speculate") rounds.push_back(&e);
      if (e.name == "tx.speculate") jobs.push_back(&e);
    }
    for (const Event* j : jobs) job_wall += j->dur_us * 1e-6;
    for (const Event* r : rounds) {
      double lo = 1e300, hi = -1e300;
      for (const Event* j : jobs) {
        if (j->ts_us >= r->ts_us && j->ts_us + j->dur_us <= r->ts_us + r->dur_us + 1e-3) {
          lo = std::min(lo, j->ts_us);
          hi = std::max(hi, j->ts_us + j->dur_us);
        }
      }
      if (hi > lo) batch_wall += (hi - lo) * 1e-6;
    }
  }
  const double modeled_wall = ftd.Seconds("spec.batch_wall_seconds");
  result.Add("forerunner.spec_pool.jobs", fd.Count("spec.jobs"), "count");
  result.Add("forerunner.spec_pool.busy_s", fd.Seconds("spec.modeled_busy_seconds"), "s");
  result.Add("forerunner.spec_pool.idle_s",
             std::max(0.0, static_cast<double>(workers) * batch_wall - job_wall), "s");
  result.Add("forerunner.spec_pool.batch_wall_s", batch_wall, "s");
  result.Add("forerunner.spec_pool.modeled_wall_s", modeled_wall, "s");
  result.Add("forerunner.spec_pool.model_error_pct",
             100.0 * Ratio(std::abs(modeled_wall - batch_wall), batch_wall), "%");

  result.Add("forerunner.spec_manager.futures", futures, "count");
  result.Add("forerunner.spec_manager.root_skips",
             static_cast<double>(fs.spec_cache.root_skips), "count");
  result.Add("forerunner.spec_manager.synthesis_failures",
             static_cast<double>(fs.synthesis_failures), "count");
  result.Add("forerunner.spec_manager.useful_ratio", Ratio(accelerated, futures), "ratio");
  // Speculation CPU per tx and the run's wall grow with how many pipeline
  // rounds a transaction waits through, which the seed's block intervals
  // decide; too seed-dependent for a bound, so they are diagnostics here.
  result.Add("forerunner.spec_manager.cpu_ms_per_tx",
             Ratio(fs.speculation_seconds * 1e3, fr_main.size()), "ms");
  result.Add("forerunner.run_wall_s", fr.wall_s, "s");

  double ap_nodes_sum = 0;
  for (const frn::ApStats& s : fs.ap_stats) ap_nodes_sum += static_cast<double>(s.nodes);
  result.Add("core.trace_us_p50", Percentile(rt.trace_s, 50) * 1e6, "us", rt.trace_s.size());
  result.Add("core.synthesize_us_p50", Percentile(rt.synth_s, 50) * 1e6, "us",
             rt.synth_s.size());
  result.Add("core.ap_nodes_mean", Ratio(ap_nodes_sum, fs.ap_stats.size()), "count",
             fs.ap_stats.size());
  result.Add("core.bail_pct", 100.0 * Ratio(fs.synthesis_failures, futures), "%");
  result.Add("core.ap.ap_execute_us_p50", Percentile(rt.ap_exec_s, 50) * 1e6, "us",
             rt.ap_exec_s.size());
  result.Add("core.ap.ap_execute_us_p99", Percentile(rt.ap_exec_s, 99) * 1e6, "us",
             rt.ap_exec_s.size());
  result.Add("core.ap.instrs_skipped_pct", 100.0 * Ratio(skipped, instrs), "%");

  for (const char* outcome : {"perfect", "fastpath", "bail", "no_ap", "plain"}) {
    result.Add(std::string("forerunner.accelerator.outcome.") + outcome,
               fd.Count(std::string("accel.outcome.") + outcome), "count");
  }
  result.Add("forerunner.accelerator.outcome.plain.base", bd.Count("accel.outcome.plain"),
             "count");
  result.Add("forerunner.accelerator.check_s", fd.Seconds("accel.check_wall_seconds"), "s");
  result.Add("forerunner.accelerator.effective_speedup", Ratio(base_cp, fr_cp), "x");
  // The p99 critical-path time per tx, from the untraced one-node runs. It
  // is set by the ~1% heaviest transactions a seed draws, so it varies too
  // much between seeds to carry a bound; the end-to-end tail is p90.
  std::vector<double> base_tx_s, fr_tx_s;
  for (const frn::TxExecRecord& r : base_main) base_tx_s.push_back(r.seconds);
  for (const frn::TxExecRecord& r : fr_main) fr_tx_s.push_back(r.seconds);
  result.Add("forerunner.accelerator.tx_us_p99.base", Percentile(base_tx_s, 99) * 1e6, "us",
             base_tx_s.size());
  result.Add("forerunner.accelerator.tx_us_p99.fr", Percentile(fr_tx_s, 99) * 1e6, "us",
             fr_tx_s.size());

  double evm_s = 0;
  for (double s : rt.evm_s) evm_s += s;
  result.Add("evm.execute_us_p50", Percentile(rt.evm_s, 50) * 1e6, "us", rt.evm_s.size());
  result.Add("evm.execute_us_p99", Percentile(rt.evm_s, 99) * 1e6, "us", rt.evm_s.size());
  result.Add("evm.ns_per_gas", Ratio(evm_s * 1e9, first.evm_gas * passes), "ns");
  result.Add("evm.runs.base", bd.Count("evm.runs"), "count");
  result.Add("evm.runs.fr", fd.Count("evm.runs"), "count");
  result.Add("evm.gas.base", bd.Count("evm.gas"), "gas");
  result.Add("evm.gas.fr", fd.Count("evm.gas"), "gas");

  result.Add("state.commit_ms_p50", Percentile(rt.commit_s, 50) * 1e3, "ms",
             rt.commit_s.size());
  result.Add("state.commit_ms_p99", Percentile(rt.commit_s, 99) * 1e3, "ms",
             rt.commit_s.size());
  result.Add("state.commit_wall_s.base", bd.Seconds("exec.commit_wall_seconds"), "s");
  result.Add("state.commit_wall_s.fr", fd.Seconds("exec.commit_wall_seconds"), "s");
  // Commit's share of the block critical path (block.commit inside block.exec).
  for (const auto& [label, table] :
       {std::pair<const char*, const SelfTimeTable*>{"base", &base_table}, {"fr", &fr_table}}) {
    auto exec = table->find("block.exec");
    auto commit = table->find("block.commit");
    double share = exec == table->end() || commit == table->end()
                       ? 0
                       : 100.0 * Ratio(commit->second.total_s, exec->second.total_s);
    result.Add(std::string("state.commit_share_pct.") + label, share, "%");
  }
  for (const auto& [label, stats] :
       {std::pair<const char*, const frn::NodeRunStats*>{"base", &bs}, {"fr", &fs}}) {
    std::string l = label;
    result.Add("state.account_trie_reads." + l,
               static_cast<double>(stats->chain_state.account_trie_reads), "count");
    result.Add("state.storage_trie_reads." + l,
               static_cast<double>(stats->chain_state.storage_trie_reads), "count");
    result.Add("state.shared_cache_hits." + l,
               static_cast<double>(stats->chain_state.shared_cache_hits), "count");
  }

  // Forerunner's speculation reads defer their miss latency into the model:
  // exactly one cold_read_latency per worker-attributed cold read.
  double fr_worker_cold = 0;
  for (const frn::SpecWorkerStats& w : fs.spec_worker_stats) {
    fr_worker_cold += static_cast<double>(w.store_cold_reads);
  }
  const double latency_s =
      std::chrono::duration<double>(spec.config.cold_read_latency).count();
  for (const auto& [label, run] :
       {std::pair<const char*, const AloneRun*>{"base", &base}, {"fr", &fr}}) {
    std::string l = label;
    result.Add("trie.kv_store.reads." + l, run->store.Find("reads")->AsDouble(), "count");
    result.Add("trie.kv_store.cold_reads." + l, run->store.Find("cold_reads")->AsDouble(),
               "count");
    result.Add("trie.kv_store.stall_s." + l, run->store.Find("stall_seconds")->AsDouble(),
               "s");
    result.Add("trie.kv_store.writes." + l, run->store.Find("writes")->AsDouble(), "count");
  }
  result.Add("trie.kv_store.deferred_s.fr", fr_worker_cold * latency_s, "s");
  const double base_stall = base.store.Find("stall_seconds")->AsDouble();
  const double fr_stall = fr.store.Find("stall_seconds")->AsDouble();
  result.Add("forerunner.prefetcher.stall_saved_pct",
             base_stall == 0 ? 0 : 100.0 * (1 - fr_stall / base_stall), "%");

  result.Add("forerunner.chain_manager.rollbacks", fd.Count("chain.rollbacks"), "count");
  result.Add("forerunner.chain_manager.commit_ms_per_block",
             Ratio((fs.total_exec_seconds - fr_cp) * 1e3, fr.report.blocks), "ms");
  for (const auto& [label, table] :
       {std::pair<const char*, const SelfTimeTable*>{"base", &base_table}, {"fr", &fr_table}}) {
    auto it = table->find("block.exec");
    std::vector<double> d = it == table->end() ? std::vector<double>{} : it->second.durations_s;
    std::string l = label;
    result.Add("forerunner.chain_manager.block_ms_p50." + l, Percentile(d, 50) * 1e3, "ms",
               d.size());
    result.Add("forerunner.chain_manager.block_ms_p99." + l, Percentile(d, 99) * 1e3, "ms",
               d.size());
  }

  result.Add("crypto.keccak_ns_32b", keccak_32b, "ns", keys.size());
  result.Add("crypto.keccak_ns_node", keccak_node, "ns", blobs.size());
  result.Add("rlp.node_decode_ns", decode, "ns", blobs.size());

  for (const char* name :
       {"evm.execute", "core.trace", "core.synthesize", "core.ap_build", "core.ap_execute",
        "state.commit"}) {
    auto it = replay_table.find(name);
    double self_ms = it == replay_table.end() ? 0 : it->second.self_s * 1e3 / passes;
    result.Add(std::string("replay.self_ms.") + name, self_ms, "ms");
  }

  const double untraced = base.wall_s + fr.wall_s;
  const double traced = base_traced.wall_s + fr_traced.wall_s;
  result.Add("obs.trace_overhead_pct", 100.0 * (traced - untraced) / untraced, "%");
  return result;
}

}  // namespace perfbench
