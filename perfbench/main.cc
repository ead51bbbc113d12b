// Repository benchmark: block import on emulated Ethereum traffic.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --check --workload <name> --seed <n>
//
// --trace 0 times Baseline and Forerunner nodes side by side on the seeded
// DiCE inputs and prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics from one-node runs, a traced run and a layer replay
// (traced.cc); --check is the determinism self-check. Every mode verifies
// per-block agreement between the nodes and prints its JSON result last.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/bench.h"
#include "src/common/clock.h"

namespace perfbench {

namespace {

using frn::ExecStrategy;

// FNV-1a over the counted per-transaction outcome fields.
uint64_t RecordsDigest(const std::vector<frn::TxExecRecord>& records) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const frn::TxExecRecord& r : records) {
    mix(r.tx_id);
    mix((r.on_fork ? 1 : 0) | (r.heard ? 2 : 0) | (r.speculated ? 4 : 0) |
        (r.accelerated ? 8 : 0) | (r.perfect ? 16 : 0));
    mix(r.gas_used);
    mix(static_cast<uint64_t>(r.status));
    mix(r.instrs_executed);
    mix(r.instrs_skipped);
  }
  return h;
}

// Counted quantities of one run that must not depend on timing, thread count
// or run: outcomes, futures, trie reads, store reads and gas, plus roots.
using Signature = std::map<std::string, std::string>;

void AddNodeSignature(const std::string& label, const frn::NodeRunStats& stats,
                      const frn::Node& node, bool speculates, Signature* sig) {
  auto put = [&](const std::string& key, uint64_t v) {
    (*sig)[label + "." + key] = std::to_string(v);
  };
  (*sig)[label + ".head_root"] = node.head_root().ToHex();
  put("records_digest", RecordsDigest(stats.records));
  put("records", stats.records.size());
  put("futures", stats.futures_speculated);
  put("synthesis_failures", stats.synthesis_failures);
  put("account_trie_reads", stats.chain_state.account_trie_reads);
  put("storage_trie_reads", stats.chain_state.storage_trie_reads);
  put("shared_cache_hits", stats.chain_state.shared_cache_hits);
  put("pending_end", stats.mempool.size);
  put("pending_max", stats.mempool.max_size_seen);
  put("root_skips", stats.spec_cache.root_skips);
  uint64_t gas = 0;
  for (const frn::TxExecRecord& r : stats.records) {
    gas += r.gas_used;
  }
  put("gas", gas);
  frn::JsonValue doc = node.StatsJson();
  const frn::JsonValue* store = doc.Find("node")->Find("store");
  put("store_reads", store->Find("reads")->AsU64());
  put("store_writes", store->Find("writes")->AsU64());
  // Which reads miss a full hot set depends on how concurrent speculation
  // workers interleave their touches (the set is evicted wholesale), so cold
  // reads are counted exactly only on a node without speculation.
  if (!speculates) {
    put("store_cold_reads", store->Find("cold_reads")->AsU64());
  }
}

Signature PairSignature(const frn::SimReport& report, const frn::Node& base,
                        const frn::Node& fr, const RegistryDiff& diff) {
  Signature sig;
  sig["blocks"] = std::to_string(report.blocks);
  sig["fork_blocks"] = std::to_string(report.fork_blocks);
  sig["txs_packed"] = std::to_string(report.txs_packed);
  AddNodeSignature("base", report.nodes[0], base, false, &sig);
  AddNodeSignature("fr", report.nodes[1], fr, true, &sig);
  for (const auto& [name, value] : diff.counters) {
    if (name.rfind("accel.", 0) == 0 || name.rfind("evm.", 0) == 0 ||
        name.rfind("predict.", 0) == 0 || name == "spec.jobs" || name == "spec.futures") {
      sig["registry." + name] = std::to_string(value);
    }
  }
  return sig;
}

// Lists keys whose values differ between two signatures.
std::vector<std::string> SignatureDiff(const Signature& a, const Signature& b) {
  std::vector<std::string> out;
  for (const auto& [key, value] : a) {
    auto it = b.find(key);
    std::string other = it == b.end() ? "<missing>" : it->second;
    if (other != value) {
      out.push_back(key + ": " + value + " vs " + other);
    }
  }
  return out;
}

// One Baseline + Forerunner run on fresh inputs of `spec`.
struct PairRun {
  frn::SimReport report;
  Signature signature;
  double setup_seconds = 0;
  double run_seconds = 0;
  uint64_t failed_blocks = 0;
  uint64_t executed_blocks = 0;
};

PairRun RunPair(const WorkloadSpec& spec, size_t fr_workers) {
  PairRun out;
  frn::Stopwatch setup_watch;
  Setup setup(spec);
  std::unique_ptr<frn::Node> base = setup.MakeNode(ExecStrategy::kBaseline, 1);
  std::unique_ptr<frn::Node> fr = setup.MakeNode(ExecStrategy::kForerunner, fr_workers);
  out.setup_seconds = setup_watch.ElapsedSeconds();

  frn::MetricsSnapshot before = frn::MetricsRegistry::Global().Snapshot();
  frn::Stopwatch run_watch;
  out.report = setup.sim().Run({base.get(), fr.get()}, spec.name);
  out.run_seconds = run_watch.ElapsedSeconds();
  RegistryDiff diff = Diff(before, frn::MetricsRegistry::Global().Snapshot());

  out.executed_blocks = out.report.blocks + out.report.fork_blocks;
  // A diverged root poisons every later block, so the whole run counts as
  // failed; otherwise a block fails when any of its transactions disagrees.
  bool roots_ok = out.report.roots_consistent && base->head_root() == fr->head_root();
  out.failed_blocks =
      roots_ok ? MismatchedBlocks(out.report, out.report.nodes[0], out.report.nodes[1])
               : out.executed_blocks;
  out.signature = PairSignature(out.report, *base, *fr, diff);
  return out;
}

// Best of the per-pass figures: the least time or the most throughput.
double Least(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}
double Most(const std::vector<double>& values) {
  return *std::max_element(values.begin(), values.end());
}

// Passes of a timed run: --seconds over the time of one pass (set-ups
// included) on a 4-vCPU Xeon VM, at least 2. A fixed count, so that the
// least-over-passes estimates are the same statistic whatever the host's
// speed on the day.
int PassCount(double seconds) {
  constexpr double kNominalPassSeconds = 8.5;
  return std::max(2, static_cast<int>(seconds / kNominalPassSeconds));
}

// HostProbeSeconds() on a quiet 4-vCPU Xeon VM (least of many samples): the
// host speed every timing is reported at.
constexpr double kProbeReferenceSeconds = 0.0145;
// Probe samples taken before each pass.
constexpr int kProbesPerPass = 3;

}  // namespace

Result RunTimed(const WorkloadSpec& spec, double seconds) {
  Result result;
  const size_t workers = ForerunnerWorkers();
  // The host is shared: memory-bound work slows down by up to 2x for
  // stretches of 0.1 s to tens of seconds while other tenants run. Every pass
  // repeats the same deterministic work, so each timing is taken as its
  // least value over the passes, which keeps what the program itself costs.
  // The pass count depends only on --seconds (PassCount), so every run
  // reports the same statistic.
  //
  // The least-over-passes estimates still follow the host's speed over
  // minutes: on the 4-vCPU VM the same seed's timings changed by up to 1.7x
  // between runs ten minutes apart. So every timing is also scaled to a
  // reference host: multiplied by kProbeReferenceSeconds over the least
  // HostProbeSeconds() of the run. A change to the program moves the timings
  // and leaves the probe alone.
  //
  // Per main-chain transaction: its least critical-path time over the passes.
  std::vector<double> fr_tx_s;
  std::vector<double> base_tx_s;
  // Per pass: the aggregate figures, of which the best pass is reported.
  std::vector<double> fr_import, base_import, commit_us_tx, spec_us_future;
  std::vector<double> setup_s;
  double probe_s = 1e300;
  uint64_t heard = 0, satisfied = 0, main_txs = 0, blocks = 0, futures = 0;
  size_t pending_end = 0, pending_max = 0;
  double peak_rss_mb = 0;
  Signature first;

  const int passes = PassCount(seconds);
  for (int rep = 0; rep < passes; ++rep) {
    for (int i = 0; i < kProbesPerPass; ++i) {
      probe_s = std::min(probe_s, HostProbeSeconds());
    }
    // Set-up on its own (traffic generation, the emulator and both nodes'
    // genesis) besides the pass's own, so that the median of the set-up
    // samples covers the whole run.
    {
      frn::Stopwatch watch;
      Setup setup(spec);
      std::unique_ptr<frn::Node> base = setup.MakeNode(ExecStrategy::kBaseline, 1);
      std::unique_ptr<frn::Node> fr = setup.MakeNode(ExecStrategy::kForerunner, workers);
      setup_s.push_back(watch.ElapsedSeconds());
    }
    PairRun run = RunPair(spec, workers);
    setup_s.push_back(run.setup_seconds);
    result.attempted += run.executed_blocks;
    result.failed += run.failed_blocks;
    if (run.failed_blocks != 0) {
      result.Fail("pass " + std::to_string(rep) + ": " + std::to_string(run.failed_blocks) +
                  " blocks diverged between the nodes");
    }
    if (rep == 0) {
      first = run.signature;
    } else {
      for (const std::string& d : SignatureDiff(first, run.signature)) {
        result.Fail("pass " + std::to_string(rep) + " counted metric changed: " + d);
      }
    }
    const frn::NodeRunStats& base = run.report.nodes[0];
    const frn::NodeRunStats& fr = run.report.nodes[1];
    std::vector<frn::TxExecRecord> base_main = MainChain(base);
    std::vector<frn::TxExecRecord> fr_main = MainChain(fr);
    base_tx_s.resize(base_main.size(), 1e300);
    fr_tx_s.resize(fr_main.size(), 1e300);
    for (size_t i = 0; i < base_main.size(); ++i) {
      base_tx_s[i] = std::min(base_tx_s[i], base_main[i].seconds);
    }
    for (size_t i = 0; i < fr_main.size(); ++i) {
      fr_tx_s[i] = std::min(fr_tx_s[i], fr_main[i].seconds);
    }
    double base_gas = 0, fr_gas = 0, fr_tx_sum = 0;
    for (const frn::TxExecRecord& r : base_main) {
      base_gas += static_cast<double>(r.gas_used);
    }
    heard = satisfied = 0;
    for (const frn::TxExecRecord& r : fr_main) {
      fr_tx_sum += r.seconds;
      fr_gas += static_cast<double>(r.gas_used);
      if (r.heard) {
        ++heard;
        satisfied += r.accelerated ? 1 : 0;
      }
    }
    main_txs = fr_main.size();
    blocks = run.report.blocks;
    futures = fr.futures_speculated;
    fr_import.push_back(fr_gas / fr.total_exec_seconds / 1e6);
    base_import.push_back(base_gas / base.total_exec_seconds / 1e6);
    commit_us_tx.push_back((fr.total_exec_seconds - fr_tx_sum) / static_cast<double>(main_txs) *
                           1e6);
    spec_us_future.push_back(fr.speculation_seconds / static_cast<double>(futures) * 1e6);
    pending_end = fr.mempool.size;
    pending_max = fr.mempool.max_size_seen;
    if (rep == 0) {
      CheckBacklog(run.report, fr, &result);
      // Read after the first pass, so the figure does not depend on the
      // pass count.
      peak_rss_mb = PeakRssMb();
    }
  }
  std::printf("workload %s: %d passes of %llu blocks and %llu main-chain txs, "
              "pending end %zu / max %zu\n",
              spec.name.c_str(), passes, static_cast<unsigned long long>(blocks),
              static_cast<unsigned long long>(main_txs), pending_end, pending_max);
  const uint64_t n = static_cast<uint64_t>(passes);
  // Reported time = measured time * scale; throughput = measured / scale.
  const double scale = kProbeReferenceSeconds / probe_s;
  std::printf("host probe %.4f ms (reference %.4f ms): measured timings x %.4f below\n",
              probe_s * 1e3, kProbeReferenceSeconds * 1e3, scale);
  result.Add("fr_tx_us_p50", Percentile(fr_tx_s, 50) * 1e6 * scale, "us", fr_tx_s.size());
  result.Add("fr_tx_us_p90", Percentile(fr_tx_s, 90) * 1e6 * scale, "us", fr_tx_s.size());
  result.Add("base_tx_us_p50", Percentile(base_tx_s, 50) * 1e6 * scale, "us", base_tx_s.size());
  result.Add("base_tx_us_p90", Percentile(base_tx_s, 90) * 1e6 * scale, "us", base_tx_s.size());
  result.Add("fr_import_mgas_s", Most(fr_import) / scale, "Mgas/s", n);
  result.Add("base_import_mgas_s", Most(base_import) / scale, "Mgas/s", n);
  result.Add("commit_us_per_tx", Least(commit_us_tx) * scale, "us", n);
  result.Add("spec_cpu_us_per_future", Least(spec_us_future) * scale, "us", n);
  result.Add("accel_satisfied_pct", 100.0 * static_cast<double>(satisfied) / heard, "%", heard);
  result.Add("setup_s", Median(setup_s) * scale, "s", setup_s.size());
  result.Add("peak_rss_mb", peak_rss_mb, "MB", 1);
  return result;
}

Result RunCheck(const WorkloadSpec& spec) {
  Result result;
  const size_t workers = ForerunnerWorkers();
  PairRun a = RunPair(spec, workers);
  PairRun b = RunPair(spec, workers);
  PairRun serial = RunPair(spec, 1);
  for (const PairRun* run : {&a, &b, &serial}) {
    result.attempted += run->executed_blocks;
    result.failed += run->failed_blocks;
    if (run->failed_blocks != 0) {
      result.Fail(std::to_string(run->failed_blocks) + " blocks diverged between the nodes");
    }
  }
  for (const std::string& d : SignatureDiff(a.signature, b.signature)) {
    result.Fail("second run differs: " + d);
  }
  for (const std::string& d : SignatureDiff(a.signature, serial.signature)) {
    result.Fail("spec_workers " + std::to_string(workers) + " vs 1 differs: " + d);
  }
  std::printf("workload %s: %zu counted quantities compared across two runs and across "
              "Forerunner spec_workers %zu and 1\n",
              spec.name.c_str(), a.signature.size(), workers);
  result.Add("counted_quantities", static_cast<double>(a.signature.size()), "count");
  return result;
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --check --workload <name> --seed <n>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    bool has_value = i + 1 < argc;
    if (arg == "--check") {
      check = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      return Usage();
    }
  }
  perfbench::WorkloadSpec spec;
  if (!perfbench::MakeWorkload(workload, seed, &spec) || (trace != 0 && trace != 1) ||
      !(seconds > 0)) {
    return Usage();
  }
  perfbench::Result result = check        ? perfbench::RunCheck(spec)
                             : trace == 1 ? perfbench::RunTraced(spec, seconds)
                                          : perfbench::RunTimed(spec, seconds);
  perfbench::PrintResult(result);
  // A measured run reports an incorrect result through its JSON; the
  // self-check also fails by exit code.
  return check && !result.correct ? 1 : 0;
}
