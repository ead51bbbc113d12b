#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "perfbench/bench.h"
#include "src/common/clock.h"

namespace perfbench {

bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out) {
  WorkloadSpec spec;
  spec.name = name;
  spec.config = frn::ScenarioByName("L1");
  spec.config.name = name;
  // A hot set the run never fills: the default 2^16 nodes overflow after
  // ~250 blocks (superseded trie nodes stay resident until the wholesale
  // eviction), which would add cold reads to workloads meant to have none.
  spec.hot_set_capacity = 1 << 20;
  frn::ScenarioConfig& cfg = spec.config;
  // Each workload runs ~300 blocks of traffic: enough blocks and transactions
  // that one seed's block-interval, backlog and heavy-transaction draws
  // average out, while a pass takes ~10 s so that several passes fit the
  // measured window and average out per-transaction timing noise. Arrival rates
  // keep every pool stable (a pool that grows makes speculation cost track
  // the backlog instead of the code).
  if (name == "mainnet-mix") {
    // The L1 profile (transaction mix, 8% forks, 10M gas blocks) at 30% of
    // its arrival rate: L1's 4 tx/s is ~1.4x what its blocks can carry.
    cfg.tx_rate = 1.2;
    cfg.duration = 2800;
  } else if (name == "cold-state") {
    // Transfer-dominated, low contention, over a state trie ~10x the store's
    // hot set: the trie, KvStore, RLP and the prefetcher do the work.
    cfg.w_eth_transfer = 0.45;
    cfg.w_token_transfer = 0.45;
    cfg.w_oracle = 0.02;
    cfg.w_swap = 0.02;
    cfg.w_registry = 0.02;
    cfg.w_lottery = 0.01;
    cfg.w_hasher = 0.01;
    cfg.w_create = 0.01;
    cfg.w_nft = 0.01;
    cfg.w_auction = 0.01;
    cfg.w_multisig = 0.01;
    cfg.contention = 0.2;
    cfg.tx_rate = 2.0;
    cfg.duration = 2200;
    spec.hot_set_capacity = 2048;
  } else if (name == "defi-contention") {
    // Oracle, swap and hasher calls on hot instances: the interpreter, SHA3
    // and the synthesis/merge path do the work. Its transactions are ~3x
    // L1's gas limit, so the stable rate is lower still. Hasher calls stay
    // a small share: their log-normal iteration counts would otherwise let a
    // few seed-drawn giants set the speculation cost.
    cfg.w_oracle = 0.35;
    cfg.w_swap = 0.35;
    cfg.w_hasher = 0.05;
    cfg.w_eth_transfer = 0.08;
    cfg.w_token_transfer = 0.10;
    cfg.w_registry = 0.03;
    cfg.w_lottery = 0.02;
    cfg.w_create = 0.01;
    cfg.w_nft = 0.01;
    cfg.w_auction = 0.01;
    cfg.w_multisig = 0.01;
    cfg.contention = 0.9;
    cfg.tx_rate = 0.8;
    cfg.duration = 2800;
  } else {
    return false;
  }
  // The seed replaces L1's fixed seeds the same way ScenarioByName derives
  // them, so traffic and emulator draws both follow it.
  cfg.seed = seed;
  cfg.dice.seed = seed * 0x9E3779B97F4A7C15ULL + 0xD1CE;
  *out = std::move(spec);
  return true;
}

Setup::Setup(const WorkloadSpec& spec)
    : spec_(spec), workload_(spec.config), sim_(spec.config.dice, workload_.GenerateTraffic()) {}

frn::NodeOptions Setup::Options(frn::ExecStrategy strategy, size_t spec_workers) const {
  frn::NodeOptions options;
  options.strategy = strategy;
  options.store.cold_read_latency = spec_.config.cold_read_latency;
  options.store.hot_set_capacity = spec_.hot_set_capacity;
  options.predictor.miners = frn::MinerCandidates(sim_.miners());
  options.predictor.mean_block_interval = spec_.config.dice.mean_block_interval;
  // Exact acceleration outcomes: an AP is available regardless of how long
  // its speculation took, so every run compares identical critical-path work.
  options.speculation_time_scale = 0;
  options.spec_workers = spec_workers;
  return options;
}

std::function<void(frn::StateDb*)> Setup::Genesis() const {
  return [this](frn::StateDb* state) { workload_.InitGenesis(state); };
}

std::unique_ptr<frn::Node> Setup::MakeNode(frn::ExecStrategy strategy,
                                           size_t spec_workers) const {
  return std::make_unique<frn::Node>(Options(strategy, spec_workers), Genesis());
}

size_t ForerunnerWorkers() {
  unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<size_t>(hw, 1, 4);
}

uint64_t RegistryDiff::Count(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double RegistryDiff::Seconds(const std::string& name) const {
  auto it = seconds.find(name);
  return it == seconds.end() ? 0 : it->second;
}

RegistryDiff Diff(const frn::MetricsSnapshot& before, const frn::MetricsSnapshot& after) {
  RegistryDiff diff;
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    diff.counters[name] = value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, value] : after.seconds) {
    auto it = before.seconds.find(name);
    diff.seconds[name] = value - (it == before.seconds.end() ? 0 : it->second);
  }
  return diff;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

std::vector<frn::TxExecRecord> MainChain(const frn::NodeRunStats& node) {
  std::vector<frn::TxExecRecord> out;
  out.reserve(node.records.size());
  for (const frn::TxExecRecord& r : node.records) {
    if (!r.on_fork) {
      out.push_back(r);
    }
  }
  return out;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double HostProbeSeconds() {
  // The table lives as long as the process, so the probe never allocates and
  // does not depend on the state of the program's heap.
  static std::vector<uint64_t> table(1 << 19);
  frn::Stopwatch watch;
  // Arithmetic: eight chains the core can run side by side.
  uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  for (int i = 0; i < 5'000'000; ++i) {
    a = a * 0x9E3779B97F4A7C15ULL + b;
    b ^= a >> 7;
    c = c * 0xC2B2AE3D27D4EB4FULL + d;
    d ^= c << 3;
    e += (f ^ 0x5555) + (e >> 11);
    f = f * 31 + g;
    g ^= h + e;
    h = (h << 5) | (h >> 59);
  }
  // Memory: dependent read-modify-writes at random slots of a 4 MiB table,
  // the access pattern of state caches and trie nodes.
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 100'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[(x ^ a) & (table.size() - 1)];
    slot += x;
    a += slot;
  }
  double seconds = watch.ElapsedSeconds();
  volatile uint64_t sink = a ^ b ^ c ^ d ^ e ^ f ^ g ^ h;
  (void)sink;
  return seconds;
}

uint64_t MismatchedBlocks(const frn::SimReport& report, const frn::NodeRunStats& a,
                          const frn::NodeRunStats& b) {
  std::vector<frn::TxExecRecord> ra = MainChain(a);
  std::vector<frn::TxExecRecord> rb = MainChain(b);
  if (ra.size() != rb.size()) {
    return report.blocks;
  }
  uint64_t failed = 0;
  size_t index = 0;
  for (const frn::Block& block : report.chain) {
    bool bad = false;
    for (size_t i = 0; i < block.txs.size(); ++i, ++index) {
      if (index >= ra.size() || ra[index].tx_id != block.txs[i].id ||
          rb[index].tx_id != block.txs[i].id || ra[index].gas_used != rb[index].gas_used ||
          ra[index].status != rb[index].status) {
        bad = true;
      }
    }
    failed += bad ? 1 : 0;
  }
  return failed;
}

void CheckBacklog(const frn::SimReport& report, const frn::NodeRunStats& node, Result* result) {
  constexpr double kMaxPendingShare = 0.05;
  if (static_cast<double>(node.mempool.size) >
      kMaxPendingShare * static_cast<double>(report.txs_sent)) {
    result->Fail("backlog guard: " + std::to_string(node.mempool.size) + " of " +
                 std::to_string(report.txs_sent) +
                 " transactions still pending at the end (peak " +
                 std::to_string(node.mempool.max_size_seen) + ")");
  }
}

void PrintResult(const Result& result) {
  std::printf("%-48s %16s %-8s %10s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : result.metrics) {
    std::printf("%-48s %16.6g %-8s %10llu\n", m.name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& e : result.errors) {
    std::printf("ERROR: %s\n", e.c_str());
  }
  bool correct = result.correct;
  std::string metrics;
  for (const Metric& m : result.metrics) {
    double value = m.value;
    if (!std::isfinite(value)) {
      correct = false;
      value = 0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    metrics += (metrics.empty() ? "" : ", ");
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
