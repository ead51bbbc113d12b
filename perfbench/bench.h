// Shared pieces of the repository benchmark: workload definitions, the
// per-run set-up (traffic + DiCE emulator + node options), registry diffs,
// percentile helpers and the result record every mode prints.
//
// The benchmark measures the system from outside: it drives the public
// quickstart/DiCE APIs and reads the public per-node statistics
// (TxExecRecord, NodeRunStats, Node::StatsJson) and the process-global
// MetricsRegistry / TraceCollector. Nothing here reaches into src/.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/registry.h"
#include "src/workload/workload.h"

namespace perfbench {

// A named workload: a scenario derived from L1 plus the node store setting
// the workload varies. Seeded inputs: the same seed gives the same traffic,
// miners and chain.
struct WorkloadSpec {
  std::string name;
  frn::ScenarioConfig config;
  size_t hot_set_capacity = 0;  // KvStore hot set of both nodes
};

// Returns false for an unknown workload name.
bool MakeWorkload(const std::string& name, uint64_t seed, WorkloadSpec* out);

// Everything one DiceSimulator::Run consumes. DiceSimulator::Run draws from
// the emulator's own RNG, so every run gets a fresh Setup; the inputs are a
// pure function of the seed, so every Setup of one spec is identical.
class Setup {
 public:
  explicit Setup(const WorkloadSpec& spec);
  // Genesis() hands out a callback bound to this object.
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  frn::NodeOptions Options(frn::ExecStrategy strategy, size_t spec_workers) const;
  std::function<void(frn::StateDb*)> Genesis() const;
  std::unique_ptr<frn::Node> MakeNode(frn::ExecStrategy strategy, size_t spec_workers) const;

  frn::DiceSimulator& sim() { return sim_; }

 private:
  WorkloadSpec spec_;
  frn::Workload workload_;
  frn::DiceSimulator sim_;
};

// Forerunner speculation workers: min(4, hardware threads).
size_t ForerunnerWorkers();

// Counters and seconds accumulated between two registry snapshots: the
// registry is process-global, so a diff around a one-node run attributes the
// instruments to that node.
struct RegistryDiff {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> seconds;

  uint64_t Count(const std::string& name) const;
  double Seconds(const std::string& name) const;
};
RegistryDiff Diff(const frn::MetricsSnapshot& before, const frn::MetricsSnapshot& after);

// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Main-chain records of one node (fork-block records dropped).
std::vector<frn::TxExecRecord> MainChain(const frn::NodeRunStats& node);

// Process peak resident set size in MB.
double PeakRssMb();

// Host-speed probe: seconds of a fixed kernel that calls nothing from src/:
// integer arithmetic on eight independent dependency chains, then dependent
// updates at random slots of a 4 MiB table. Its time follows how much
// of the core and the memory system this process gets on a shared host (a
// busy tenant on the sibling hyperthread or the shared cache, a lower clock),
// while no change to the program can move it.
double HostProbeSeconds();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // sample count behind the value (printed, not in JSON)
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1) {
    metrics.push_back(Metric{name, value, unit, samples});
  }
};

// Prints the metric table and errors, then the one-line JSON result last.
void PrintResult(const Result& result);

// Compares per-transaction outcomes of two nodes over the same chain and
// returns the number of main-chain blocks holding a mismatching record.
uint64_t MismatchedBlocks(const frn::SimReport& report, const frn::NodeRunStats& a,
                          const frn::NodeRunStats& b);

// Backlog guard: a stable pool drains to a small remainder in the four block
// intervals the emulator runs past the last arrival; one that kept growing
// still holds a large share of the traffic, and speculation cost per
// transaction would then measure the backlog instead of the code. Fails
// `result` when more than 5% of the sent transactions are still pending.
void CheckBacklog(const frn::SimReport& report, const frn::NodeRunStats& node, Result* result);

// Modes (main.cc / traced.cc).
Result RunTimed(const WorkloadSpec& spec, double seconds);
Result RunTraced(const WorkloadSpec& spec, double seconds);
Result RunCheck(const WorkloadSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
