// Versioned snapshot store validation bench, five parts:
//
//   scenario — dataset L1 with a store-disabled and a store-enabled
//              forerunner node fed identical traffic under mild fork churn.
//              Gates: bit-identical per-block roots (RequireConsistentRoots),
//              identical counted execution records, the versioned node
//              serving committed-head reads from pinned snapshot handles
//              (versioned_hits > 0, zero invalidations, versions sealed and
//              retained), and at least a 2x reduction in critical-path
//              account-trie reads.
//
//   no-fork  — the same dataset with fork churn off: on a reorg-free chain
//              every view must open covered (view_active) and the store must
//              never refuse a commit (invalidations == 0).
//
//   acquire  — commits a chain of versions, then hammers AcquireAt to price a
//              snapshot-handle acquisition (the cost a speculation lane pays
//              to pin a root). Gate: every retained root acquires successfully.
//
//   commit   — a synthetic many-account commit workload, run sync vs async
//              against cold stores with the modeled 2us read latency. The
//              timed section is the commit CRITICAL PATH only: the
//              synchronous pipeline pays the full trie fold inline, the async
//              pipeline pays dirty-set capture + dispatch and seals the root
//              off-path. Gates: bit-identical per-round roots across
//              trie-only, sync and async (at 1 and 4 commit workers), the
//              async critical path under 0.8x the sync one, and the modeled
//              fold wall (LaneWall of per-job thread-CPU + store latency, the
//              lane model of src/common/lane_pool.h) at least 1.5x lower with
//              4 commit workers than with 1, over the same fold work.
//
//   reorg    — a versioned + async-root node against a plain trie-only node:
//              9 blocks, then for each depth 1..8 roll both nodes back `depth`
//              blocks and re-execute, requiring identical head roots at every
//              step of the sweep. Prices the handle-swap rollback while
//              proving it bit-identical to the reference node.
//
// Exit code 1 if any gate fails. Emits BENCH_versioned_state.json via --json.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/common/lane_pool.h"
#include "src/state/statedb.h"
#include "src/state/versioned_state.h"

using namespace frn;

namespace {

constexpr size_t kCommitWorkers = 4;

struct ScenarioResult {
  bool ok = true;
  uint64_t off_account_reads = 0;
  uint64_t on_account_reads = 0;
  uint64_t on_storage_reads = 0;
  uint64_t off_storage_reads = 0;
  uint64_t versioned_hits = 0;
  uint64_t versioned_misses = 0;
  VersionedStateStats versioned;
  uint64_t blocks = 0;
  uint64_t txs = 0;
};

struct NoForkResult {
  bool ok = true;
  uint64_t blocks = 0;
  uint64_t invalidations = 0;
  bool view_active = false;
};

bool SameRecords(const NodeRunStats& a, const NodeRunStats& b) {
  if (a.records.size() != b.records.size()) {
    return false;
  }
  for (size_t i = 0; i < a.records.size(); ++i) {
    const TxExecRecord& x = a.records[i];
    const TxExecRecord& y = b.records[i];
    if (x.tx_id != y.tx_id || x.gas_used != y.gas_used || x.status != y.status ||
        x.on_fork != y.on_fork) {
      return false;
    }
  }
  return true;
}

ScenarioResult RunScenarioPart() {
  ScenarioConfig cfg = ScenarioByName("L1");
  // Mild fork churn so the store's handle-swap rollbacks are gated too.
  cfg.dice.fork_rate = 0.2;
  cfg.dice.max_fork_depth = 2;
  // Counted statistics, not wall-clock availability, drive the gates.
  NodeTweak versioned_off = [](NodeOptions* o) { o->speculation_time_scale = 0; };
  NodeTweak versioned_on = [](NodeOptions* o) {
    o->speculation_time_scale = 0;
    o->state.versioned = true;
    o->chain.commit_workers = kCommitWorkers;
  };
  ScenarioRun run = RunScenarioWithTweaks(
      cfg,
      {{ExecStrategy::kForerunner, versioned_off},
       {ExecStrategy::kForerunner, versioned_on}},
      /*duration_override=*/60);
  RequireConsistentRoots(run.report);

  const NodeRunStats& off = run.report.nodes[1];
  const NodeRunStats& on = run.report.nodes[2];
  ScenarioResult r;
  r.blocks = run.report.blocks;
  r.txs = run.report.txs_packed;
  r.off_account_reads = off.chain_state.account_trie_reads;
  r.on_account_reads = on.chain_state.account_trie_reads;
  r.off_storage_reads = off.chain_state.storage_trie_reads;
  r.on_storage_reads = on.chain_state.storage_trie_reads;
  r.versioned_hits = on.chain_state.versioned_hits;
  r.versioned_misses = on.chain_state.versioned_misses;
  r.versioned = on.versioned;

  if (!on.versioned_enabled || off.versioned_enabled) {
    std::printf("FAIL: versioned enablement not wired through the node options\n");
    r.ok = false;
  }
  if (!SameRecords(off, on)) {
    std::printf("FAIL: versioned node diverged from store-disabled records\n");
    r.ok = false;
  }
  if (r.versioned_hits == 0) {
    std::printf("FAIL: versioned store never served a committed-head read\n");
    r.ok = false;
  }
  if (r.versioned.invalidations != 0) {
    std::printf("FAIL: versioned store refused a commit over an uncovered parent\n");
    r.ok = false;
  }
  if (r.versioned.commits == 0 || r.versioned.seals == 0 || r.versioned.retained == 0) {
    std::printf("FAIL: no versions were sealed/retained\n");
    r.ok = false;
  }
  // The tentpole gate: committed-head account resolution must shift from trie
  // walks to the version maps, at least halving critical-path account-trie
  // reads.
  if (r.on_account_reads * 2 > r.off_account_reads) {
    std::printf("FAIL: account trie reads %llu -> %llu is under the 2x gate\n",
                static_cast<unsigned long long>(r.off_account_reads),
                static_cast<unsigned long long>(r.on_account_reads));
    r.ok = false;
  }
  return r;
}

NoForkResult RunNoForkPart() {
  ScenarioConfig cfg = ScenarioByName("L1");
  cfg.dice.fork_rate = 0;  // reorg-free chain: coverage must never lapse
  NodeTweak versioned_on = [](NodeOptions* o) {
    o->speculation_time_scale = 0;
    o->state.versioned = true;
  };
  ScenarioRun run = RunScenarioWithTweaks(
      cfg, {{ExecStrategy::kForerunner, versioned_on}}, /*duration_override=*/30);
  RequireConsistentRoots(run.report);

  const NodeRunStats& on = run.report.nodes[1];
  NoForkResult r;
  r.blocks = run.report.blocks;
  r.invalidations = on.versioned.invalidations;
  r.view_active = on.state_view_active;
  if (r.invalidations != 0) {
    std::printf("FAIL: %llu invalidations on a no-fork chain\n",
                static_cast<unsigned long long>(r.invalidations));
    r.ok = false;
  }
  if (!r.view_active) {
    std::printf("FAIL: head view not pinned to a snapshot handle at end of run\n");
    r.ok = false;
  }
  return r;
}

struct AcquireResult {
  bool ok = true;
  size_t versions = 0;
  uint64_t acquires = 0;
  double ns_per_acquire = 0;
};

AcquireResult RunAcquirePart() {
  KvStore store;
  Mpt trie(&store);
  VersionedState versioned(/*retention=*/8);
  Hash root = Mpt::EmptyRoot();
  std::vector<Hash> roots;
  for (uint64_t n = 0; n < 8; ++n) {
    StateDb db(&trie, root, nullptr, &versioned);
    for (uint64_t a = 0; a < 16; ++a) {
      db.AddBalance(Address::FromId(a + 1), U256(n + 1));
      db.SetStorage(Address::FromId(a + 1), U256(n), U256(a + n + 1));
    }
    root = db.Commit();
    roots.push_back(root);
  }

  AcquireResult r;
  r.versions = roots.size();
  constexpr uint64_t kIters = 200'000;
  uint64_t valid = 0;
  Stopwatch timer;
  for (uint64_t i = 0; i < kIters; ++i) {
    SnapshotHandle h = versioned.AcquireAt(roots[i % roots.size()]);
    valid += h.valid() ? 1 : 0;
  }
  double elapsed = timer.ElapsedSeconds();
  r.acquires = kIters;
  r.ns_per_acquire = elapsed * 1e9 / static_cast<double>(kIters);
  if (valid != kIters) {
    std::printf("FAIL: %llu of %llu acquires missed a retained root\n",
                static_cast<unsigned long long>(kIters - valid),
                static_cast<unsigned long long>(kIters));
    r.ok = false;
  }
  return r;
}

struct CommitConfigRun {
  std::vector<Hash> roots;          // per-round post-commit roots
  double critical_path_seconds = 0; // summed timed sections (see header comment)
  double seal_wait_seconds = 0;     // async only: time spent awaiting the root
  double fold_serial_seconds = 0;   // modeled: sum of per-job cpu+latency costs
  double fold_wall_seconds = 0;     // modeled: LaneWall per commit, summed
};

// `mode`: 0 = trie-only (no versioned store), 1 = versioned sync commit,
// 2 = versioned async commit (critical path = dirty-set capture + dispatch).
CommitConfigRun RunCommitConfig(int mode, size_t workers, size_t n_accounts,
                                size_t n_rounds) {
  KvStore store;  // modeled 2us cold-read latency: what the async path hides
  Mpt trie(&store);
  LanePool pool(workers);
  AsyncLane lane;
  VersionedState versioned(4);
  VersionedState* vs = mode == 0 ? nullptr : &versioned;
  Hash root = Mpt::EmptyRoot();
  {
    StateDb db(&trie, root, nullptr, vs, &pool, &lane);
    for (size_t a = 0; a < n_accounts; ++a) {
      Address addr = Address::FromId(a + 1);
      db.AddBalance(addr, U256(1'000'000));
      for (uint64_t s = 0; s < 48; ++s) {
        db.SetStorage(addr, U256(s), U256(s + 1));
      }
    }
    root = db.Commit();
  }

  CommitConfigRun run;
  for (size_t round = 0; round < n_rounds; ++round) {
    StateDb db(&trie, root, nullptr, vs, &pool, &lane);
    for (size_t a = 0; a < n_accounts; ++a) {
      Address addr = Address::FromId(a + 1);
      db.AddBalance(addr, U256(1));
      for (uint64_t s = 0; s < 8; ++s) {
        db.SetStorage(addr, U256((round * 8 + s) % 48), U256(round * 100 + s));
      }
    }
    // Every commit starts against a cold store, so the fold pays the modeled
    // read latency — inline for sync, on the background thread for async.
    store.CoolAll();
    if (mode == 2) {
      Stopwatch cp;
      RootFuture future = db.CommitAsync();
      run.critical_path_seconds += cp.ElapsedSeconds();
      Stopwatch seal;
      root = future.Wait();
      run.seal_wait_seconds += seal.ElapsedSeconds();
    } else {
      Stopwatch cp;
      root = db.Commit();
      run.critical_path_seconds += cp.ElapsedSeconds();
    }
    run.fold_serial_seconds += db.commit_stats().fold_serial_seconds;
    run.fold_wall_seconds += db.commit_stats().fold_wall_seconds;
    run.roots.push_back(root);
  }
  return run;
}

struct CommitResult {
  bool ok = true;
  CommitConfigRun trie_only;
  CommitConfigRun sync1;
  CommitConfigRun sync4;
  CommitConfigRun async1;
  CommitConfigRun async4;
  double cp_reduction = 0;  // async4 critical path / sync4 critical path
  double fold_speedup = 0;  // modeled fold wall, sync w1 / sync w4
  size_t accounts = 0;
  size_t rounds = 0;
};

CommitResult RunCommitPart() {
  CommitResult r;
  r.accounts = 192;
  r.rounds = 3;
  r.trie_only = RunCommitConfig(0, 1, r.accounts, r.rounds);
  r.sync1 = RunCommitConfig(1, 1, r.accounts, r.rounds);
  r.sync4 = RunCommitConfig(1, kCommitWorkers, r.accounts, r.rounds);
  r.async1 = RunCommitConfig(2, 1, r.accounts, r.rounds);
  r.async4 = RunCommitConfig(2, kCommitWorkers, r.accounts, r.rounds);

  // Bit-identical roots across every pipeline and worker count — the
  // acceptance bar for moving root computation off the critical path.
  for (const CommitConfigRun* c : {&r.sync1, &r.sync4, &r.async1, &r.async4}) {
    if (c->roots != r.trie_only.roots) {
      std::printf("FAIL: a versioned commit pipeline diverged from trie-only roots\n");
      r.ok = false;
      break;
    }
  }
  r.cp_reduction = r.sync4.critical_path_seconds > 0
                       ? r.async4.critical_path_seconds / r.sync4.critical_path_seconds
                       : 1.0;
  if (r.cp_reduction >= 0.8) {
    std::printf("FAIL: async critical path is %.2fx of sync (gate < 0.8x)\n",
                r.cp_reduction);
    r.ok = false;
  }
  // Gate on the modeled fold wall: it is what a host with >= kCommitWorkers
  // idle cores saves, and unlike the stopwatch it is not inflated away on a
  // core-starved CI machine where spinning workers merely timeshare.
  r.fold_speedup = r.sync4.fold_wall_seconds > 0
                       ? r.sync1.fold_wall_seconds / r.sync4.fold_wall_seconds
                       : 0;
  if (r.fold_speedup < 1.5) {
    std::printf("FAIL: modeled fold speedup %.2fx with %zu workers is under the gate\n",
                r.fold_speedup, kCommitWorkers);
    r.ok = false;
  }
  // Sanity: both configs measured the same amount of fold work (the modeled
  // serial sums must agree within timesharing noise).
  double work_ratio = r.sync4.fold_serial_seconds > 0
                          ? r.sync1.fold_serial_seconds / r.sync4.fold_serial_seconds
                          : 0;
  if (work_ratio < 0.5 || work_ratio > 2.0) {
    std::printf("FAIL: fold work diverged between configs (ratio %.2f)\n", work_ratio);
    r.ok = false;
  }
  return r;
}

struct ReorgDepthRow {
  size_t depth = 0;
  bool roots_match = false;
  double rollback_seconds = 0;  // both nodes' rollbacks, dominated by the plain node
};

struct ReorgResult {
  bool ok = true;
  std::vector<ReorgDepthRow> rows;
  uint64_t invalidations = 0;
};

ReorgResult RunReorgPart() {
  NodeOptions plain_options;
  plain_options.store.cold_read_latency = std::chrono::nanoseconds(0);
  plain_options.speculation_time_scale = 0;
  plain_options.chain.max_reorg_depth = 8;
  NodeOptions versioned_options = plain_options;
  versioned_options.state.versioned = true;
  versioned_options.chain.root_async = true;
  versioned_options.chain.commit_workers = 2;

  Address sender = Address::FromId(1);
  auto genesis = [&](StateDb* state) {
    state->AddBalance(sender, U256::Exp(U256(10), U256(21)));
  };
  Node plain(plain_options, genesis);
  Node versioned(versioned_options, genesis);

  auto make_block = [&](uint64_t number) {
    Transaction tx;
    tx.id = number;
    tx.sender = sender;
    tx.to = Address::FromId(2);
    tx.value = U256(5);
    tx.nonce = number - 1;
    tx.gas_limit = 30'000;
    tx.gas_price = U256(1'000'000'000);
    Block block;
    block.header.number = number;
    block.header.timestamp = 1'700'000'000 + number * 13;
    block.txs = {tx};
    return block;
  };

  ReorgResult r;
  std::vector<Block> blocks;
  for (uint64_t n = 1; n <= 9; ++n) {
    blocks.push_back(make_block(n));
  }
  auto execute_all = [&](uint64_t from) {
    bool match = true;
    for (uint64_t n = from; n <= 9; ++n) {
      Hash a = plain.ExecuteBlock(blocks[n - 1], 13.0 * n).state_root;
      Hash b = versioned.ExecuteBlock(blocks[n - 1], 13.0 * n).state_root;
      match = match && a == b;
    }
    return match;
  };
  if (!execute_all(1)) {
    std::printf("FAIL: initial 9-block build diverged\n");
    r.ok = false;
  }

  for (size_t depth = 1; depth <= 8; ++depth) {
    ReorgDepthRow row;
    row.depth = depth;
    Stopwatch timer;
    for (size_t d = 0; d < depth; ++d) {
      plain.RollbackHead();
      versioned.RollbackHead();
    }
    row.rollback_seconds = timer.ElapsedSeconds();
    row.roots_match = plain.head_root() == versioned.head_root() &&
                      execute_all(9 - depth + 1) &&
                      plain.head_root() == versioned.head_root();
    if (!row.roots_match) {
      std::printf("FAIL: depth-%zu rollback + re-execution diverged\n", depth);
      r.ok = false;
    }
    r.rows.push_back(row);
  }
  r.invalidations = versioned.versioned_stats().invalidations;
  if (r.invalidations != 0) {
    std::printf("FAIL: %llu invalidations during the reorg sweep\n",
                static_cast<unsigned long long>(r.invalidations));
    r.ok = false;
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  std::printf("=== Versioned store: read path, no-fork, acquire cost, commit path, "
              "reorg sweep ===\n");

  ScenarioResult scenario = RunScenarioPart();
  std::printf("scenario L1: %llu blocks, %llu txs\n",
              static_cast<unsigned long long>(scenario.blocks),
              static_cast<unsigned long long>(scenario.txs));
  if (scenario.on_account_reads > 0) {
    std::printf("  account trie reads: store off %llu, store on %llu (%.1fx fewer)\n",
                static_cast<unsigned long long>(scenario.off_account_reads),
                static_cast<unsigned long long>(scenario.on_account_reads),
                static_cast<double>(scenario.off_account_reads) /
                    static_cast<double>(scenario.on_account_reads));
  } else {
    std::printf("  account trie reads: store off %llu, store on 0 (all served versioned)\n",
                static_cast<unsigned long long>(scenario.off_account_reads));
  }
  std::printf("  storage trie reads: store off %llu, store on %llu\n",
              static_cast<unsigned long long>(scenario.off_storage_reads),
              static_cast<unsigned long long>(scenario.on_storage_reads));
  std::printf("  versioned: hits %llu, misses %llu, seals %llu, retained %zu, "
              "folds %llu, deferrals %llu\n",
              static_cast<unsigned long long>(scenario.versioned_hits),
              static_cast<unsigned long long>(scenario.versioned_misses),
              static_cast<unsigned long long>(scenario.versioned.seals),
              scenario.versioned.retained,
              static_cast<unsigned long long>(scenario.versioned.folds),
              static_cast<unsigned long long>(scenario.versioned.fold_deferrals));

  NoForkResult no_fork = RunNoForkPart();
  std::printf("no-fork: %llu blocks, invalidations %llu, view_active %s\n",
              static_cast<unsigned long long>(no_fork.blocks),
              static_cast<unsigned long long>(no_fork.invalidations),
              no_fork.view_active ? "yes" : "no");

  AcquireResult acquire = RunAcquirePart();
  std::printf("acquire: %llu acquisitions over %zu versions, %.1f ns each\n",
              static_cast<unsigned long long>(acquire.acquires), acquire.versions,
              acquire.ns_per_acquire);

  CommitResult commit = RunCommitPart();
  std::printf("commit (%zu accounts, %zu rounds) critical path:\n", commit.accounts,
              commit.rounds);
  std::printf("  trie-only %.3fms | sync w1 %.3fms w4 %.3fms | async w1 %.3fms "
              "w4 %.3fms (%.2fx of sync w4; seal wait %.3fms)\n",
              commit.trie_only.critical_path_seconds * 1e3,
              commit.sync1.critical_path_seconds * 1e3,
              commit.sync4.critical_path_seconds * 1e3,
              commit.async1.critical_path_seconds * 1e3,
              commit.async4.critical_path_seconds * 1e3, commit.cp_reduction,
              commit.async4.seal_wait_seconds * 1e3);
  std::printf("  modeled fold wall: sync w1 %.3fms -> w%zu %.3fms (%.2fx)\n",
              commit.sync1.fold_wall_seconds * 1e3, kCommitWorkers,
              commit.sync4.fold_wall_seconds * 1e3, commit.fold_speedup);

  ReorgResult reorg = RunReorgPart();
  for (const ReorgDepthRow& row : reorg.rows) {
    std::printf("reorg depth %zu: roots %s, rollback %.3fms\n", row.depth,
                row.roots_match ? "identical" : "DIVERGED",
                row.rollback_seconds * 1e3);
  }

  JsonValue payload = JsonValue::Object();
  JsonValue scenario_json = JsonValue::Object();
  scenario_json.Set("blocks", static_cast<uint64_t>(scenario.blocks));
  scenario_json.Set("txs", static_cast<uint64_t>(scenario.txs));
  scenario_json.Set("account_trie_reads_versioned_off", scenario.off_account_reads);
  scenario_json.Set("account_trie_reads_versioned_on", scenario.on_account_reads);
  scenario_json.Set("storage_trie_reads_versioned_off", scenario.off_storage_reads);
  scenario_json.Set("storage_trie_reads_versioned_on", scenario.on_storage_reads);
  scenario_json.Set("versioned_hits", scenario.versioned_hits);
  scenario_json.Set("versioned_misses", scenario.versioned_misses);
  scenario_json.Set("seals", scenario.versioned.seals);
  scenario_json.Set("folds", scenario.versioned.folds);
  scenario_json.Set("fold_deferrals", scenario.versioned.fold_deferrals);
  scenario_json.Set("retained", static_cast<uint64_t>(scenario.versioned.retained));
  scenario_json.Set("ok", scenario.ok);
  payload.Set("scenario", scenario_json);
  JsonValue no_fork_json = JsonValue::Object();
  no_fork_json.Set("blocks", static_cast<uint64_t>(no_fork.blocks));
  no_fork_json.Set("invalidations", no_fork.invalidations);
  no_fork_json.Set("view_active", no_fork.view_active);
  no_fork_json.Set("ok", no_fork.ok);
  payload.Set("no_fork", no_fork_json);
  JsonValue acquire_json = JsonValue::Object();
  acquire_json.Set("versions", static_cast<uint64_t>(acquire.versions));
  acquire_json.Set("acquires", acquire.acquires);
  acquire_json.Set("ns_per_acquire", acquire.ns_per_acquire);
  acquire_json.Set("ok", acquire.ok);
  payload.Set("acquire", acquire_json);
  JsonValue commit_json = JsonValue::Object();
  commit_json.Set("accounts", static_cast<uint64_t>(commit.accounts));
  commit_json.Set("rounds", static_cast<uint64_t>(commit.rounds));
  commit_json.Set("trie_only_cp_seconds", commit.trie_only.critical_path_seconds);
  commit_json.Set("sync_w1_cp_seconds", commit.sync1.critical_path_seconds);
  commit_json.Set("sync_w4_cp_seconds", commit.sync4.critical_path_seconds);
  commit_json.Set("async_w1_cp_seconds", commit.async1.critical_path_seconds);
  commit_json.Set("async_w4_cp_seconds", commit.async4.critical_path_seconds);
  commit_json.Set("async_w4_seal_wait_seconds", commit.async4.seal_wait_seconds);
  commit_json.Set("cp_reduction", commit.cp_reduction);
  commit_json.Set("workers", static_cast<uint64_t>(kCommitWorkers));
  commit_json.Set("fold_wall_w1_seconds", commit.sync1.fold_wall_seconds);
  commit_json.Set("fold_wall_w4_seconds", commit.sync4.fold_wall_seconds);
  commit_json.Set("fold_serial_work_seconds", commit.sync1.fold_serial_seconds);
  commit_json.Set("fold_speedup", commit.fold_speedup);
  commit_json.Set("ok", commit.ok);
  payload.Set("commit", commit_json);
  JsonValue reorg_json = JsonValue::Object();
  JsonValue rows = JsonValue::Array();
  for (const ReorgDepthRow& row : reorg.rows) {
    JsonValue rj = JsonValue::Object();
    rj.Set("depth", static_cast<uint64_t>(row.depth));
    rj.Set("roots_match", row.roots_match);
    rj.Set("rollback_seconds", row.rollback_seconds);
    rows.Append(std::move(rj));
  }
  reorg_json.Set("rows", std::move(rows));
  reorg_json.Set("invalidations", reorg.invalidations);
  reorg_json.Set("ok", reorg.ok);
  payload.Set("reorg", reorg_json);

  bool ok = scenario.ok && no_fork.ok && acquire.ok && commit.ok && reorg.ok;
  if (!FinishObservability(args, "versioned_state", payload)) {
    ok = false;
  }
  std::printf(ok ? "PASS: all versioned-state gates held\n"
                 : "FAIL: versioned-state gates violated\n");
  return ok ? 0 : 1;
}
