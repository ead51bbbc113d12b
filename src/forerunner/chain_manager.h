// The chain/state lifecycle manager (paper Fig. 3, consensus-to-execution
// boundary): a block history over StateDb roots supporting multi-depth
// reorgs. Because the Merkle-Patricia trie is persistent, every recent root
// stays readable for free; the manager keeps a bounded undo window (root,
// header, nonce map, pinned snapshot handle, and the undone block's orphaned
// transactions) and can walk the head back up to `max_reorg_depth` blocks,
// handing the orphans back for mempool re-injection. With a versioned store
// attached, the undo record's pinned handle keeps the parent version
// acquirable, so a rollback is a handle swap — never a diff replay.
//
// Threading: owned by the node's coordinator thread; speculation workers read
// old roots through the persistent trie (or their own pinned snapshot
// handles) and never touch this object. Under chain.root_async the commit's
// trie folds run on the root lane's thread between CommitState() and
// SealRoot(); the manager guarantees the state view is never retired or
// destroyed with a commit in flight.
#ifndef SRC_FORERUNNER_CHAIN_MANAGER_H_
#define SRC_FORERUNNER_CHAIN_MANAGER_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/common/lane_pool.h"
#include "src/dice/block.h"
#include "src/forerunner/spec_manager.h"
#include "src/state/statedb.h"
#include "src/state/versioned_state.h"

namespace frn {

struct ChainManagerOptions {
  // How many committed blocks can be undone. The window only bounds how much
  // undo history is retained: a single rollback behaves identically at any
  // depth >= 1, so the default deepens the pre-decomposition single-depth
  // support without changing its behaviour.
  size_t max_reorg_depth = 4;
  // Modeled lanes for StateDb::Commit's parallel storage-subtrie folds.
  // 1 (the default) runs the folds inline on the coordinator in the exact
  // serial operation order; any count produces bit-identical roots.
  size_t commit_workers = 1;
  // Modeled lanes for the optimistic intra-block parallel executor
  // (src/forerunner/parallel_exec.h). 1 (the default) executes the block's
  // transactions bit-for-bit serially on the coordinator; any count >1 runs
  // them optimistically with conflict detection and produces identical
  // commit roots — the serial-default guarantee mirrors commit_workers.
  size_t block_workers = 1;
  // Off-critical-path root authentication: CommitState() returns after
  // capturing the block's dirty set, the trie folds run on the root lane's
  // background thread, and SealRoot() awaits the authenticated root at
  // block-seal time. Default off => bit-identical behavior and timing to the
  // synchronous pipeline. Requires a versioned store (silently synchronous
  // without one — there is no covered view to keep readers consistent).
  bool root_async = false;
};

// A transaction orphaned by a rollback: what the mempool and speculation
// manager need to re-admit it.
struct OrphanedTx {
  Transaction tx;
  double heard_at = 0;
  bool heard = false;           // was resident in the mempool when included
  RetiredSpeculation spec;      // parked speculation (retain_across_reorg only)
};

class ChainManager {
 public:
  // `versioned` may be null; when present, every committed block seals a new
  // version in it, every state view pins its root's version, and rollbacks
  // re-acquire the parent version by handle.
  ChainManager(Mpt* trie, SharedStateCache* shared_cache,
               const ChainManagerOptions& options, VersionedState* versioned = nullptr);
  ~ChainManager();

  // Installs the genesis root as the head (block number 0) and opens the
  // execution state view.
  void SetGenesis(const Hash& root);

  StateDb* state() { return state_.get(); }
  const Hash& head_root() const { return head_root_; }
  const BlockContext& head() const { return head_; }
  std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces() {
    return chain_nonces_;
  }
  const std::unordered_map<Address, uint64_t, AddressHasher>& chain_nonces() const {
    return chain_nonces_;
  }

  // Snapshot the pre-block state into a pending undo record. Called at the
  // top of block execution, before any transaction mutates the nonce map.
  void BeginBlock(const Block& block, double first_seen);
  // Commits the execution state; the only chain work inside the measured
  // commit span. Synchronous mode computes the root inline (identical to the
  // pre-decomposition node); root_async mode dispatches the folds and returns
  // immediately.
  void CommitState();
  // The authenticated post-state root. Blocks on the in-flight async commit
  // when root_async dispatched one; otherwise returns the root CommitState
  // already computed. Must be called before AdvanceHead.
  Hash SealRoot();
  // Moves the head (off the measured path): resets the shared cache, reopens
  // the state view, finalizes the pending undo record, and prunes the undo
  // window to max_reorg_depth.
  void AdvanceHead(const BlockContext& header, const Hash& root);
  // Attaches an orphan candidate to the just-advanced block's undo record.
  void AttachOrphan(OrphanedTx&& orphan);

  bool CanRollback() const { return !undo_.empty(); }
  size_t reorg_window() const { return undo_.size(); }
  size_t max_reorg_depth() const { return options_.max_reorg_depth; }
  size_t commit_workers() const { return fold_pool_.lanes(); }
  bool root_async() const { return options_.root_async; }
  uint64_t rollbacks() const { return rollbacks_; }
  // Whether the live state view reads through a pinned snapshot handle (false
  // when no versioned store is attached or its retention missed the root).
  bool view_active() const { return state_ != nullptr && state_->view().valid(); }

  // Critical-path StateDb read attribution, accumulated across the per-block
  // state views this manager has opened (including the live one). This is the
  // per-node view the process-global metrics registry cannot give when
  // several nodes share a process.
  StateDbStats cumulative_state_stats() const;

  // Undoes the most recent block: head root/header/nonces return to the
  // parent, and the undone block's orphans are handed back for re-injection.
  // Call repeatedly for deeper reorgs (up to the retained window).
  std::vector<OrphanedTx> RollbackHead();

  // Fork choice: longest chain wins; equal-height ties go to the branch seen
  // first. (DiCE's scripted winner/rival resolution models the network
  // settling equal-height ties by accumulated weight instead, so its reorgs
  // are driven explicitly; this policy is what a live node would apply.)
  struct BranchTip {
    uint64_t height = 0;
    double first_seen = 0;
  };
  static bool ShouldAdopt(const BranchTip& current, const BranchTip& candidate);
  BranchTip head_tip() const { return BranchTip{head_.number, head_first_seen_}; }

 private:
  struct UndoRecord {
    Hash parent_root;
    BlockContext parent_header;
    std::unordered_map<Address, uint64_t, AddressHasher> parent_nonces;
    double parent_first_seen = 0;
    // Pin on the parent's version: while this record is inside the undo
    // window, the versioned store must be able to serve a rollback to it.
    SnapshotHandle parent_view;
    std::vector<OrphanedTx> orphans;
  };

  void ReopenState();

  ChainManagerOptions options_;
  Mpt* trie_;
  SharedStateCache* shared_cache_;
  VersionedState* versioned_;
  // The fold pool and the root lane outlive the per-block StateDb instances
  // that borrow them; the lane is declared last so it retires first (a
  // pending async commit may still run a fold batch).
  LanePool fold_pool_;
  AsyncLane root_lane_;
  std::unique_ptr<StateDb> state_;
  StateDbStats retired_state_stats_;  // stats of already-replaced state views
  Hash head_root_;
  BlockContext head_;
  double head_first_seen_ = 0;
  std::unordered_map<Address, uint64_t, AddressHasher> chain_nonces_;

  // root_async seal handshake: at most one commit is in flight, between
  // CommitState() and the next SealRoot().
  RootFuture pending_root_;
  Hash sealed_root_;

  UndoRecord pending_;
  double pending_first_seen_ = 0;
  std::deque<UndoRecord> undo_;  // oldest first; back() is the head's parent
  uint64_t rollbacks_ = 0;
};

}  // namespace frn

#endif  // SRC_FORERUNNER_CHAIN_MANAGER_H_
