#include "src/forerunner/chain_manager.h"

#include "src/common/clock.h"
#include "src/obs/registry.h"

namespace frn {

ChainManager::ChainManager(Mpt* trie, SharedStateCache* shared_cache,
                           const ChainManagerOptions& options, VersionedState* versioned)
    : options_(options),
      trie_(trie),
      shared_cache_(shared_cache),
      versioned_(versioned),
      fold_pool_(options.commit_workers) {}

ChainManager::~ChainManager() {
  // An in-flight async commit still touches state_ from the root lane's
  // thread; resolve it before the members are torn down.
  if (pending_root_.valid()) {
    pending_root_.Wait();
  }
}

void ChainManager::ReopenState() {
  SealRoot();  // never retire a state view with its async commit in flight
  if (state_ != nullptr) {
    retired_state_stats_ += state_->stats();
  }
  shared_cache_->Reset(head_root_);
  state_ = std::make_unique<StateDb>(trie_, head_root_, shared_cache_, versioned_,
                                     &fold_pool_, &root_lane_);
  if (versioned_ != nullptr) {
    static Gauge* view_active = MetricsRegistry::Global().GetGauge("state.view_active");
    view_active->Set(state_->view().valid() ? 1.0 : 0.0);
  }
}

void ChainManager::SetGenesis(const Hash& root) {
  head_root_ = root;
  head_ = BlockContext{};
  head_.number = 0;
  head_first_seen_ = 0;
  chain_nonces_.clear();
  undo_.clear();
  ReopenState();
}

StateDbStats ChainManager::cumulative_state_stats() const {
  StateDbStats stats = retired_state_stats_;
  if (state_ != nullptr) {
    stats += state_->stats();
  }
  return stats;
}

void ChainManager::BeginBlock(const Block& block, double first_seen) {
  (void)block;  // the undone block's content arrives later via AttachOrphan
  pending_.parent_root = head_root_;
  pending_.parent_header = head_;
  pending_.parent_nonces = chain_nonces_;
  pending_.parent_first_seen = head_first_seen_;
  pending_.parent_view = state_ != nullptr ? state_->view() : SnapshotHandle{};
  pending_.orphans.clear();
  pending_first_seen_ = first_seen;
}

void ChainManager::CommitState() {
  if (options_.root_async) {
    pending_root_ = state_->CommitAsync();
  } else {
    sealed_root_ = state_->Commit();
  }
}

Hash ChainManager::SealRoot() {
  if (pending_root_.valid()) {
    static SecondsCounter* seal_wait =
        MetricsRegistry::Global().GetSeconds("commit.seal_wait_seconds");
    Stopwatch watch;
    sealed_root_ = pending_root_.Wait();
    seal_wait->Add(watch.ElapsedSeconds());
    pending_root_ = RootFuture{};
  }
  return sealed_root_;
}

void ChainManager::AdvanceHead(const BlockContext& header, const Hash& root) {
  head_ = header;
  head_root_ = root;
  head_first_seen_ = pending_first_seen_;
  ReopenState();
  undo_.push_back(std::move(pending_));
  pending_ = UndoRecord{};
  while (undo_.size() > options_.max_reorg_depth) {
    undo_.pop_front();  // fell off the reorg window; bookkeeping (and the
                        // record's snapshot pin) is released
  }
}

void ChainManager::AttachOrphan(OrphanedTx&& orphan) {
  if (!undo_.empty()) {
    undo_.back().orphans.push_back(std::move(orphan));
  }
}

std::vector<OrphanedTx> ChainManager::RollbackHead() {
  if (undo_.empty()) {
    return {};
  }
  UndoRecord record = std::move(undo_.back());
  undo_.pop_back();
  head_root_ = record.parent_root;
  head_ = record.parent_header;
  head_first_seen_ = record.parent_first_seen;
  chain_nonces_ = std::move(record.parent_nonces);
  // With a versioned store the rollback is a handle swap: record.parent_view
  // has kept the parent version pinned for the whole window, so ReopenState's
  // AcquireAt(parent_root) below is guaranteed to hit; the record (and its
  // pin) is released when this function returns. No diff replay happens, and
  // a rollback deeper than the store's retention merely opens an uncovered
  // view that reads through the persistent trie.
  ReopenState();
  ++rollbacks_;
  return std::move(record.orphans);
}

bool ChainManager::ShouldAdopt(const BranchTip& current, const BranchTip& candidate) {
  if (candidate.height != current.height) {
    return candidate.height > current.height;
  }
  return candidate.first_seen < current.first_seen;
}

}  // namespace frn
