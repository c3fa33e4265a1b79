#include "src/serve/snapshot_registry.h"

#include <algorithm>
#include <utility>

#include "src/index/rr_sketch_pool.h"
#include "src/obs/trace.h"
#include "src/util/check.h"
#include "src/util/failpoint.h"

namespace pitex {

std::shared_ptr<const IndexSnapshot> IndexSnapshot::Wrap(
    const SocialNetwork* network, std::unique_ptr<RrIndex> rr_index,
    std::string delay_snapshot, uint64_t epoch) {
  PITEX_CHECK(network != nullptr);
  auto snapshot = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
  // Non-owning alias: the control block holds nothing, the pointer is
  // the caller's network (which outlives the snapshot by contract).
  snapshot->network_ =
      std::shared_ptr<const SocialNetwork>(std::shared_ptr<void>(), network);
  snapshot->rr_index_ = std::move(rr_index);
  snapshot->delay_snapshot_ = std::move(delay_snapshot);
  snapshot->epoch_ = epoch;
  return snapshot;
}

std::shared_ptr<const IndexSnapshot> IndexSnapshot::FromDynamic(
    const DynamicRrIndex& master, uint64_t epoch,
    const IndexSnapshot* previous) {
  // Chaos hook: a freeze that "fails" before any work models the
  // transient failures (allocation pressure, a lost race) a real
  // publish path must survive. Callers treat nullptr as a retryable
  // error (PitexService::FreezeSnapshotLocked backs off and retries).
  if (PITEX_FAILPOINT("serve/publish_freeze")) return nullptr;
  // The pack span attributes to whichever trace is current on this
  // thread (the publish trace during ApplyUpdates); with no current
  // trace the span is inert.
  PITEX_SPAN(kPack);
  auto snapshot = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
  // The network must live in the snapshot (stable address) before the
  // RrIndex replica can reference it. Copying it shares the topology and
  // every edge-topic chunk with the master.
  auto network = std::make_shared<const SocialNetwork>(master.network());
  const size_t num_vertices = network->num_vertices();
  snapshot->rr_index_ = RrIndex::FromPool(*network, master.options(),
                                          master.theta(), master.Pack());
  snapshot->network_ = std::move(network);
  snapshot->epoch_ = epoch;
  const RrSketchPool& pool = snapshot->rr_index_->pool();
  const InfluenceGraph& influence = snapshot->network_->influence;
  if (previous == nullptr) {
    snapshot->bytes_copied_ = pool.SizeBytes() + influence.SizeBytes();
    return snapshot;
  }
  PITEX_CHECK_MSG(previous->epoch_ < epoch, "snapshot epochs must increase");
  snapshot->bytes_copied_ =
      pool.BytesNotSharedWith(previous->rr_index_->pool()) +
      influence.BytesNotSharedWith(previous->network_->influence);
  // Carry the map forward block by block: a block holding a dirty vertex
  // is copied once and stamped, every other block is shared. A previous
  // snapshot without a map (every vertex dirtied at its epoch) lends one
  // uniform block to every slot.
  if (previous->dirtied_at_.empty()) {
    auto uniform = std::make_shared<DirtyBlock>();
    uniform->fill(previous->epoch_);
    snapshot->bytes_copied_ += sizeof(DirtyBlock);
    snapshot->dirtied_at_.assign(
        (num_vertices + kDirtyBlockVertices - 1) / kDirtyBlockVertices,
        std::move(uniform));
  } else {
    snapshot->dirtied_at_ = previous->dirtied_at_;
  }
  std::vector<std::shared_ptr<DirtyBlock>> copied(
      snapshot->dirtied_at_.size());
  for (const VertexId v : master.dirty_vertices()) {
    const size_t b = v / kDirtyBlockVertices;
    if (copied[b] == nullptr) {
      copied[b] = std::make_shared<DirtyBlock>(*snapshot->dirtied_at_[b]);
      snapshot->dirtied_at_[b] = copied[b];
      snapshot->bytes_copied_ += sizeof(DirtyBlock);
    }
    (*copied[b])[v % kDirtyBlockVertices] = epoch;
  }
  return snapshot;
}

void IndexSnapshotRegistry::Publish(
    std::shared_ptr<const IndexSnapshot> snapshot) {
  PITEX_CHECK(snapshot != nullptr);
  // Declared before the lock, so an unpinned displaced snapshot (its
  // ~1100 chunk releases) is freed after the lock is released, not
  // under the mutex Current() takes.
  std::shared_ptr<const IndexSnapshot> displaced;
  MutexLock lock(mutex_);
  if (current_ != nullptr) {
    PITEX_CHECK_MSG(snapshot->epoch() > current_->epoch(),
                    "published epoch must increase");
    PruneRetiredLocked();
    retired_.push_back(current_);
  }
  displaced = std::exchange(current_, std::move(snapshot));
  ++epochs_published_;
}

std::shared_ptr<const IndexSnapshot> IndexSnapshotRegistry::Current() const {
  MutexLock lock(mutex_);
  return current_;
}

uint64_t IndexSnapshotRegistry::current_epoch() const {
  MutexLock lock(mutex_);
  return current_ == nullptr ? 0 : current_->epoch();
}

uint64_t IndexSnapshotRegistry::epochs_published() const {
  MutexLock lock(mutex_);
  return epochs_published_;
}

void IndexSnapshotRegistry::PruneRetiredLocked() {
  std::erase_if(retired_, [](const std::weak_ptr<const IndexSnapshot>& w) {
    return w.expired();
  });
}

size_t IndexSnapshotRegistry::AliveSnapshots() {
  MutexLock lock(mutex_);
  PruneRetiredLocked();
  return retired_.size();
}

}  // namespace pitex
