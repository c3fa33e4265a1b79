// Immutable, refcounted index snapshots with atomic hot swap.
//
// The serving layer must answer queries while the underlying index
// evolves (DynamicRrIndex repairs as the influence model drifts). The
// classic lock answer — a reader/writer lock around the index — stalls
// every in-flight query for the duration of a repair batch. Instead the
// registry versions the index into immutable *snapshots*:
//
//   * an IndexSnapshot is a frozen (network, RrIndex replica) pair
//     stamped with a monotonically increasing epoch. It is never mutated
//     after construction, so any number of workers read it without
//     synchronization (RrIndex estimation is const + per-thread scratch);
//   * repairs run on the writer's private master DynamicRrIndex — a
//     shadow copy no reader ever sees — and publishing freezes the master
//     into a fresh snapshot and swaps the registry's current pointer
//     under a mutex held for nanoseconds, not for the repair;
//   * a freeze copies only what changed: the snapshot's network shares
//     the master's topology and unchanged edge-topic chunks, and its
//     pool shares every sketch and containing chunk the batches since
//     the last freeze left alone (DynamicRrIndex::Pack). Snapshots still
//     pinned by readers share those chunks too, so old epochs cost only
//     the chunks that differ;
//   * each snapshot carries a dirty-user map (DirtiedAt): per vertex, the
//     latest epoch at which its answers may have changed. Readers keep
//     every per-user result computed at an epoch no older than that --
//     cached answers (ResultCache) and per-user engine state
//     (PitexEngine::Rebind) -- so a publish invalidates only the users
//     its batch touched, not the whole read side;
//   * reclamation is refcount-by-epoch: each query pins the snapshot it
//     started on via shared_ptr, so an old epoch stays alive exactly
//     until its last in-flight reader finishes, then frees itself. The
//     registry keeps weak observers of retired epochs purely for
//     stats/tests (AliveSnapshots).
//
// The registry stores snapshots only; the writer-side master and the
// publish cadence live in PitexService (src/serve/pitex_service.h).

#ifndef PITEX_SRC_SERVE_SNAPSHOT_REGISTRY_H_
#define PITEX_SRC_SERVE_SNAPSHOT_REGISTRY_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/index/dynamic_index.h"
#include "src/index/rr_index.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// One immutable serving version of the index. Workers bind engine
/// replicas to a snapshot's network + index and keep a shared_ptr pin
/// for as long as any engine references it.
class IndexSnapshot {
 public:
  /// Frozen copy of the influence model the index was sampled from
  /// (sharing storage with the master and older snapshots); posterior
  /// probabilities for queries served from this snapshot must be
  /// computed against it.
  const SocialNetwork& network() const { return *network_; }
  /// Shared RR-Graph replica (kIndexEst / kIndexEstPlus), else null.
  /// Read-only after build; safe for concurrent engines (see
  /// PitexEngine::UseSharedRrIndex).
  RrIndex* rr_index() const { return rr_index_.get(); }
  /// Serialized DelayMat prototype (kDelayMat), hydrated per worker via
  /// LoadDelayMatIndex; empty otherwise.
  const std::string& delay_snapshot() const { return delay_snapshot_; }
  uint64_t epoch() const { return epoch_; }

  /// The latest epoch at or before epoch() at which u's answers may have
  /// changed: an answer for u computed at any epoch in [DirtiedAt(u),
  /// epoch()] equals the one this snapshot gives. A snapshot with no
  /// predecessor (the first publish, recovery, Wrap) reports its own
  /// epoch for every vertex.
  uint64_t DirtiedAt(VertexId u) const {
    if (dirtied_at_.empty()) return epoch_;
    return (*dirtied_at_[u / kDirtyBlockVertices])[u % kDirtyBlockVertices];
  }

  /// Bytes of the sketch, containing, edge-topic and dirty-map chunks
  /// this snapshot does not share with the `previous` it was frozen
  /// against (all of them without one): what its publish newly created.
  size_t bytes_copied() const { return bytes_copied_; }

  /// Aliases `network` without copying (initial snapshot on a caller-
  /// owned network; `network` must outlive the snapshot). `rr_index` may
  /// be null for online methods.
  static std::shared_ptr<const IndexSnapshot> Wrap(
      const SocialNetwork* network, std::unique_ptr<RrIndex> rr_index,
      std::string delay_snapshot, uint64_t epoch);

  /// Freezes the master's current state: a network copy that shares the
  /// master's topology and edge-topic chunks, and an immutable pooled
  /// RrIndex replica (RrIndex::FromPool) over DynamicRrIndex::Pack(),
  /// which re-packs only the chunks dirtied since the master's last
  /// freeze. This is the publish path for serve-during-update.
  ///
  /// Returns nullptr when the freeze fails — today only via the
  /// "serve/publish_freeze" fail point (src/util/failpoint.h), standing
  /// in for the transient failures a real publish path must survive.
  /// Callers must treat nullptr as retryable (see
  /// PitexService::ApplyUpdates for the retry/backoff policy); the
  /// master's dirty chunks then stay dirty for the next freeze.
  ///
  /// `previous` is the snapshot (itself frozen by FromDynamic) the
  /// master's dirty set (DynamicRrIndex::dirty_vertices) accumulated
  /// since: its DirtiedAt
  /// map is carried forward with the dirty vertices stamped `epoch`,
  /// sharing every block that holds no dirty vertex. Null marks every
  /// vertex dirtied at `epoch`. The caller clears the master's dirty set
  /// once the snapshot is published.
  static std::shared_ptr<const IndexSnapshot> FromDynamic(
      const DynamicRrIndex& master, uint64_t epoch,
      const IndexSnapshot* previous = nullptr);

 private:
  IndexSnapshot() = default;

  std::shared_ptr<const SocialNetwork> network_;
  std::unique_ptr<RrIndex> rr_index_;
  std::string delay_snapshot_;
  static constexpr size_t kDirtyBlockVertices = 256;
  using DirtyBlock = std::array<uint64_t, kDirtyBlockVertices>;

  uint64_t epoch_ = 0;
  // DirtiedAt per vertex in immutable blocks of kDirtyBlockVertices
  // vertices, shared with the previous snapshot where no vertex changed;
  // empty = every vertex dirtied at epoch_.
  std::vector<std::shared_ptr<const DirtyBlock>> dirtied_at_;
  size_t bytes_copied_ = 0;
};

class IndexSnapshotRegistry {
 public:
  IndexSnapshotRegistry() = default;

  IndexSnapshotRegistry(const IndexSnapshotRegistry&) = delete;
  IndexSnapshotRegistry& operator=(const IndexSnapshotRegistry&) = delete;

  /// Atomically makes `snapshot` the version new queries are served
  /// from. Its epoch must exceed the current one. In-flight readers of
  /// older snapshots are unaffected; the displaced snapshot is retired
  /// and reclaimed when its last reader unpins it -- when no reader
  /// pins it, before Publish returns, but after the lock is released.
  /// Expired observers of retired epochs are pruned on every publish.
  void Publish(std::shared_ptr<const IndexSnapshot> snapshot)
      PITEX_EXCLUDES(mutex_);

  /// The snapshot new queries should pin, or null before first Publish.
  std::shared_ptr<const IndexSnapshot> Current() const PITEX_EXCLUDES(mutex_);

  /// Epoch of the current snapshot (0 before first Publish).
  uint64_t current_epoch() const PITEX_EXCLUDES(mutex_);
  uint64_t epochs_published() const PITEX_EXCLUDES(mutex_);

  /// Retired snapshots still pinned by in-flight readers. Expired
  /// observers are pruned as a side effect (epoch-based reclamation is
  /// the shared_ptr refcount; this is the observability hook).
  size_t AliveSnapshots() PITEX_EXCLUDES(mutex_);

 private:
  void PruneRetiredLocked() PITEX_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::shared_ptr<const IndexSnapshot> current_ PITEX_GUARDED_BY(mutex_);
  std::vector<std::weak_ptr<const IndexSnapshot>> retired_
      PITEX_GUARDED_BY(mutex_);
  uint64_t epochs_published_ PITEX_GUARDED_BY(mutex_) = 0;
};

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_SNAPSHOT_REGISTRY_H_
