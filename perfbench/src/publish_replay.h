// Replays a sequence of update batches on the publish-path layers
// directly, in the order PitexService::ApplyUpdates calls them, with a
// benchmark span around each call: WAL append and sync, dynamic-index
// repair, snapshot freeze, registry swap, and checkpoint on the service's
// cadence.
//
// The replayed master starts from the same build as a fresh durable
// service and applies the same batches, so its snapshot at epoch e equals
// the service's: engine() binds the per-epoch reference the correctness
// checks solve against, as every serving worker binds on its next query.

#ifndef PERFBENCH_SRC_PUBLISH_REPLAY_H_
#define PERFBENCH_SRC_PUBLISH_REPLAY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "harness.h"
#include "src/index/dynamic_index.h"
#include "src/serve/pitex_service.h"
#include "src/serve/snapshot_registry.h"
#include "src/serve/wal.h"

namespace perfbench {

class PublishReplay {
 public:
  /// `options` are the service's (engine, WAL, checkpoint cadence); `dir`
  /// is a fresh directory for the replay's own log and checkpoints. With
  /// `ledger`, every Apply replays the whole publish path under spans.
  /// Without it, Apply only repairs the master and engine() freezes on
  /// demand: the cheaper path a correctness check that visits a few
  /// epochs needs. engine() binds under a "core.engine_bind" span.
  PublishReplay(const pitex::SocialNetwork& network,
                const pitex::ServeOptions& options, std::string dir,
                SpanLog* spans, bool ledger);

  /// One publish of `batch`, recorded under request id `request`.
  void Apply(std::span<const pitex::EdgeInfluenceUpdate> batch,
             uint64_t request);

  uint64_t epoch() const { return epoch_; }
  /// Engine bound to the snapshot of epoch().
  pitex::PitexEngine& engine();

 private:
  pitex::ServeOptions options_;
  std::string dir_;
  SpanLog* spans_;
  bool ledger_;
  uint64_t epoch_ = 1;
  std::unique_ptr<pitex::DynamicRrIndex> master_;
  std::unique_ptr<pitex::WriteAheadLog> wal_;
  pitex::IndexSnapshotRegistry registry_;
  std::shared_ptr<const pitex::IndexSnapshot> snapshot_;
  std::unique_ptr<pitex::PitexEngine> engine_;
  uint64_t engine_epoch_ = 0;
  std::vector<pitex::EdgeId> touched_;
  uint64_t publishes_since_checkpoint_ = 0;
};

/// Replays the shipping path of `batches` on the replication layers
/// directly: the batches go into a fresh log (untimed), then a
/// shipper-style read of the committed log, the record codec and the
/// follower-side apply on a replica service of its own run under spans
/// (wal.read_after, repl.encode, repl.decode, repl.follower_apply). The
/// replica does not checkpoint, so the log is what it replays.
void ReplayShipping(
    const pitex::SocialNetwork& network, const pitex::ServeOptions& options,
    const std::vector<std::vector<pitex::EdgeInfluenceUpdate>>& batches,
    RunContext* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PUBLISH_REPLAY_H_
