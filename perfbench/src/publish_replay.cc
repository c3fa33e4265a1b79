#include "publish_replay.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "src/serve/recovery.h"
#include "src/serve/replication.h"

namespace perfbench {

PublishReplay::PublishReplay(const pitex::SocialNetwork& network,
                             const pitex::ServeOptions& options,
                             std::string dir, SpanLog* spans, bool ledger)
    : options_(options), dir_(std::move(dir)), spans_(spans), ledger_(ledger) {
  pitex::RrIndexOptions index_options;
  index_options.eps = options_.engine.eps;
  index_options.delta = options_.engine.delta;
  index_options.cap_k = options_.engine.index_cap_k;
  index_options.theta_per_vertex = options_.engine.index_theta_per_vertex;
  index_options.max_theta = options_.engine.index_max_theta;
  index_options.seed = options_.engine.seed;
  master_ = std::make_unique<pitex::DynamicRrIndex>(network, index_options);
  master_->Build();
  if (ledger_) {
    std::filesystem::create_directories(dir_);
    std::string error;
    wal_ = pitex::WriteAheadLog::Open(dir_, 1, options_.wal, &error);
    if (wal_ == nullptr) throw std::runtime_error("replay WAL: " + error);
  }
  snapshot_ = pitex::IndexSnapshot::FromDynamic(*master_, epoch_);
  registry_.Publish(snapshot_);
}

pitex::PitexEngine& PublishReplay::engine() {
  if (snapshot_->epoch() != epoch_) {
    snapshot_ = pitex::IndexSnapshot::FromDynamic(*master_, epoch_);
    if (snapshot_ == nullptr) throw std::runtime_error("replay freeze failed");
  }
  if (engine_ == nullptr || engine_epoch_ != epoch_) {
    engine_.reset();
    ScopedSpan span(spans_, "core.engine_bind", epoch_);
    engine_ = BindEngine(*snapshot_, options_.engine);
    engine_epoch_ = epoch_;
  }
  return *engine_;
}

void PublishReplay::Apply(std::span<const pitex::EdgeInfluenceUpdate> batch,
                          uint64_t request) {
  ++epoch_;
  if (!ledger_) {
    master_->ApplyUpdates(batch);
    return;
  }
  ScopedSpan root(spans_, "publish.replay", request);
  uint64_t lsn = 0;
  {
    ScopedSpan span(spans_, "wal.append", request);
    lsn = wal_->Append(batch);
  }
  bool synced = false;
  {
    ScopedSpan span(spans_, "wal.sync", request);
    synced = lsn != 0 && wal_->Sync();
  }
  if (!synced) throw std::runtime_error("replay WAL append/sync failed");
  for (const pitex::EdgeInfluenceUpdate& update : batch) {
    const auto it =
        std::lower_bound(touched_.begin(), touched_.end(), update.edge);
    if (it == touched_.end() || *it != update.edge) {
      touched_.insert(it, update.edge);
    }
  }
  {
    ScopedSpan span(spans_, "dynamic_index.repair", request);
    master_->ApplyUpdates(batch);
  }
  {
    ScopedSpan span(spans_, "snapshot.freeze", request);
    snapshot_ = pitex::IndexSnapshot::FromDynamic(*master_, epoch_);
  }
  if (snapshot_ == nullptr) throw std::runtime_error("replay freeze failed");
  {
    ScopedSpan span(spans_, "snapshot.swap", request);
    registry_.Publish(snapshot_);
  }
  if (options_.checkpoint_every > 0 &&
      ++publishes_since_checkpoint_ >= options_.checkpoint_every) {
    ScopedSpan span(spans_, "recovery.checkpoint", request);
    pitex::CheckpointManifest manifest;
    manifest.lsn = lsn;
    manifest.epoch = epoch_;
    manifest.index_version = master_->version();
    char name[64];
    std::snprintf(name, sizeof(name), "checkpoint-%016llx.rridx",
                  static_cast<unsigned long long>(lsn));
    manifest.snapshot_file = name;
    for (const pitex::EdgeId e : touched_) {
      pitex::EdgeInfluenceUpdate update;
      update.edge = e;
      const auto entries = master_->network().influence.EdgeTopics(e);
      update.entries.assign(entries.begin(), entries.end());
      manifest.model_delta.push_back(std::move(update));
    }
    std::string error;
    if (!pitex::WriteCheckpoint(dir_, *snapshot_->rr_index(), manifest,
                                &error)) {
      throw std::runtime_error("replay checkpoint: " + error);
    }
    wal_->TruncateThrough(lsn);
    publishes_since_checkpoint_ = 0;
  }
}

void ReplayShipping(
    const pitex::SocialNetwork& network, const pitex::ServeOptions& options,
    const std::vector<std::vector<pitex::EdgeInfluenceUpdate>>& batches,
    RunContext* ctx) {
  constexpr int64_t kReadRepeats = 5;
  const std::string primary_dir = ctx->work_dir + "/shipped-log";
  {
    std::filesystem::create_directories(primary_dir);
    std::string error;
    auto wal = pitex::WriteAheadLog::Open(primary_dir, 1, options.wal, &error);
    if (wal == nullptr) throw std::runtime_error("shipped log: " + error);
    for (const auto& batch : batches) {
      if (wal->Append(batch) == 0 || !wal->Sync()) {
        throw std::runtime_error("shipped log: append failed");
      }
    }
  }
  SpanLog* spans = ctx->spans;
  std::vector<pitex::WalRecord> records;
  for (int64_t i = 0; i < kReadRepeats; ++i) {
    records.clear();
    pitex::WalReadResult read;
    {
      ScopedSpan span(spans, "wal.read_after", static_cast<uint64_t>(i));
      read = pitex::ReadWalAfter(primary_dir, 0, &records);
    }
    if (!read.ok()) {
      ctx->report->Check("replay_wal_readable", false, read.message);
      return;
    }
  }
  pitex::ServeOptions replica_options = options;
  replica_options.durability_dir = ctx->work_dir + "/replay-replica";
  replica_options.checkpoint_every = 0;
  pitex::PitexService replica(&network, replica_options);
  replica.Start();
  uint64_t bad = 0;
  for (const pitex::WalRecord& record : records) {
    const pitex::ReplRecordMsg shipped{1, record.lsn, record.updates};
    pitex::ReplFrame frame;
    {
      ScopedSpan span(spans, "repl.encode", record.lsn);
      frame = pitex::EncodeRecordMsg(shipped);
    }
    pitex::ReplRecordMsg msg;
    bool decoded = false;
    {
      ScopedSpan span(spans, "repl.decode", record.lsn);
      decoded = pitex::DecodeRecordMsg(frame, &msg);
    }
    pitex::ApplyUpdatesOutcome outcome = pitex::ApplyUpdatesOutcome::kPublished;
    {
      ScopedSpan span(spans, "repl.follower_apply", record.lsn);
      if (decoded) replica.ApplyUpdates(msg.updates, &outcome);
    }
    if (!decoded || msg.lsn != record.lsn ||
        outcome != pitex::ApplyUpdatesOutcome::kPublished) {
      ++bad;
    }
  }
  ctx->report->Check("replay_records_round_trip", bad == 0 && !records.empty(),
                     std::to_string(bad) + " of " +
                         std::to_string(records.size()) + " records failed");
}

}  // namespace perfbench
