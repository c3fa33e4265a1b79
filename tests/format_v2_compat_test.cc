// Read compatibility with index format v2 (src/index/index_io.h). The
// files under tests/data/v2/ were written by the last build that wrote
// v2 (see tests/data/v2/README.md): an RR-Graph index of the running
// example, and a durability directory (a checkpoint with a v2 snapshot
// file plus a WAL tail). Both must load or recover bit-identical to a
// never-crashed reference, and the first checkpoint after recovery
// writes v3.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "running_example.h"
#include "src/index/dynamic_index.h"
#include "src/index/index_io.h"
#include "src/serve/pitex_service.h"
#include "src/serve/recovery.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

std::string DataPath(const std::string& name) {
  return std::string(PITEX_TEST_DATA_DIR) + "/v2/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

uint32_t FileVersion(const std::string& bytes) {
  // magic: u64 length 8, then "PITEXIDX"; the version u32 follows.
  uint32_t version = 0;
  for (size_t i = 0; i < 4; ++i) {
    version |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[16 + i]))
               << (8 * i);
  }
  return version;
}

bool SameSketches(std::span<const RRGraph> want, const RrIndex& got) {
  if (got.num_graphs() != want.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    const RRView a = want[i].View();
    const RRView b = got.graph(i);
    if (a.root != b.root || !std::ranges::equal(a.vertices, b.vertices) ||
        !std::ranges::equal(a.offsets, b.offsets) ||
        a.edges.size() != b.edges.size()) {
      return false;
    }
    for (size_t j = 0; j < a.edges.size(); ++j) {
      if (a.edges[j].head_local != b.edges[j].head_local ||
          a.edges[j].edge != b.edges[j].edge ||
          a.edges[j].threshold != b.edges[j].threshold) {
        return false;
      }
    }
  }
  return true;
}

TEST(FormatV2CompatTest, GoldenIndexLoadsBitIdentical) {
  const SocialNetwork n = MakeRunningExample();
  RrIndexOptions options;
  options.theta_override = 600;
  options.seed = 11;
  RrIndex reference(n, options);
  reference.Build();

  const std::string v2 = ReadFile(DataPath("running_example.rridx"));
  ASSERT_EQ(FileVersion(v2), 2u);
  std::stringstream in(v2);
  IndexIoError error;
  const auto loaded = LoadRrIndex(n, in, &error);
  ASSERT_NE(loaded, nullptr) << error.message;
  EXPECT_EQ(loaded->theta(), reference.theta());
  ASSERT_EQ(loaded->num_graphs(), reference.num_graphs());
  for (size_t i = 0; i < reference.num_graphs(); ++i) {
    const RRView want = reference.graph(i);
    const RRView got = loaded->graph(i);
    ASSERT_EQ(got.root, want.root) << "sketch " << i;
    ASSERT_TRUE(std::ranges::equal(got.vertices, want.vertices));
    ASSERT_TRUE(std::ranges::equal(got.offsets, want.offsets));
    ASSERT_EQ(got.edges.size(), want.edges.size());
    for (size_t j = 0; j < want.edges.size(); ++j) {
      ASSERT_EQ(got.edges[j].edge, want.edges[j].edge);
      ASSERT_EQ(got.edges[j].threshold, want.edges[j].threshold);
    }
  }
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(loaded->Containing(v),
                                   reference.Containing(v)));
  }

  // Saved again it is a v3 file holding the same sketches.
  std::stringstream v3;
  ASSERT_TRUE(SaveRrIndex(*loaded, v3, &error)) << error.message;
  EXPECT_EQ(FileVersion(v3.str()), kIndexFormatVersion);
  const auto reloaded = LoadRrIndex(n, v3, &error);
  ASSERT_NE(reloaded, nullptr) << error.message;
  std::stringstream again;
  ASSERT_TRUE(SaveRrIndex(*reloaded, again, &error));
  EXPECT_EQ(again.str(), v3.str());

  // The v2 checksum is still verified.
  std::string flipped = v2;
  flipped[v2.size() / 2] = static_cast<char>(flipped[v2.size() / 2] ^ 0x01);
  std::stringstream corrupt(flipped);
  EXPECT_EQ(LoadRrIndex(n, corrupt, &error), nullptr);
}

class FormatV2DurabilityTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kFixtureRounds = 8;  // 6 checkpointed, 2 in the log

  void SetUp() override {
    dir_ = (fs::temp_directory_path() / "pitex_format_v2_durable").string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    for (const auto& entry : fs::directory_iterator(DataPath("durable"))) {
      fs::copy_file(entry.path(), dir_ + "/" + entry.path().filename().string());
    }
  }
  void TearDown() override { fs::remove_all(dir_); }

  // The options the fixture's service ran with.
  static ServeOptions FixtureOptions(const std::string& dir) {
    ServeOptions options;
    options.engine.method = Method::kIndexEst;
    options.engine.index_theta_per_vertex = 150.0;
    options.engine.seed = 5;
    options.num_threads = 1;
    options.mode = ScheduleMode::kWorkStealing;
    options.enable_updates = true;
    options.durability_dir = dir;
    options.checkpoint_every = 3;
    return options;
  }
  static RrIndexOptions IndexOptions(const ServeOptions& serve) {
    RrIndexOptions options;
    options.eps = serve.engine.eps;
    options.delta = serve.engine.delta;
    options.cap_k = serve.engine.index_cap_k;
    options.theta_per_vertex = serve.engine.index_theta_per_vertex;
    options.max_theta = serve.engine.index_max_theta;
    options.seed = serve.engine.seed;
    return options;
  }
  // The fixture's batches: round r replaces one edge's topic vector.
  static std::vector<EdgeInfluenceUpdate> Batch(const SocialNetwork& n,
                                                uint32_t round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(round % n.num_edges());
    update.entries = {{static_cast<TopicId>(round % n.topics.num_topics()),
                       0.2 + 0.1 * static_cast<double>(round % 5)}};
    return {update};
  }

  std::string dir_;
};

TEST_F(FormatV2DurabilityTest, GoldenDirectoryRecoversBitIdentical) {
  const SocialNetwork n = MakeRunningExample();
  const RrIndexOptions options = IndexOptions(FixtureOptions(dir_));
  RecoveredState state;
  std::string error;
  ASSERT_TRUE(RecoverServingState(n, options, dir_, &state, &error)) << error;
  EXPECT_TRUE(state.had_checkpoint);
  EXPECT_EQ(state.replayed_records, 2u);
  EXPECT_EQ(state.last_lsn, kFixtureRounds);

  DynamicRrIndex reference(n, options);
  reference.Build();
  for (uint32_t round = 0; round < kFixtureRounds; ++round) {
    reference.ApplyUpdates(Batch(n, round));
  }
  const DynamicRrIndex& master = *state.master;
  EXPECT_EQ(master.version(), reference.version());
  ASSERT_EQ(master.theta(), reference.theta());
  EXPECT_EQ(NetworkFingerprint(master.network()),
            NetworkFingerprint(reference.network()));
  const auto packed = RrIndex::FromPool(master.network(), options,
                                        master.theta(), master.Pack());
  EXPECT_TRUE(SameSketches(reference.graphs(), *packed));
  std::stringstream got, want;
  ASSERT_TRUE(SaveRrIndex(*packed, got));
  ASSERT_TRUE(SaveRrIndex(
      *RrIndex::FromPool(reference.network(), options, reference.theta(),
                         reference.Pack()),
      want));
  EXPECT_EQ(got.str(), want.str());
}

TEST_F(FormatV2DurabilityTest, ServiceResumesAndItsNextCheckpointIsV3) {
  const SocialNetwork n = MakeRunningExample();
  constexpr uint32_t kMoreRounds = 3;  // one more checkpoint
  {
    PitexService service(&n, FixtureOptions(dir_));
    service.Start();
    ASSERT_EQ(service.current_epoch(), 1u + kFixtureRounds);
    for (uint32_t round = kFixtureRounds; round < kFixtureRounds + kMoreRounds;
         ++round) {
      ASSERT_NE(service.ApplyUpdates(Batch(n, round)), 0u);
    }
    EXPECT_EQ(
        service.SnapshotMetrics().CounterValue("pitex_checkpoints_total"),
        1u);
  }
  CheckpointManifest manifest;
  bool present = false;
  std::string error;
  ASSERT_TRUE(ReadCheckpointManifest(dir_, &manifest, &present, &error))
      << error;
  ASSERT_TRUE(present);
  EXPECT_EQ(manifest.lsn, kFixtureRounds + kMoreRounds);
  EXPECT_EQ(FileVersion(ReadFile(dir_ + "/" + manifest.snapshot_file)),
            kIndexFormatVersion);

  // Recovered from the v3 checkpoint, it answers like a service that
  // never stopped.
  PitexService recovered(&n, FixtureOptions(dir_));
  recovered.Start();
  PitexService reference(&n, FixtureOptions(""));
  reference.Start();
  for (uint32_t round = 0; round < kFixtureRounds + kMoreRounds; ++round) {
    ASSERT_NE(reference.ApplyUpdates(Batch(n, round)), 0u);
  }
  ASSERT_EQ(recovered.current_epoch(), reference.current_epoch());
  for (VertexId user = 0; user < n.num_vertices(); ++user) {
    const PitexQuery query = {.user = user, .k = 2};
    const ServedResult got = recovered.Submit(query).get();
    const ServedResult want = reference.Submit(query).get();
    ASSERT_EQ(got.status, ServeStatus::kOk);
    ASSERT_EQ(got.result.tags, want.result.tags) << "user " << user;
    ASSERT_EQ(got.result.influence, want.result.influence) << "user " << user;
  }
}

}  // namespace
}  // namespace pitex
