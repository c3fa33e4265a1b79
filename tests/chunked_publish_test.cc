// Tests for the O(Δ) publish path: copy-on-write sketch and containing
// chunks (src/index/rr_sketch_pool.h, DynamicRrIndex::Pack), chunked
// edge-topic CSR (src/model/influence_graph.h) and shared topology.
//
// After every batch (random and hub-skewed, with expansions, edge deaths
// and deleted topic vectors, around a publish whose freeze fails) each
// snapshot must equal a from-scratch RrSketchPool::Pack of the master's
// sketches in every read (views, containing lists, max sketch size, the
// serialized checkpoint bytes, whose chunk digests are cached in the
// shared chunks) and its edge topics and their digest must equal a flat
// reference fold. Snapshots still pinned must read exactly as they did
// when published, including while a writer keeps publishing. A
// checkpoint hashes only the chunks built since the previous one.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/datasets/synthetic.h"
#include "src/index/dynamic_index.h"
#include "src/index/index_io.h"
#include "src/index/rr_index.h"
#include "src/index/rr_sketch_pool.h"
#include "src/serve/pitex_service.h"
#include "src/serve/recovery.h"
#include "src/serve/snapshot_registry.h"
#include "src/util/failpoint.h"
#include "src/util/random.h"

namespace pitex {
namespace {

SocialNetwork MakeNetwork() {
  DatasetSpec spec;
  spec.num_vertices = 1200;
  spec.avg_out_degree = 4.0;
  spec.num_topics = 4;
  spec.num_tags = 10;
  spec.tag_topic_density = 0.5;
  spec.seed = 17;
  return GenerateDataset(spec);
}

RrIndexOptions Options() {
  RrIndexOptions options;
  options.theta_override = 3000;
  options.seed = 23;
  return options;
}

std::vector<VertexId> Hubs(const SocialNetwork& n) {
  std::vector<VertexId> hubs(n.num_vertices());
  for (VertexId v = 0; v < n.num_vertices(); ++v) hubs[v] = v;
  std::stable_sort(hubs.begin(), hubs.end(), [&n](VertexId a, VertexId b) {
    return n.graph.InDegree(a) > n.graph.InDegree(b);
  });
  hubs.resize(6);
  return hubs;
}

// A batch of distinct edges: hub batches update in-edges of the highest
// in-degree vertices (many sketches contain them); every fifth update
// deletes the edge's topic vector, every third raises it to 0.9
// (resurrections and expansions), the rest draw a fresh low probability
// (edge deaths).
std::vector<EdgeInfluenceUpdate> MakeBatch(const SocialNetwork& n,
                                           const std::vector<VertexId>& hubs,
                                           bool hub, size_t size, Rng* rng) {
  std::vector<EdgeInfluenceUpdate> batch;
  while (batch.size() < size) {
    EdgeInfluenceUpdate update;
    if (hub) {
      const auto in = n.graph.InEdges(hubs[rng->NextBounded(hubs.size())]);
      if (in.empty()) continue;
      update.edge = in[rng->NextBounded(in.size())].edge;
    } else {
      update.edge = static_cast<EdgeId>(rng->NextBounded(n.num_edges()));
    }
    if (std::any_of(batch.begin(), batch.end(), [&](const auto& u) {
          return u.edge == update.edge;
        })) {
      continue;
    }
    const size_t i = batch.size();
    if (i % 5 != 4) {
      const double prob = i % 3 == 0 ? 0.9 : 0.02 + 0.2 * rng->NextDouble();
      update.entries = {
          {static_cast<TopicId>(rng->NextBounded(n.topics.num_topics())),
           prob}};
    }
    batch.push_back(std::move(update));
  }
  return batch;
}

// Flat-CSR reference of the edge-topic table: one vector per edge,
// folded with the validation ReplaceEdgeTopics applies (zero entries
// dropped, sorted by topic, last update of an edge wins).
struct ReferenceInfluence {
  explicit ReferenceInfluence(const InfluenceGraph& influence)
      : topics(influence.num_edges()) {
    for (EdgeId e = 0; e < influence.num_edges(); ++e) {
      const auto entries = influence.EdgeTopics(e);
      topics[e].assign(entries.begin(), entries.end());
    }
  }
  void Apply(std::span<const EdgeInfluenceUpdate> batch) {
    for (const EdgeInfluenceUpdate& update : batch) {
      auto& dst = topics[update.edge];
      dst.clear();
      for (const EdgeTopicEntry& entry : update.entries) {
        if (entry.prob > 0.0) dst.push_back(entry);
      }
      std::sort(dst.begin(), dst.end(), [](const auto& a, const auto& b) {
        return a.topic < b.topic;
      });
    }
  }
  std::vector<std::vector<EdgeTopicEntry>> topics;
};

std::string Serialize(const RrIndex& index) {
  std::ostringstream out;
  EXPECT_TRUE(SaveRrIndex(index, out));
  return out.str();
}

// Everything a reader of `snapshot` can observe, as one byte string:
// the serialized index (every view), every containing list, every
// edge-topic vector and max probability, and every DirtiedAt stamp.
std::string ReadEverything(const IndexSnapshot& snapshot) {
  std::string bytes = Serialize(*snapshot.rr_index());
  const auto append = [&bytes](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  const RrSketchPool& pool = snapshot.rr_index()->pool();
  const SocialNetwork& n = snapshot.network();
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    const auto ids = pool.Containing(u);
    append(ids.data(), ids.size_bytes());
    const uint64_t at = snapshot.DirtiedAt(u);
    append(&at, sizeof(at));
  }
  for (EdgeId e = 0; e < n.num_edges(); ++e) {
    for (const auto& [z, p] : n.influence.EdgeTopics(e)) {
      append(&z, sizeof(z));
      append(&p, sizeof(p));
    }
    const double max_p = n.influence.MaxProb(e);
    append(&max_p, sizeof(max_p));
  }
  return bytes;
}

bool ViewsEqual(const RRView& a, const RRView& b) {
  if (a.root != b.root || !std::ranges::equal(a.vertices, b.vertices) ||
      !std::ranges::equal(a.offsets, b.offsets) ||
      a.edges.size() != b.edges.size()) {
    return false;
  }
  for (size_t i = 0; i < a.edges.size(); ++i) {
    if (a.edges[i].head_local != b.edges[i].head_local ||
        a.edges[i].edge != b.edges[i].edge ||
        a.edges[i].threshold != b.edges[i].threshold) {
      return false;
    }
  }
  return true;
}

// The snapshot against a from-scratch pack of the master's sketches and
// against the reference fold.
void ExpectMatchesFullPack(const IndexSnapshot& snapshot,
                           const DynamicRrIndex& master,
                           const ReferenceInfluence& reference) {
  const SocialNetwork& n = master.network();
  const RrSketchPool full =
      RrSketchPool::Pack(master.graphs(), n.num_vertices());
  const RrSketchPool& got = snapshot.rr_index()->pool();
  ASSERT_EQ(got.num_sketches(), full.num_sketches());
  for (size_t i = 0; i < full.num_sketches(); ++i) {
    ASSERT_TRUE(ViewsEqual(got.View(i), full.View(i))) << "sketch " << i;
  }
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    ASSERT_TRUE(std::ranges::equal(got.Containing(u), full.Containing(u)))
        << "vertex " << u;
    ASSERT_EQ(got.CountContaining(u), full.CountContaining(u));
  }
  EXPECT_EQ(got.max_sketch_vertices(), full.max_sketch_vertices());
  EXPECT_EQ(got.total_vertices(), full.total_vertices());
  EXPECT_EQ(got.total_edges(), full.total_edges());
  EXPECT_EQ(got.SizeBytes(), full.SizeBytes());
  const auto full_index = RrIndex::FromPool(
      snapshot.network(), master.options(), master.theta(), full);
  EXPECT_EQ(Serialize(*snapshot.rr_index()), Serialize(*full_index));

  const InfluenceGraph& influence = snapshot.network().influence;
  ASSERT_EQ(influence.num_edges(), reference.topics.size());
  // The edge-topic digest (cached in shared chunks) equals that of the
  // reference fold built from scratch.
  InfluenceGraphBuilder rebuilt(reference.topics.size());
  for (EdgeId e = 0; e < reference.topics.size(); ++e) {
    rebuilt.SetEdgeTopics(e, reference.topics[e]);
  }
  EXPECT_EQ(influence.Digest(), rebuilt.Build().Digest());
  for (EdgeId e = 0; e < influence.num_edges(); ++e) {
    const auto entries = influence.EdgeTopics(e);
    const auto& want = reference.topics[e];
    ASSERT_EQ(entries.size(), want.size()) << "edge " << e;
    double max_p = 0.0;
    for (size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(entries[j].topic, want[j].topic) << "edge " << e;
      ASSERT_EQ(entries[j].prob, want[j].prob) << "edge " << e;
      max_p = std::max(max_p, want[j].prob);
    }
    ASSERT_EQ(influence.MaxProb(e), max_p) << "edge " << e;
  }
}

TEST(ChunkedPublishTest, EverySnapshotEqualsAFullPackAndPinnedOnesNeverChange) {
  const SocialNetwork n = MakeNetwork();
  ASSERT_GT(n.num_edges(), 2 * InfluenceGraph::kChunkEdges);
  DynamicRrIndex master(n, Options());
  master.Build();
  ASSERT_GT(master.num_graphs(), 4 * RrSketchPool::kSketchesPerChunk);
  ReferenceInfluence reference(n.influence);
  const std::vector<VertexId> hubs = Hubs(n);

  // Every published snapshot stays pinned with what it read when it was
  // published, plus the DirtiedAt stamps it must carry.
  struct Pinned {
    std::shared_ptr<const IndexSnapshot> snapshot;
    std::string reads;
  };
  std::vector<Pinned> pinned;
  std::vector<uint64_t> dirtied_at(n.num_vertices(), 1);
  uint64_t epoch = 1;
  pinned.push_back({IndexSnapshot::FromDynamic(master, epoch), ""});
  master.ClearDirtyVertices();
  ExpectMatchesFullPack(*pinned.back().snapshot, master, reference);
  pinned.back().reads = ReadEverything(*pinned.back().snapshot);

  Rng rng(41);
  size_t grew = 0, shrank = 0, failed_publishes = 0;
  for (int round = 0; round < 12; ++round) {
    const bool hub = round % 2 == 1;
    std::vector<size_t> sizes_before;
    for (const RRGraph& rr : master.graphs()) {
      sizes_before.push_back(rr.vertices.size());
    }
    const auto batch = MakeBatch(n, hubs, hub, hub ? 8 : 12, &rng);
    master.ApplyUpdates(batch);
    reference.Apply(batch);
    for (size_t i = 0; i < master.num_graphs(); ++i) {
      grew += master.graph(i).vertices.size() > sizes_before[i];
      shrank += master.graph(i).vertices.size() < sizes_before[i];
    }

    // Round 4's freeze fails: its repairs stay staged in the master
    // (dirty chunks and dirty users included) and fold into round 5.
    const std::shared_ptr<const IndexSnapshot>& previous =
        pinned.back().snapshot;
    if (round == 4) {
      FailpointConfig config;
      config.mode = FailpointMode::kError;
      config.fires = 1;
      FailpointRegistry::Instance().Enable("serve/publish_freeze", config);
      const bool failed =
          IndexSnapshot::FromDynamic(master, epoch + 1, previous.get()) ==
          nullptr;
      FailpointRegistry::Instance().DisableAll();
      // With fail points compiled out the freeze succeeds and is dropped.
      ASSERT_EQ(failed, PITEX_FAILPOINTS_ENABLED != 0);
      if (failed) {
        ++failed_publishes;
        continue;
      }
    }
    ++epoch;
    auto snapshot = IndexSnapshot::FromDynamic(master, epoch, previous.get());
    ASSERT_NE(snapshot, nullptr);
    for (const VertexId v : master.dirty_vertices()) dirtied_at[v] = epoch;
    master.ClearDirtyVertices();
    ExpectMatchesFullPack(*snapshot, master, reference);
    for (VertexId u = 0; u < n.num_vertices(); ++u) {
      ASSERT_EQ(snapshot->DirtiedAt(u), dirtied_at[u]) << "vertex " << u;
    }
    // The snapshot shares the master's topology and copies less than
    // its full footprint.
    EXPECT_EQ(snapshot->network().graph.OutEdges(0).data(),
              master.network().graph.OutEdges(0).data());
    EXPECT_LT(snapshot->bytes_copied(),
              snapshot->rr_index()->pool().SizeBytes() +
                  snapshot->network().influence.SizeBytes());
    pinned.push_back({snapshot, ReadEverything(*snapshot)});
  }
  EXPECT_GT(grew, 0u) << "no expansion exercised";
  EXPECT_GT(shrank, 0u) << "no edge death exercised";
  EXPECT_EQ(failed_publishes, PITEX_FAILPOINTS_ENABLED != 0 ? 1u : 0u);

  // Later publishes re-packed chunks and rebuilt edge-topic chunks; no
  // pinned snapshot may have observed any of it.
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_TRUE(ReadEverything(*pinned[i].snapshot) == pinned[i].reads)
        << "snapshot " << i << " changed after later publishes";
  }
}

TEST(ChunkedPublishTest, BatchThatRepairsNothingCopiesOnlyItsEdgeChunk) {
  const SocialNetwork n = MakeNetwork();
  DynamicRrIndex master(n, Options());
  master.Build();
  const auto first = IndexSnapshot::FromDynamic(master, 1);
  master.ClearDirtyVertices();

  // An edge whose head no sketch contains was never probed: updating it
  // dirties no sketch, containing list or user; only the edge's topic
  // chunk is rebuilt.
  EdgeId e = 0;
  while (e < n.num_edges() && !master.Containing(n.graph.Head(e)).empty()) ++e;
  ASSERT_LT(e, n.num_edges());
  EdgeInfluenceUpdate update;
  update.edge = e;
  update.entries = {{0, 0.5}};
  master.ApplyUpdates(std::span(&update, 1));
  ASSERT_TRUE(master.dirty_vertices().empty());
  const auto second = IndexSnapshot::FromDynamic(master, 2, first.get());

  const RrSketchPool& a = first->rr_index()->pool();
  const RrSketchPool& b = second->rr_index()->pool();
  EXPECT_EQ(b.BytesNotSharedWith(a), 0u);
  const InfluenceGraph& before = first->network().influence;
  const InfluenceGraph& after = second->network().influence;
  const size_t influence_copied = after.BytesNotSharedWith(before);
  EXPECT_GT(influence_copied, 0u);
  EXPECT_LT(influence_copied, after.SizeBytes() / 2);
  // Plus the one uniform DirtiedAt block every slot of the first
  // carried-forward map shares.
  EXPECT_GT(second->bytes_copied(), influence_copied);
  EXPECT_LE(second->bytes_copied(), influence_copied + 4096);
  // Edges outside the rebuilt chunk are shared, not copied.
  const EdgeId far = static_cast<EdgeId>(
      (e + InfluenceGraph::kChunkEdges) % n.num_edges());
  EXPECT_EQ(after.EdgeTopics(far).data(), before.EdgeTopics(far).data());
  EXPECT_NE(after.EdgeTopics(e).data(), before.EdgeTopics(e).data());
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    EXPECT_EQ(second->DirtiedAt(u), 1u);
  }
  // A publish with nothing new copies nothing.
  EXPECT_EQ(IndexSnapshot::FromDynamic(master, 3, second.get())->bytes_copied(),
            0u);
}

TEST(ChunkedPublishTest, CheckpointHashesOnlyChunksBuiltSinceTheLastOne) {
  const SocialNetwork n = MakeNetwork();
  DynamicRrIndex master(n, Options());
  master.Build();
  const std::string dir = ::testing::TempDir() + "/pitex_chunked_checkpoint";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto checkpoint = [&](const IndexSnapshot& snapshot) {
    CheckpointManifest manifest;
    manifest.lsn = snapshot.epoch();
    manifest.epoch = snapshot.epoch();
    manifest.snapshot_file =
        "checkpoint-" + std::to_string(snapshot.epoch()) + ".rridx";
    uint64_t hashed = 0;
    std::string error;
    EXPECT_TRUE(WriteCheckpoint(dir, *snapshot.rr_index(), manifest, &error,
                                &hashed))
        << error;
    return hashed;
  };

  const auto first = IndexSnapshot::FromDynamic(master, 1);
  master.ClearDirtyVertices();
  const uint64_t full = checkpoint(*first);
  const RrSketchPool& pool = first->rr_index()->pool();
  EXPECT_GT(full, pool.total_vertices() * 4 + pool.total_edges() * 12);
  // Nothing published since: no chunk is hashed again.
  EXPECT_EQ(checkpoint(*first), 0u);

  // A batch that repairs no sketch rebuilds one edge-topic chunk, the
  // only chunk the next checkpoint hashes.
  EdgeId e = 0;
  while (e < n.num_edges() && !master.Containing(n.graph.Head(e)).empty()) ++e;
  ASSERT_LT(e, n.num_edges());
  EdgeInfluenceUpdate update;
  update.edge = e;
  update.entries = {{0, 0.5}};
  master.ApplyUpdates(std::span(&update, 1));
  const auto second = IndexSnapshot::FromDynamic(master, 2, first.get());
  const uint64_t one_chunk = checkpoint(*second);
  EXPECT_GT(one_chunk, 0u);
  EXPECT_LT(one_chunk, full / 8);

  // The checkpoint loads against the evolved network.
  IndexIoError error;
  EXPECT_NE(LoadRrIndex(master.network(), dir + "/checkpoint-2.rridx", &error),
            nullptr)
      << error.message;
  std::filesystem::remove_all(dir);
}

TEST(ChunkedPublishTest, ServiceExportsTheBytesEachCheckpointHashed) {
  const SocialNetwork n = MakeNetwork();
  const std::string dir = ::testing::TempDir() + "/pitex_chunked_service";
  std::filesystem::remove_all(dir);
  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.engine.index_theta_per_vertex = 2.5;
  options.num_threads = 1;
  options.enable_updates = true;
  options.durability_dir = dir;
  options.checkpoint_every = 1;
  std::vector<double> observed;  // bytes hashed per checkpoint
  double previous_sum = 0.0;
  {
    PitexService service(&n, options);
    service.Start();
    Rng rng(5);
    for (int round = 0; round < 3; ++round) {
      const auto batch = MakeBatch(n, Hubs(n), false, 1, &rng);
      ASSERT_NE(service.ApplyUpdates(batch), 0u);
      const obs::MetricsSnapshot snap = service.SnapshotMetrics();
      const obs::MetricValue* hist =
          snap.Find("pitex_checkpoint_bytes_hashed");
      ASSERT_NE(hist, nullptr);
      ASSERT_EQ(hist->count, static_cast<uint64_t>(round + 1));
      observed.push_back(hist->sum - previous_sum);
      previous_sum = hist->sum;
    }
  }
  // The first checkpoint hashes the whole index and network; each later
  // one only the chunks its one-edge batch rebuilt.
  EXPECT_GT(observed[0], 0.0);
  for (size_t i = 1; i < observed.size(); ++i) {
    EXPECT_GT(observed[i], 0.0);
    EXPECT_LT(observed[i], observed[0] / 2) << "checkpoint " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(ChunkedPublishTest, PinnedSnapshotReadsStayFixedWhileAWriterPublishes) {
  // Readers scan an old snapshot's chunks while the writer repairs the
  // master and publishes snapshots sharing those chunks; any write to a
  // shared chunk would change a reader's checksum (and is a data race
  // under ThreadSanitizer).
  const SocialNetwork n = MakeNetwork();
  DynamicRrIndex master(n, Options());
  master.Build();
  std::shared_ptr<const IndexSnapshot> current =
      IndexSnapshot::FromDynamic(master, 1);
  master.ClearDirtyVertices();
  const std::shared_ptr<const IndexSnapshot> old = current;
  const std::string expected = ReadEverything(*old);

  std::atomic<bool> stop{false};
  std::atomic<size_t> mismatches{0}, scans{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        if (ReadEverything(*old) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const std::vector<VertexId> hubs = Hubs(n);
  Rng rng(5);
  for (uint64_t epoch = 2; epoch <= 9; ++epoch) {
    master.ApplyUpdates(MakeBatch(n, hubs, epoch % 2 == 0, 8, &rng));
    current = IndexSnapshot::FromDynamic(master, epoch, current.get());
    ASSERT_NE(current, nullptr);
    master.ClearDirtyVertices();
  }
  while (scans.load(std::memory_order_relaxed) < 2) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(ReadEverything(*old), expected);
}

}  // namespace
}  // namespace pitex
