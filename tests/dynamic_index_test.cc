// Tests for incremental index maintenance (src/index/dynamic_index.h):
// bit-identical initial state vs. the static index, exact affected-set
// computation, repair correctness against fresh rebuilds and the exact
// oracle, deterministic repair histories, and the soundness of the dirty
// set a publish invalidates.

#include "src/index/dynamic_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "running_example.h"
#include "src/core/engine.h"
#include "src/datasets/synthetic.h"
#include "src/sampling/exact.h"
#include "src/serve/snapshot_registry.h"

namespace pitex {
namespace {

RrIndexOptions DenseOptions() {
  RrIndexOptions options;
  options.theta_override = 60000;
  options.seed = 5;
  return options;
}

RrIndexOptions SmallOptions() {
  RrIndexOptions options;
  options.theta_override = 3000;
  options.seed = 5;
  return options;
}

// Compares through RRView so owning graphs (DynamicRrIndex) and pooled
// views (RrIndex) are interchangeable.
bool GraphsEqual(const RRView& a, const RRView& b) {
  if (a.root != b.root ||
      !std::ranges::equal(a.vertices, b.vertices) ||
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

TEST(DynamicRrIndexTest, InitialStateMatchesStaticIndex) {
  const SocialNetwork n = MakeRunningExample();
  RrIndex static_index(n, SmallOptions());
  static_index.Build();
  DynamicRrIndex dynamic_index(n, SmallOptions());
  dynamic_index.Build();

  ASSERT_EQ(dynamic_index.num_graphs(), static_index.num_graphs());
  for (size_t i = 0; i < static_index.num_graphs(); ++i) {
    EXPECT_TRUE(GraphsEqual(dynamic_index.graph(i), static_index.graph(i)))
        << "graph " << i;
  }
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    EXPECT_TRUE(std::ranges::equal(dynamic_index.Containing(v),
                                   static_index.Containing(v)))
        << "vertex " << v;
  }
}

TEST(DynamicRrIndexTest, AffectedSetIsContainingHead) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();

  const EdgeId e = 4;  // u4 -> u6
  const VertexId head = n.graph.Head(e);
  const size_t expected = index.Containing(head).size();

  const EdgeTopicEntry entries[] = {{2, 0.3}};
  index.UpdateEdgeTopics(e, entries);
  EXPECT_EQ(index.stats().graphs_examined, expected);
  EXPECT_LE(index.stats().graphs_changed, expected);
  EXPECT_EQ(index.stats().edges_updated, 1u);
  EXPECT_EQ(index.stats().update_batches, 1u);
}

TEST(DynamicRrIndexTest, UpdateSwapsInfluenceModel) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();

  const EdgeTopicEntry entries[] = {{0, 0.9}};
  index.UpdateEdgeTopics(0, entries);
  EXPECT_DOUBLE_EQ(index.network().influence.MaxProb(0), 0.9);
  EXPECT_DOUBLE_EQ(index.network().influence.EdgeTopicProb(0, 0), 0.9);
  // Caller's network is untouched.
  EXPECT_DOUBLE_EQ(n.influence.MaxProb(0), 0.4);
}

TEST(DynamicRrIndexTest, DeletingEntriesZeroesEnvelope) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  index.UpdateEdgeTopics(0, {});
  EXPECT_DOUBLE_EQ(index.network().influence.MaxProb(0), 0.0);
}

TEST(DynamicRrIndexTest, ZeroedOutEdgesKillInfluence) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, DenseOptions());
  index.Build();

  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);

  // Zero both of u1's out-edges: u1 can no longer influence anybody.
  std::vector<EdgeInfluenceUpdate> updates(2);
  updates[0].edge = 0;
  updates[1].edge = 1;
  index.ApplyUpdates(updates);

  // Only graphs rooted at u1 still count u1 (trivial self-reach), so the
  // estimate concentrates on exactly 1.0 up to root-sampling noise.
  const PosteriorProbs probs(index.network().influence, post);
  EXPECT_NEAR(index.EstimateInfluence(0, probs).influence, 1.0, 0.05);
}

TEST(DynamicRrIndexTest, RaisingProbabilityIncreasesSpread) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, DenseOptions());
  index.Build();

  const TagId tags[] = {2, 3};
  const auto post = n.topics.Posterior(tags);
  const PosteriorProbs before_probs(index.network().influence, post);
  const double before = index.EstimateInfluence(0, before_probs).influence;

  // Crank edge u1 -> u3 (the gateway to the whole z3 cluster) to 1.
  const EdgeTopicEntry entries[] = {{1, 1.0}, {2, 1.0}};
  index.UpdateEdgeTopics(1, entries);
  const PosteriorProbs after_probs(index.network().influence, post);
  const double after = index.EstimateInfluence(0, after_probs).influence;
  EXPECT_GT(after, before);
}

TEST(DynamicRrIndexTest, RepairAgreesWithExactOracle) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, DenseOptions());
  index.Build();

  // A batch of model changes across the graph.
  std::vector<EdgeInfluenceUpdate> updates(3);
  updates[0].edge = 1;
  updates[0].entries = {{1, 0.8}, {2, 0.2}};
  updates[1].edge = 4;
  updates[1].entries = {{2, 0.3}};
  updates[2].edge = 6;
  updates[2].entries = {{2, 0.9}};
  index.ApplyUpdates(updates);

  for (TagId a = 0; a < 4; ++a) {
    for (TagId b = a + 1; b < 4; ++b) {
      const TagId tags[] = {a, b};
      const auto post = index.network().topics.Posterior(tags);
      const PosteriorProbs probs(index.network().influence, post);
      const double exact =
          ExactInfluence(index.network().graph, probs, 0);
      const Estimate est = index.EstimateInfluence(0, probs);
      EXPECT_NEAR(est.influence, exact, 0.06 * exact + 0.02)
          << "tags " << a << "," << b;
    }
  }
}

TEST(DynamicRrIndexTest, RepairAgreesWithFreshRebuild) {
  DatasetSpec spec = LastfmSpec(0.4);
  spec.seed = 17;
  const SocialNetwork n = GenerateDataset(spec);

  RrIndexOptions options;
  options.theta_override = 40000;
  options.seed = 9;
  DynamicRrIndex dynamic_index(n, options);
  dynamic_index.Build();

  // Update a handful of edges.
  std::vector<EdgeInfluenceUpdate> updates;
  for (EdgeId e = 0; e < 10; ++e) {
    EdgeInfluenceUpdate update;
    update.edge = e * 97 % n.num_edges();
    update.entries = {{static_cast<TopicId>(e % n.topics.num_topics()),
                       0.05 + 0.02 * static_cast<double>(e % 5)}};
    updates.push_back(std::move(update));
  }
  dynamic_index.ApplyUpdates(updates);

  // A fresh index on the updated network must agree statistically.
  RrIndexOptions rebuild_options = options;
  rebuild_options.seed = 1234;  // independent randomness
  RrIndex rebuilt(dynamic_index.network(), rebuild_options);
  rebuilt.Build();

  const TagId tags[] = {0, 1};
  const auto post = dynamic_index.network().topics.Posterior(tags);
  const PosteriorProbs probs(dynamic_index.network().influence, post);
  const auto users = SampleUserGroup(n.graph, UserGroup::kHigh, 3, 7);
  for (const VertexId u : users) {
    const double repaired = dynamic_index.EstimateInfluence(u, probs).influence;
    const double fresh = rebuilt.EstimateInfluence(u, probs).influence;
    EXPECT_NEAR(repaired, fresh, 0.15 * fresh + 0.3) << "user " << u;
  }
}

TEST(DynamicRrIndexTest, LaterDuplicateWins) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();

  std::vector<EdgeInfluenceUpdate> updates(2);
  updates[0].edge = 0;
  updates[0].entries = {{0, 0.1}};
  updates[1].edge = 0;
  updates[1].entries = {{0, 0.7}};
  index.ApplyUpdates(updates);
  // Updates apply sequentially; the final model reflects the last one.
  EXPECT_DOUBLE_EQ(index.network().influence.MaxProb(0), 0.7);
  EXPECT_EQ(index.stats().edges_updated, 2u);
}

TEST(DynamicRrIndexTest, EmptyBatchIsNoop) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  index.ApplyUpdates({});
  EXPECT_EQ(index.stats().update_batches, 0u);
  EXPECT_EQ(index.stats().graphs_examined, 0u);
}

TEST(DynamicRrIndexTest, RepairHistoryIsDeterministic) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex a(n, SmallOptions());
  DynamicRrIndex b(n, SmallOptions());
  a.Build();
  b.Build();

  for (int round = 0; round < 3; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>(round * 2 % 7);
    update.entries = {{2, 0.1 + 0.2 * round}};
    a.ApplyUpdates(std::span(&update, 1));
    b.ApplyUpdates(std::span(&update, 1));
  }
  ASSERT_EQ(a.num_graphs(), b.num_graphs());
  for (size_t i = 0; i < a.num_graphs(); ++i) {
    EXPECT_TRUE(GraphsEqual(a.graph(i), b.graph(i))) << "graph " << i;
  }
}

TEST(DynamicRrIndexTest, NoopUpdateLeavesEveryGraphIdentical) {
  // Coin coupling makes a same-probability update a structural no-op:
  // live edges satisfy c < p_new = p_old, dead edges resurrect with
  // probability 0. (Full regeneration — the naive repair — would redraw
  // the graphs and, worse, bias the ensemble toward worlds that never
  // probed the edge.)
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  std::vector<RRGraph> snapshot;
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    snapshot.push_back(index.graph(i));
  }

  std::vector<EdgeTopicEntry> same(n.influence.EdgeTopics(1).begin(),
                                   n.influence.EdgeTopics(1).end());
  index.UpdateEdgeTopics(1, same);

  EXPECT_GT(index.stats().graphs_examined, 0u);
  EXPECT_EQ(index.stats().graphs_changed, 0u);
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    ASSERT_TRUE(GraphsEqual(index.graph(i), snapshot[i])) << "graph " << i;
  }
}

TEST(DynamicRrIndexTest, ProbabilityDropNeverGrowsGraphs) {
  // Lowering an envelope can only kill the edge (c >= p_new) and prune;
  // every repaired graph must be a sub-structure of its old self.
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  std::vector<size_t> before;
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    before.push_back(index.graph(i).vertices.size());
  }

  const EdgeTopicEntry entries[] = {{2, 0.1}};  // e4 was z3:0.8
  index.UpdateEdgeTopics(4, entries);
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    EXPECT_LE(index.graph(i).vertices.size(), before[i]) << "graph " << i;
  }
}

TEST(DynamicRrIndexTest, ProbabilityRaiseNeverShrinksGraphs) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  std::vector<size_t> before;
  size_t total_before = 0;
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    before.push_back(index.graph(i).vertices.size());
    total_before += before.back();
  }

  const EdgeTopicEntry entries[] = {{2, 0.95}};  // e4 raised from 0.8
  index.UpdateEdgeTopics(4, entries);
  size_t total_after = 0;
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    EXPECT_GE(index.graph(i).vertices.size(), before[i]) << "graph " << i;
    total_after += index.graph(i).vertices.size();
  }
  // With thousands of graphs, some resurrection must have occurred.
  EXPECT_GT(total_after, total_before);
}

TEST(DynamicRrIndexTest, ContainmentStaysConsistentAfterRepairs) {
  DatasetSpec spec = LastfmSpec(0.3);
  spec.seed = 23;
  const SocialNetwork n = GenerateDataset(spec);
  RrIndexOptions options;
  options.theta_override = 2000;
  DynamicRrIndex index(n, options);
  index.Build();

  for (int round = 0; round < 5; ++round) {
    EdgeInfluenceUpdate update;
    update.edge = static_cast<EdgeId>((round * 131) % n.num_edges());
    update.entries = {{static_cast<TopicId>(round % n.topics.num_topics()),
                       0.2}};
    index.ApplyUpdates(std::span(&update, 1));
  }

  // Invariant: v's containment list holds exactly the graphs whose
  // vertex set includes v.
  size_t listed = 0;
  for (VertexId v = 0; v < n.num_vertices(); ++v) {
    for (const uint32_t id : index.Containing(v)) {
      EXPECT_TRUE(index.graph(id).LocalIndex(v).has_value());
      ++listed;
    }
  }
  size_t contained = 0;
  for (size_t i = 0; i < index.num_graphs(); ++i) {
    contained += index.graph(i).vertices.size();
  }
  EXPECT_EQ(listed, contained);
}

// Every Explore output a fresh engine gives on one snapshot, per
// (method, user, k): the fields an unchanged index must reproduce bit
// for bit.
struct ExploreAnswer {
  std::vector<TagId> tags;
  double influence = 0.0;
  uint64_t edges_visited = 0;
  uint64_t sets_evaluated = 0;

  bool operator==(const ExploreAnswer&) const = default;
};

constexpr Method kIndexMethods[] = {Method::kIndexEst, Method::kIndexEstPlus};
constexpr size_t kMaxK = 2;

// answers[m][u * kMaxK + (k - 1)] for method kIndexMethods[m].
using SnapshotAnswers = std::vector<std::vector<ExploreAnswer>>;

SnapshotAnswers ExploreEveryUser(const IndexSnapshot& snapshot) {
  SnapshotAnswers answers;
  for (const Method method : kIndexMethods) {
    EngineOptions options;
    options.method = method;
    PitexEngine engine(&snapshot.network(), options);
    engine.UseSharedRrIndex(snapshot.rr_index());
    engine.BuildIndex();
    std::vector<ExploreAnswer>& out = answers.emplace_back();
    for (VertexId u = 0; u < snapshot.network().num_vertices(); ++u) {
      for (size_t k = 1; k <= kMaxK; ++k) {
        const PitexResult r = engine.Explore({.user = u, .k = k});
        out.push_back({r.tags, r.influence, r.edges_visited,
                       r.sets_evaluated});
      }
    }
  }
  return answers;
}

// A batch of `size` updates: uniformly random edges ("random") or the
// out-edges of the highest out-degree vertices ("hub"). Every third
// update sets a high probability, so dead edges resurrect and sketches
// expand; every fifth deletes the edge's influence, so sketches prune.
std::vector<EdgeInfluenceUpdate> MakeBatch(const SocialNetwork& n,
                                           const std::vector<VertexId>& hubs,
                                           bool hub, size_t size, Rng* rng) {
  std::vector<EdgeInfluenceUpdate> batch(size);
  for (size_t i = 0; i < size; ++i) {
    EdgeInfluenceUpdate& update = batch[i];
    if (hub) {
      const auto out =
          n.graph.OutEdges(hubs[rng->NextBounded(hubs.size())]);
      update.edge = out[rng->NextBounded(out.size())].edge;
    } else {
      update.edge = static_cast<EdgeId>(rng->NextBounded(n.num_edges()));
    }
    if (i % 5 == 4) continue;  // deletion
    const double prob = i % 3 == 0 ? 0.9 : 0.05 + 0.3 * rng->NextDouble();
    update.entries = {
        {static_cast<TopicId>(rng->NextBounded(n.topics.num_topics())),
         prob}};
  }
  return batch;
}

TEST(DynamicRrIndexTest, DirtySetCoversEveryChangedAnswer) {
  DatasetSpec spec;
  spec.num_vertices = 240;
  spec.avg_out_degree = 5.0;
  spec.num_topics = 4;
  spec.num_tags = 10;
  spec.tag_topic_density = 0.5;
  spec.seed = 31;
  const SocialNetwork n = GenerateDataset(spec);
  RrIndexOptions options;
  options.theta_override = 1500;
  options.seed = 9;
  DynamicRrIndex master(n, options);
  master.Build();

  std::vector<VertexId> hubs(n.num_vertices());
  for (VertexId v = 0; v < n.num_vertices(); ++v) hubs[v] = v;
  std::stable_sort(hubs.begin(), hubs.end(), [&n](VertexId a, VertexId b) {
    return n.graph.OutDegree(a) > n.graph.OutDegree(b);
  });
  hubs.resize(4);

  uint64_t epoch = 1;
  std::shared_ptr<const IndexSnapshot> before =
      IndexSnapshot::FromDynamic(master, epoch);
  master.ClearDirtyVertices();
  SnapshotAnswers answers_before = ExploreEveryUser(*before);
  Rng rng(77);
  size_t clean_checked = 0, dirty_changed = 0, expanded = 0;
  for (int round = 0; round < 6; ++round) {
    const bool hub = round % 2 == 1;
    const auto batch = MakeBatch(n, hubs, hub, 4, &rng);
    std::vector<std::vector<uint32_t>> containing_before(n.num_vertices());
    for (VertexId v = 0; v < n.num_vertices(); ++v) {
      containing_before[v] = master.Containing(v);
    }
    std::vector<size_t> sizes_before;
    for (const RRGraph& rr : master.graphs()) {
      sizes_before.push_back(rr.vertices.size());
    }

    master.ApplyUpdates(batch);
    ++epoch;
    std::shared_ptr<const IndexSnapshot> after =
        IndexSnapshot::FromDynamic(master, epoch, before.get());
    const std::set<VertexId> dirty(master.dirty_vertices().begin(),
                                   master.dirty_vertices().end());
    ASSERT_EQ(dirty.size(), master.dirty_vertices().size()) << "duplicates";
    ASSERT_LT(dirty.size(), n.num_vertices()) << "round " << round;
    for (size_t i = 0; i < master.num_graphs(); ++i) {
      if (master.graph(i).vertices.size() > sizes_before[i]) ++expanded;
    }

    const SnapshotAnswers answers_after = ExploreEveryUser(*after);
    for (VertexId u = 0; u < n.num_vertices(); ++u) {
      const bool is_dirty = dirty.count(u) > 0;
      if (master.Containing(u) != containing_before[u]) {
        EXPECT_TRUE(is_dirty) << "membership of " << u << " changed";
      }
      EXPECT_EQ(after->DirtiedAt(u),
                is_dirty ? epoch : before->DirtiedAt(u));
      for (size_t m = 0; m < answers_after.size(); ++m) {
        for (size_t k = 1; k <= kMaxK; ++k) {
          const size_t i = u * kMaxK + (k - 1);
          const bool same = answers_before[m][i] == answers_after[m][i];
          if (is_dirty) {
            dirty_changed += same ? 0 : 1;
            continue;
          }
          ++clean_checked;
          EXPECT_TRUE(same) << MethodName(kIndexMethods[m]) << " user " << u
                            << " k " << k << " round " << round;
        }
      }
    }
    master.ClearDirtyVertices();
    before = std::move(after);
    answers_before = answers_after;
  }
  // Not vacuous: clean users were compared, some dirty users' answers
  // really moved, and at least one repair expanded a sketch.
  EXPECT_GT(clean_checked, 0u);
  EXPECT_GT(dirty_changed, 0u);
  EXPECT_GT(expanded, 0u);
}

TEST(DynamicRrIndexTest, DirtySetAccumulatesUntilCleared) {
  const SocialNetwork n = MakeRunningExample();
  DynamicRrIndex index(n, SmallOptions());
  index.Build();
  EXPECT_TRUE(index.dirty_vertices().empty());

  const EdgeTopicEntry entries[] = {{2, 0.3}};
  index.UpdateEdgeTopics(4, entries);  // head u6
  const std::set<VertexId> first(index.dirty_vertices().begin(),
                                 index.dirty_vertices().end());
  EXPECT_TRUE(first.count(n.graph.Head(4)));
  // A second batch (as after a failed publish) only adds to the set.
  index.UpdateEdgeTopics(0, entries);  // head u2
  const std::set<VertexId> both(index.dirty_vertices().begin(),
                                index.dirty_vertices().end());
  EXPECT_TRUE(std::includes(both.begin(), both.end(), first.begin(),
                            first.end()));
  EXPECT_TRUE(both.count(n.graph.Head(0)));

  index.ClearDirtyVertices();
  EXPECT_TRUE(index.dirty_vertices().empty());
  index.UpdateEdgeTopics(0, entries);
  EXPECT_FALSE(index.dirty_vertices().empty());
}

}  // namespace
}  // namespace pitex
