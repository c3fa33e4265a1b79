#include "src/index/dynamic_index.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace pitex {

namespace {

// RNG stream for sample i at repair version `version`. version == 0
// reproduces RrIndex::Build exactly (bit-identical initial index).
Rng StreamFor(uint64_t seed, uint64_t i, uint64_t version) {
  uint64_t mix = seed ^ (0x9e3779b97f4a7c15ULL * (i + 1));
  if (version > 0) mix ^= 0xbf58476d1ce4e5b9ULL * version;
  return Rng(SplitMix64(&mix));
}

}  // namespace

DynamicRrIndex::DynamicRrIndex(const SocialNetwork& network,
                               const RrIndexOptions& options)
    : network_(network), options_(options) {
  if (options_.theta_override > 0) {
    theta_ = options_.theta_override;
  } else {
    const double theta = options_.theta_per_vertex *
                         static_cast<double>(network_.num_vertices());
    theta_ = std::min<uint64_t>(
        options_.max_theta,
        std::max<uint64_t>(64, static_cast<uint64_t>(std::llround(theta))));
  }
}

void DynamicRrIndex::Build() {
  PITEX_CHECK_MSG(!built_, "Build() called twice");
  built_ = true;
  graphs_.resize(theta_);
  roots_.resize(theta_);
  containing_.assign(network_.num_vertices(), {});
  dirty_mark_.assign(network_.num_vertices(), 0);
  envelope_ = EnvelopeTable(network_.graph, network_.influence);
  // Arena-staged generation against the envelope mirror: the same table
  // the static build materializes, so the initial state is bit-identical
  // to RrIndex::Build with equal options and seed.
  for (uint64_t i = 0; i < theta_; ++i) {
    Rng rng = StreamFor(options_.seed, i, /*version=*/0);
    roots_[i] =
        static_cast<VertexId>(rng.NextBounded(network_.num_vertices()));
    arena_.Clear();
    arena_.Generate(network_.graph, envelope_, roots_[i], &rng, i);
    arena_.Export(0, &graphs_[i]);
  }
  for (uint32_t id = 0; id < graphs_.size(); ++id) {
    for (VertexId v : graphs_[id].vertices) containing_[v].push_back(id);
  }
  MarkAllChunksDirty();
}

void DynamicRrIndex::MarkAllChunksDirty() {
  sketch_chunk_dirty_.assign(RrSketchPool::SketchChunks(graphs_.size()), 1);
  containing_chunk_dirty_.assign(
      RrSketchPool::ContainingChunks(containing_.size()), 1);
}

RrSketchPool DynamicRrIndex::Pack() const {
  PITEX_CHECK_MSG(built_, "call Build() first");
  packed_ = RrSketchPool::Repack(packed_, graphs_, containing_,
                                 sketch_chunk_dirty_, containing_chunk_dirty_);
  std::fill(sketch_chunk_dirty_.begin(), sketch_chunk_dirty_.end(), 0);
  std::fill(containing_chunk_dirty_.begin(), containing_chunk_dirty_.end(), 0);
  return packed_;
}

void DynamicRrIndex::ApplyUpdates(
    std::span<const EdgeInfluenceUpdate> updates) {
  PITEX_CHECK_MSG(built_, "call Build() before ApplyUpdates()");
  if (updates.empty()) return;
  ++stats_.update_batches;

  for (const EdgeInfluenceUpdate& update : updates) {
    const EdgeId e = update.edge;
    PITEX_CHECK(e < network_.num_edges());
    ++version_;
    ++stats_.edges_updated;

    // Transitions are taken in the float-quantized envelope space the
    // sketches were sampled in (EnvelopeProbability), so the coupling
    // conditionals below are exact w.r.t. the stored thresholds.
    const auto p_old = static_cast<double>(envelope_.Prob(e));
    double p_new_raw = 0.0;
    for (const EdgeTopicEntry& entry : update.entries) {
      PITEX_CHECK_MSG(entry.prob >= 0.0 && entry.prob <= 1.0,
                      "edge probability out of [0, 1]");
      p_new_raw = std::max(p_new_raw, entry.prob);
    }
    const auto p_new =
        static_cast<double>(EnvelopeProbability(p_new_raw));
    envelope_.Update(network_.graph, e, p_new_raw);

    // Only graphs containing head(e) ever probed e. Snapshot the list:
    // repairs splice containment as membership changes. Each examined
    // graph's members are dirty (they read p(e) through it) before the
    // repair; RepairGraph marks the members an expansion adds.
    const VertexId head = network_.graph.Head(e);
    affected_.assign(containing_[head].begin(), containing_[head].end());
    for (const uint32_t id : affected_) {
      ++stats_.graphs_examined;
      MarkDirty(graphs_[id].vertices);
      Rng rng = StreamFor(options_.seed, id, version_);
      RepairGraph(id, e, p_old, p_new, &rng);
    }
  }

  // Fold the batch into the influence CSR once: only the chunks holding
  // an updated edge are rebuilt, the rest are shared. Updates
  // applied sequentially, so each edge keeps its *last* entries, matching
  // the envelope transitions above: collected in reverse batch order, a
  // stable sort by edge puts each edge's last update first, which is the
  // one std::unique keeps.
  replacements_.clear();
  for (auto it = updates.rbegin(); it != updates.rend(); ++it) {
    replacements_.push_back(EdgeTopicsReplacement{it->edge, it->entries});
  }
  std::stable_sort(replacements_.begin(), replacements_.end(),
                   [](const EdgeTopicsReplacement& a,
                      const EdgeTopicsReplacement& b) {
                     return a.edge < b.edge;
                   });
  replacements_.erase(
      std::unique(replacements_.begin(), replacements_.end(),
                  [](const EdgeTopicsReplacement& a,
                     const EdgeTopicsReplacement& b) {
                    return a.edge == b.edge;
                  }),
      replacements_.end());
  network_.influence = ReplaceEdgeTopics(network_.influence, replacements_);
}

void DynamicRrIndex::MarkDirty(std::span<const VertexId> vertices) {
  for (const VertexId v : vertices) {
    if (dirty_mark_[v] == 0) {
      dirty_mark_[v] = 1;
      dirty_.push_back(v);
    }
  }
}

void DynamicRrIndex::ClearDirtyVertices() {
  for (const VertexId v : dirty_) dirty_mark_[v] = 0;
  dirty_.clear();
}

const char* ValidateBatch(std::span<const EdgeInfluenceUpdate> updates,
                          size_t num_edges) {
  for (const EdgeInfluenceUpdate& update : updates) {
    if (update.edge >= num_edges) return "references an unknown edge";
    for (const EdgeTopicEntry& entry : update.entries) {
      if (!std::isfinite(entry.prob) || entry.prob < 0.0 || entry.prob > 1.0) {
        return "probability out of [0, 1]";
      }
    }
  }
  return nullptr;
}

void DynamicRrIndex::UpdateEdgeTopics(EdgeId edge,
                                      std::span<const EdgeTopicEntry> entries) {
  EdgeInfluenceUpdate update;
  update.edge = edge;
  update.entries.assign(entries.begin(), entries.end());
  ApplyUpdates(std::span(&update, 1));
}

void DynamicRrIndex::RestoreModel(
    std::span<const EdgeInfluenceUpdate> replacements, uint64_t version) {
  PITEX_CHECK_MSG(!built_, "RestoreModel() must precede Build()/Adopt");
  if (!replacements.empty()) {
    std::vector<EdgeTopicsReplacement> folded;
    folded.reserve(replacements.size());
    for (const EdgeInfluenceUpdate& r : replacements) {
      PITEX_CHECK(r.edge < network_.num_edges());
      folded.push_back(EdgeTopicsReplacement{r.edge, r.entries});
    }
    network_.influence = ReplaceEdgeTopics(network_.influence, folded);
  }
  version_ = version;
}

void DynamicRrIndex::AdoptSketches(const RrIndex& checkpoint) {
  PITEX_CHECK_MSG(!built_, "AdoptSketches() on an already built index");
  built_ = true;
  theta_ = checkpoint.theta();
  const RrSketchPool& pool = checkpoint.pool();
  const size_t n = pool.num_sketches();
  graphs_.resize(n);
  roots_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const RRView view = pool.View(i);
    RRGraph& rr = graphs_[i];
    rr.root = view.root;
    rr.vertices.assign(view.vertices.begin(), view.vertices.end());
    rr.offsets.assign(view.offsets.begin(), view.offsets.end());
    rr.edges.assign(view.edges.begin(), view.edges.end());
    roots_[i] = view.root;
  }
  containing_.assign(network_.num_vertices(), {});
  for (uint32_t id = 0; id < graphs_.size(); ++id) {
    for (VertexId v : graphs_[id].vertices) containing_[v].push_back(id);
  }
  dirty_mark_.assign(network_.num_vertices(), 0);
  envelope_ = EnvelopeTable(network_.graph, network_.influence);
  // The checkpoint's pool is what Pack() would build from these
  // sketches; adopting it keeps the digests the load set on its chunks.
  packed_ = pool;
  sketch_chunk_dirty_.assign(RrSketchPool::SketchChunks(n), 0);
  containing_chunk_dirty_.assign(
      RrSketchPool::ContainingChunks(containing_.size()), 0);
}

void DynamicRrIndex::RepairGraph(uint32_t id, EdgeId e, double p_old,
                                 double p_new, Rng* rng) {
  RRGraph& rr = graphs_[id];
  auto& edges = repair_edges_;
  DecomposeRRGraphInto(rr, &edges);
  const auto it =
      std::find_if(edges.begin(), edges.end(),
                   [e](const GlobalEdgeSample& s) { return s.edge == e; });

  bool changed = false;
  if (it != edges.end()) {
    // Live under the old model with threshold c = U(e) < p_old. The
    // exact conditional keeps it live iff U(e) < p_new.
    if (static_cast<double>(it->threshold) >= p_new) {
      edges.erase(it);
      changed = true;  // prune below: some vertices may lose the root
    }
    // else: survives, threshold unchanged (U(e) < p_new already).
  } else if (p_new > p_old && p_old < 1.0) {
    // Dead under the old model: latent U(e) uniform on [p_old, 1).
    if (rng->NextDouble() < (p_new - p_old) / (1.0 - p_old)) {
      const VertexId tail = network_.graph.Tail(e);
      const VertexId head = network_.graph.Head(e);
      const auto threshold = static_cast<float>(
          p_old + rng->NextDouble() * (p_new - p_old));
      edges.push_back(GlobalEdgeSample{tail, head, e, threshold});
      changed = true;

      // If the tail newly reaches the root, reverse sampling expands:
      // every vertex entering the graph flips its in-edge coins for the
      // first time, through the same combined-draw + geometric-skip
      // probe the bulk build uses (SampleLiveInEdges) against the
      // envelope mirror, which reflects all updates applied so far.
      if (!rr.LocalIndex(tail).has_value()) {
        if (present_mark_.size() < network_.num_vertices()) {
          present_mark_.resize(network_.num_vertices(), 0);
        }
        if (++present_epoch_ == 0) {
          std::fill(present_mark_.begin(), present_mark_.end(), 0);
          present_epoch_ = 1;
        }
        const uint32_t epoch = present_epoch_;
        for (const VertexId v : rr.vertices) present_mark_[v] = epoch;
        present_mark_[tail] = epoch;
        std::vector<VertexId>& stack = repair_stack_;
        stack.assign(1, tail);
        while (!stack.empty()) {
          const VertexId x = stack.back();
          stack.pop_back();
          const auto in = network_.graph.InEdges(x);
          SampleLiveInEdges(envelope_.InEnvelopes(network_.graph, x),
                            envelope_.VertexMax(x), rng,
                            [&](size_t j, double u) {
                              const auto& [y, in_edge] = in[j];
                              edges.push_back(GlobalEdgeSample{
                                  y, x, in_edge, static_cast<float>(u)});
                              if (present_mark_[y] != epoch) {
                                present_mark_[y] = epoch;
                                stack.push_back(y);
                              }
                            });
        }
      }
    }
  }
  if (!changed) return;
  ++stats_.graphs_changed;

  // Re-close the sketch (keep exactly the vertices still reaching the
  // root — an edge death can orphan a subtree; an expansion adds one),
  // then splice containment: only vertices that left or joined the
  // sketch change their lists (both vertex arrays are sorted). The arena
  // rebuild reuses rr's own capacity.
  old_vertices_.assign(rr.vertices.begin(), rr.vertices.end());
  arena_.RebuildRepairedSketch(roots_[id], network_.num_vertices(), edges,
                               &rr);
  MarkDirty(rr.vertices);
  sketch_chunk_dirty_[id / RrSketchPool::kSketchesPerChunk] = 1;
  const auto splice = [&](VertexId v, bool joined) {
    auto& list = containing_[v];
    const auto at = std::lower_bound(list.begin(), list.end(), id);
    if (joined) {
      list.insert(at, id);
    } else {
      list.erase(at);
    }
    containing_chunk_dirty_[v / RrSketchPool::kVerticesPerChunk] = 1;
  };
  size_t i = 0, j = 0;
  while (i < old_vertices_.size() || j < rr.vertices.size()) {
    if (j == rr.vertices.size() ||
        (i < old_vertices_.size() && old_vertices_[i] < rr.vertices[j])) {
      splice(old_vertices_[i++], /*joined=*/false);
    } else if (i == old_vertices_.size() || rr.vertices[j] < old_vertices_[i]) {
      splice(rr.vertices[j++], /*joined=*/true);
    } else {
      ++i;
      ++j;
    }
  }
}

Estimate DynamicRrIndex::EstimateInfluence(VertexId u,
                                           const EdgeProbFn& probs) {
  PITEX_CHECK_MSG(built_, "call Build() first");
  Estimate result;
  uint64_t hits = 0;
  for (const uint32_t id : containing_[u]) {
    ++result.samples;
    if (IsReachable(graphs_[id], u, probs, &result.edges_visited,
                    &scratch_)) {
      ++hits;
    }
  }
  result.influence = static_cast<double>(hits) / static_cast<double>(theta_) *
                     static_cast<double>(network_.num_vertices());
  result.influence = std::max(result.influence, 1.0);
  const auto scale = static_cast<double>(network_.num_vertices());
  result.std_error = SampleMeanStdError(
      static_cast<double>(hits) * scale,
      static_cast<double>(hits) * scale * scale, theta_);
  return result;
}

size_t DynamicRrIndex::SizeBytes() const {
  size_t bytes = sizeof(DynamicRrIndex);
  for (const RRGraph& rr : graphs_) bytes += rr.SizeBytes();
  for (const auto& list : containing_) {
    bytes += list.capacity() * sizeof(uint32_t) + sizeof(list);
  }
  bytes += roots_.capacity() * sizeof(VertexId);
  bytes += dirty_mark_.capacity() + dirty_.capacity() * sizeof(VertexId);
  bytes += envelope_.SizeBytes();
  return bytes;
}

}  // namespace pitex
