#include "src/model/influence_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "src/util/check.h"

namespace pitex {

float EnvelopeProbability(double p) {
  PITEX_DCHECK(p >= 0.0 && p <= 1.0);
  auto f = static_cast<float>(p);  // round-to-nearest
  if (static_cast<double>(f) < p) f = std::nextafterf(f, 2.0f);
  return f;
}

EnvelopeTable::EnvelopeTable(const Graph& graph,
                             const InfluenceGraph& influence) {
  in_env_.resize(graph.num_edges());
  in_pos_.resize(graph.num_edges());
  vertex_max_.resize(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const uint64_t base = graph.InEdgeOffset(v);
    const auto in = graph.InEdges(v);
    float vmax = 0.0f;
    for (size_t j = 0; j < in.size(); ++j) {
      const float p = EnvelopeProbability(influence.MaxProb(in[j].edge));
      in_env_[base + j] = p;
      in_pos_[in[j].edge] = static_cast<uint32_t>(base + j);
      vmax = std::max(vmax, p);
    }
    vertex_max_[v] = vmax;
  }
}

void EnvelopeTable::Update(const Graph& graph, EdgeId e, double max_prob) {
  in_env_[in_pos_[e]] = EnvelopeProbability(max_prob);
  const VertexId head = graph.Head(e);
  float vmax = 0.0f;
  for (const float p : InEnvelopes(graph, head)) vmax = std::max(vmax, p);
  vertex_max_[head] = vmax;
}

size_t EnvelopeTable::SizeBytes() const {
  return in_env_.capacity() * sizeof(float) +
         in_pos_.capacity() * sizeof(uint32_t) +
         vertex_max_.capacity() * sizeof(float);
}

double InfluenceGraph::EdgeTopicProb(EdgeId e, TopicId z) const {
  for (const auto& entry : EdgeTopics(e)) {
    if (entry.topic == z) return entry.prob;
  }
  return 0.0;
}

double InfluenceGraph::EdgeProb(EdgeId e, const TopicPosterior& posterior) const {
  double p = 0.0;
  for (const auto& entry : EdgeTopics(e)) {
    p += entry.prob * posterior[entry.topic];
  }
  return p;
}

size_t InfluenceGraph::Chunk::SizeBytes() const {
  return sizeof(Chunk) + entries.size() * sizeof(EdgeTopicEntry);
}

uint64_t InfluenceGraph::Chunk::Digest(uint64_t* bytes_hashed) const {
  return digest.Get(
      [this](Hash64* h) {
        h->UpdateU64(num_edges);
        EmitLittleEndian<4>(
            offsets.data() + 1, num_edges * sizeof(uint32_t),
            [h](const void* data, size_t size) { h->Update(data, size); });
        // Entries carry padding, so encode (topic u32, prob bits u64)
        // records into a block and hash the block.
        constexpr size_t kRecord = 12;
        unsigned char block[kRecord * 256];
        size_t used = 0;
        for (const EdgeTopicEntry& entry : entries) {
          const uint64_t bits = std::bit_cast<uint64_t>(entry.prob);
          for (size_t i = 0; i < 4; ++i) {
            block[used + i] = static_cast<unsigned char>(entry.topic >> (8 * i));
          }
          for (size_t i = 0; i < 8; ++i) {
            block[used + 4 + i] = static_cast<unsigned char>(bits >> (8 * i));
          }
          used += kRecord;
          if (used == sizeof(block)) {
            h->Update(block, used);
            used = 0;
          }
        }
        h->Update(block, used);
      },
      bytes_hashed);
}

uint64_t InfluenceGraph::Digest(uint64_t* bytes_hashed) const {
  Hash64 h;
  h.UpdateU64(num_edges_);
  for (const auto& chunk : chunks_) h.UpdateU64(chunk->Digest(bytes_hashed));
  return h.digest();
}

void InfluenceGraph::AppendEdge(std::span<const EdgeTopicEntry> entries,
                                Chunk* chunk) {
  double max_p = 0.0;
  for (const EdgeTopicEntry& entry : entries) {
    max_p = std::max(max_p, entry.prob);
  }
  chunk->entries.insert(chunk->entries.end(), entries.begin(), entries.end());
  const size_t j = chunk->num_edges++;
  chunk->offsets[j + 1] = static_cast<uint32_t>(chunk->entries.size());
  chunk->max_prob[j] = max_p;
}

size_t InfluenceGraph::SizeBytes() const {
  size_t bytes = chunks_.capacity() * sizeof(chunks_[0]);
  for (const auto& chunk : chunks_) bytes += chunk->SizeBytes();
  return bytes;
}

size_t InfluenceGraph::BytesNotSharedWith(const InfluenceGraph& other) const {
  size_t bytes = 0;
  for (size_t c = 0; c < chunks_.size(); ++c) {
    if (c >= other.chunks_.size() || chunks_[c] != other.chunks_[c]) {
      bytes += chunks_[c]->SizeBytes();
    }
  }
  return bytes;
}

InfluenceGraph ReplaceEdgeTopics(
    const InfluenceGraph& influence,
    std::span<const EdgeTopicsReplacement> replacements) {
  using Chunk = InfluenceGraph::Chunk;
  constexpr size_t kChunkEdges = InfluenceGraph::kChunkEdges;
  // Validate each replacement into a shared scratch (kept entries are
  // sorted by topic with zeros dropped, like InfluenceGraphBuilder).
  std::vector<std::pair<uint32_t, uint32_t>> kept_range(replacements.size());
  std::vector<EdgeTopicEntry> kept;
  for (uint32_t r = 0; r < replacements.size(); ++r) {
    const auto& [e, entries] = replacements[r];
    PITEX_CHECK(e < influence.num_edges());
    const auto begin = static_cast<uint32_t>(kept.size());
    for (const EdgeTopicEntry& entry : entries) {
      PITEX_CHECK(entry.prob >= 0.0 && entry.prob <= 1.0);
      if (entry.prob > 0.0) kept.push_back(entry);
    }
    std::sort(kept.begin() + begin, kept.end(),
              [](const EdgeTopicEntry& a, const EdgeTopicEntry& b) {
                return a.topic < b.topic;
              });
    for (size_t i = begin + 1; i < kept.size(); ++i) {
      PITEX_CHECK_MSG(kept[i].topic != kept[i - 1].topic, "duplicate topic");
    }
    kept_range[r] = {begin, static_cast<uint32_t>(kept.size())};
  }
  // Replacements in edge order, so each touched chunk is one run.
  std::vector<uint32_t> order(replacements.size());
  for (uint32_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return replacements[a].edge < replacements[b].edge;
  });
  for (size_t i = 1; i < order.size(); ++i) {
    PITEX_CHECK_MSG(
        replacements[order[i]].edge != replacements[order[i - 1]].edge,
        "edge replaced twice in one batch");
  }

  // Share every chunk, then rebuild the touched ones: unchanged edges
  // of a touched chunk copy their slice of the old chunk.
  InfluenceGraph out = influence;
  for (size_t i = 0; i < order.size();) {
    const size_t c = replacements[order[i]].edge / kChunkEdges;
    const Chunk& old = *influence.chunks_[c];
    auto chunk = std::make_shared<Chunk>();
    chunk->entries.reserve(old.entries.size() + kept.size());
    for (size_t j = 0; j < old.num_edges; ++j) {
      const auto e = static_cast<EdgeId>(c * kChunkEdges + j);
      std::span<const EdgeTopicEntry> entries;
      if (i < order.size() && replacements[order[i]].edge == e) {
        const auto [begin, end] = kept_range[order[i]];
        entries = {kept.data() + begin, kept.data() + end};
        ++i;
      } else {
        entries = {old.entries.data() + old.offsets[j],
                   old.entries.data() + old.offsets[j + 1]};
      }
      InfluenceGraph::AppendEdge(entries, chunk.get());
    }
    out.chunks_[c] = std::move(chunk);
  }
  return out;
}

InfluenceGraphBuilder::InfluenceGraphBuilder(size_t num_edges)
    : num_edges_(num_edges), staged_(num_edges) {}

void InfluenceGraphBuilder::SetEdgeTopics(
    EdgeId e, std::span<const EdgeTopicEntry> entries) {
  PITEX_CHECK(e < num_edges_);
  PITEX_CHECK_MSG(staged_[e].empty(), "edge topic vector set twice");
  auto& dst = staged_[e];
  dst.reserve(entries.size());
  for (const auto& entry : entries) {
    PITEX_CHECK(entry.prob >= 0.0 && entry.prob <= 1.0);
    if (entry.prob > 0.0) dst.push_back(entry);
  }
  std::sort(dst.begin(), dst.end(),
            [](const EdgeTopicEntry& a, const EdgeTopicEntry& b) {
              return a.topic < b.topic;
            });
  for (size_t i = 1; i < dst.size(); ++i) {
    PITEX_CHECK_MSG(dst[i].topic != dst[i - 1].topic, "duplicate topic");
  }
}

InfluenceGraph InfluenceGraphBuilder::Build() {
  using Chunk = InfluenceGraph::Chunk;
  constexpr size_t kChunkEdges = InfluenceGraph::kChunkEdges;
  InfluenceGraph g;
  g.num_edges_ = num_edges_;
  g.chunks_.reserve((num_edges_ + kChunkEdges - 1) / kChunkEdges);
  for (size_t first = 0; first < num_edges_; first += kChunkEdges) {
    const size_t last = std::min(num_edges_, first + kChunkEdges);
    auto chunk = std::make_shared<Chunk>();
    size_t total = 0;
    for (size_t e = first; e < last; ++e) total += staged_[e].size();
    chunk->entries.reserve(total);
    for (size_t e = first; e < last; ++e) {
      InfluenceGraph::AppendEdge(staged_[e], chunk.get());
    }
    g.chunks_.push_back(std::move(chunk));
  }
  staged_.clear();
  return g;
}

namespace {

template <typename KeepEdge>
ReachableSet Bfs(const Graph& graph, VertexId u, KeepEdge keep) {
  ReachableSet result;
  std::vector<uint8_t> visited(graph.num_vertices(), 0);
  std::vector<VertexId> frontier{u};
  visited[u] = 1;
  result.vertices.push_back(u);
  while (!frontier.empty()) {
    const VertexId v = frontier.back();
    frontier.pop_back();
    for (const auto& [w, e] : graph.OutEdges(v)) {
      if (!keep(e)) continue;
      if (!visited[w]) {
        visited[w] = 1;
        result.vertices.push_back(w);
        frontier.push_back(w);
      }
    }
  }
  // Count edges with both endpoints in the reachable set and positive
  // probability (|E_W(u)| in the paper's notation).
  for (VertexId v : result.vertices) {
    for (const auto& [w, e] : graph.OutEdges(v)) {
      if (keep(e) && visited[w]) ++result.num_internal_edges;
    }
  }
  return result;
}

}  // namespace

ReachableSet ComputeReachableSet(const Graph& graph,
                                 const InfluenceGraph& influence,
                                 const TopicPosterior& posterior, VertexId u) {
  return Bfs(graph, u,
             [&](EdgeId e) { return influence.EdgeProb(e, posterior) > 0.0; });
}

ReachableSet ComputeMaxReachableSet(const Graph& graph,
                                    const InfluenceGraph& influence,
                                    VertexId u) {
  return Bfs(graph, u, [&](EdgeId e) { return influence.MaxProb(e) > 0.0; });
}

}  // namespace pitex
