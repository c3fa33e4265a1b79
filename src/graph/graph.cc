#include "src/graph/graph.h"

#include <utility>

#include "src/util/check.h"

namespace pitex {

double Graph::AverageDegree() const {
  if (num_vertices() == 0) return 0.0;
  return static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

uint64_t Graph::TopologyDigest(uint64_t* bytes_hashed) const {
  const auto hash = [this](Hash64* h) {
    h->UpdateU64(num_vertices());
    h->UpdateU64(num_edges());
    const auto sink = [h](const void* data, size_t size) {
      h->Update(data, size);
    };
    EmitLittleEndian<4>(tails_.data(), tails_.size_bytes(), sink);
    EmitLittleEndian<4>(heads_.data(), heads_.size_bytes(), sink);
  };
  if (storage_ == nullptr) {  // the empty graph
    Hash64 h;
    hash(&h);
    return h.digest();
  }
  return storage_->digest.Get(hash, bytes_hashed);
}

GraphBuilder::GraphBuilder(size_t num_vertices)
    : num_vertices_(num_vertices) {}

EdgeId GraphBuilder::AddEdge(VertexId u, VertexId v) {
  PITEX_CHECK(u < num_vertices_ && v < num_vertices_);
  edges_.emplace_back(u, v);
  return static_cast<EdgeId>(edges_.size() - 1);
}

Graph GraphBuilder::Build() {
  auto storage = std::make_shared<Graph::Storage>();
  Graph::Storage& g = *storage;
  const size_t n = num_vertices_;
  const size_t m = edges_.size();
  g.tails.resize(m);
  g.heads.resize(m);

  // Counting sort into CSR for both directions.
  g.out_offsets.assign(n + 1, 0);
  g.in_offsets.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.out_offsets[u + 1];
    ++g.in_offsets[v + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    g.out_offsets[i + 1] += g.out_offsets[i];
    g.in_offsets[i + 1] += g.in_offsets[i];
  }
  g.out_adj.resize(m);
  g.in_adj.resize(m);
  std::vector<uint64_t> out_pos(g.out_offsets.begin(),
                                g.out_offsets.end() - 1);
  std::vector<uint64_t> in_pos(g.in_offsets.begin(), g.in_offsets.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    const auto [u, v] = edges_[e];
    const auto id = static_cast<EdgeId>(e);
    g.tails[e] = u;
    g.heads[e] = v;
    g.out_adj[out_pos[u]++] = AdjEntry{v, id};
    g.in_adj[in_pos[v]++] = AdjEntry{u, id};
  }
  edges_.clear();

  Graph graph;
  graph.out_offsets_ = g.out_offsets;
  graph.out_adj_ = g.out_adj;
  graph.in_offsets_ = g.in_offsets;
  graph.in_adj_ = g.in_adj;
  graph.tails_ = g.tails;
  graph.heads_ = g.heads;
  graph.storage_ = std::move(storage);
  return graph;
}

}  // namespace pitex
