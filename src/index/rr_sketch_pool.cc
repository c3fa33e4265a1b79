#include "src/index/rr_sketch_pool.h"

#include <algorithm>
#include <utility>

#include "src/util/check.h"

namespace pitex {

size_t RrSketchPool::SketchChunk::SizeBytes() const {
  return sizeof(SketchChunk) + vertices.size() * sizeof(VertexId) +
         offsets.size() * sizeof(uint32_t) +
         edges.size() * sizeof(RRLocalEdge);
}

size_t RrSketchPool::ContainingChunk::SizeBytes() const {
  return sizeof(ContainingChunk) + ids.size() * sizeof(uint32_t);
}

template <typename ViewOf>
std::shared_ptr<const RrSketchPool::SketchChunk> RrSketchPool::PackSketchChunk(
    size_t first, size_t last, ViewOf view_of) {
  auto chunk = std::make_shared<SketchChunk>();
  SketchChunk& c = *chunk;
  const size_t s = last - first;
  c.num_sketches = s;
  for (size_t j = 0; j < s; ++j) {
    const RRView rr = view_of(first + j);
    PITEX_DCHECK(rr.offsets.size() == rr.vertices.size() + 1);
    c.roots[j] = rr.root;
    c.vertex_starts[j + 1] = c.vertex_starts[j] + rr.vertices.size();
    c.edge_starts[j + 1] = c.edge_starts[j] + rr.edges.size();
    c.max_vertices = std::max(c.max_vertices, rr.vertices.size());
  }
  c.vertices.resize(c.vertex_starts[s]);
  c.offsets.resize(c.vertex_starts[s] + s);
  c.edges.resize(c.edge_starts[s]);
  for (size_t j = 0; j < s; ++j) {
    const RRView rr = view_of(first + j);
    std::copy(rr.vertices.begin(), rr.vertices.end(),
              c.vertices.begin() + static_cast<ptrdiff_t>(c.vertex_starts[j]));
    std::copy(rr.offsets.begin(), rr.offsets.end(),
              c.offsets.begin() +
                  static_cast<ptrdiff_t>(c.vertex_starts[j] + j));
    std::copy(rr.edges.begin(), rr.edges.end(),
              c.edges.begin() + static_cast<ptrdiff_t>(c.edge_starts[j]));
  }
  return chunk;
}

template <typename ViewOf>
RrSketchPool RrSketchPool::PackAll(size_t num_sketches, size_t num_vertices,
                                   ViewOf view_of, ThreadPool* pool) {
  RrSketchPool out;
  out.num_sketches_ = num_sketches;
  out.num_vertices_ = num_vertices;
  out.sketch_chunks_.resize(SketchChunks(num_sketches));
  const auto pack_one = [&](size_t c) {
    const size_t first = c * kSketchesPerChunk;
    out.sketch_chunks_[c] = PackSketchChunk(
        first, std::min(num_sketches, first + kSketchesPerChunk), view_of);
  };
  if (pool != nullptr && out.sketch_chunks_.size() >= 2) {
    ParallelFor(pool, 0, out.sketch_chunks_.size(), pack_one);
  } else {
    for (size_t c = 0; c < out.sketch_chunks_.size(); ++c) pack_one(c);
  }
  out.BuildContaining();
  out.Summarize();
  return out;
}

RrSketchPool RrSketchPool::Pack(std::span<const RRGraph> graphs,
                                size_t num_vertices) {
  return PackAll(graphs.size(), num_vertices,
                 [graphs](size_t i) { return graphs[i].View(); });
}

RrSketchPool RrSketchPool::PackFrom(std::span<const SketchArena> arenas,
                                    uint64_t num_sketches,
                                    size_t num_vertices, ThreadPool* pool) {
  const size_t s = num_sketches;
  // Locate each sample across the arenas; the chunk packs then size
  // every array exactly from the arena views — no growth, no staging.
  std::vector<std::pair<uint32_t, uint32_t>> where(s);
  size_t located = 0;
  for (uint32_t a = 0; a < arenas.size(); ++a) {
    for (uint32_t slot = 0; slot < arenas[a].num_sketches(); ++slot) {
      const uint64_t sample = arenas[a].sample_index(slot);
      PITEX_CHECK_MSG(sample < s, "arena sample index out of range");
      where[sample] = {a, slot};
      ++located;
    }
  }
  PITEX_CHECK_MSG(located == s, "arenas must cover every sample exactly once");
  for (size_t i = 0; i < s; ++i) {
    const auto [a, slot] = where[i];
    // located == s plus this round-trip rules out duplicate samples
    // silently shadowing a missing one (O(s), negligible vs the copy).
    PITEX_CHECK_MSG(arenas[a].sample_index(slot) == i,
                    "duplicate arena sample index");
  }
  return PackAll(
      s, num_vertices,
      [&](size_t i) { return arenas[where[i].first].View(where[i].second); },
      pool);
}

RrSketchPool RrSketchPool::FromFlat(const Flat& flat, size_t num_vertices) {
  return PackAll(flat.roots.size(), num_vertices, [&flat](size_t i) {
    const uint64_t vb = flat.vertex_starts[i];
    const uint64_t n = flat.vertex_starts[i + 1] - vb;
    const uint64_t eb = flat.edge_starts[i];
    return RRView{flat.roots[i],
                  {flat.vertices.data() + vb, n},
                  {flat.offsets.data() + vb + i, n + 1},
                  {flat.edges.data() + eb, flat.edge_starts[i + 1] - eb}};
  });
}

RrSketchPool RrSketchPool::FromSketchChunks(
    std::vector<std::shared_ptr<const SketchChunk>> chunks,
    size_t num_sketches, size_t num_vertices) {
  PITEX_CHECK(chunks.size() == SketchChunks(num_sketches));
  RrSketchPool out;
  out.num_sketches_ = num_sketches;
  out.num_vertices_ = num_vertices;
  out.sketch_chunks_ = std::move(chunks);
  out.BuildContaining();
  out.Summarize();
  return out;
}

RrSketchPool RrSketchPool::Repack(
    const RrSketchPool& base, std::span<const RRGraph> graphs,
    std::span<const std::vector<uint32_t>> containing,
    std::span<const uint8_t> sketch_dirty,
    std::span<const uint8_t> containing_dirty) {
  const size_t s = graphs.size();
  const size_t n = containing.size();
  PITEX_CHECK(sketch_dirty.size() == SketchChunks(s));
  PITEX_CHECK(containing_dirty.size() == ContainingChunks(n));
  RrSketchPool out = base;
  out.num_sketches_ = s;
  out.num_vertices_ = n;
  out.sketch_chunks_.resize(sketch_dirty.size());
  out.containing_chunks_.resize(containing_dirty.size());
  for (size_t c = 0; c < sketch_dirty.size(); ++c) {
    if (sketch_dirty[c] == 0) {
      PITEX_CHECK_MSG(out.sketch_chunks_[c] != nullptr,
                      "unpacked sketch chunk not flagged");
      continue;
    }
    const size_t first = c * kSketchesPerChunk;
    out.sketch_chunks_[c] =
        PackSketchChunk(first, std::min(s, first + kSketchesPerChunk),
                        [graphs](size_t i) { return graphs[i].View(); });
  }
  for (size_t c = 0; c < containing_dirty.size(); ++c) {
    if (containing_dirty[c] == 0) {
      PITEX_CHECK_MSG(out.containing_chunks_[c] != nullptr,
                      "unpacked containing chunk not flagged");
      continue;
    }
    const size_t first = c * kVerticesPerChunk;
    const size_t last = std::min(n, first + kVerticesPerChunk);
    auto chunk = std::make_shared<ContainingChunk>();
    for (size_t v = first; v < last; ++v) {
      chunk->starts[v - first + 1] =
          chunk->starts[v - first] + containing[v].size();
    }
    chunk->ids.resize(chunk->starts[last - first]);
    for (size_t v = first; v < last; ++v) {
      std::copy(containing[v].begin(), containing[v].end(),
                chunk->ids.begin() +
                    static_cast<ptrdiff_t>(chunk->starts[v - first]));
    }
    out.containing_chunks_[c] = std::move(chunk);
  }
  out.Summarize();
  return out;
}

void RrSketchPool::BuildContaining() {
  const size_t n = num_vertices_;
  // Counting pass: theta(u) per vertex.
  std::vector<uint64_t> count(n, 0);
  for (const auto& chunk : sketch_chunks_) {
    for (const VertexId v : chunk->vertices) {
      PITEX_DCHECK(v < n);
      ++count[v];
    }
  }
  // Size each chunk exactly; cursor[v] is where v's next id goes.
  std::vector<uint32_t*> cursor(n);
  containing_chunks_.resize(ContainingChunks(n));
  for (size_t c = 0; c < containing_chunks_.size(); ++c) {
    const size_t first = c * kVerticesPerChunk;
    const size_t last = std::min(n, first + kVerticesPerChunk);
    auto chunk = std::make_shared<ContainingChunk>();
    for (size_t v = first; v < last; ++v) {
      chunk->starts[v - first + 1] = chunk->starts[v - first] + count[v];
    }
    chunk->ids.resize(chunk->starts[last - first]);
    for (size_t v = first; v < last; ++v) {
      cursor[v] = chunk->ids.data() + chunk->starts[v - first];
    }
    containing_chunks_[c] = std::move(chunk);
  }
  // One fill in ascending sketch-id order, so each list is sorted.
  for (size_t c = 0; c < sketch_chunks_.size(); ++c) {
    const SketchChunk& chunk = *sketch_chunks_[c];
    for (size_t j = 0; j < chunk.num_sketches; ++j) {
      const auto id = static_cast<uint32_t>(c * kSketchesPerChunk + j);
      for (uint64_t k = chunk.vertex_starts[j]; k < chunk.vertex_starts[j + 1];
           ++k) {
        *cursor[chunk.vertices[k]]++ = id;
      }
    }
  }
}

void RrSketchPool::Summarize() {
  total_vertices_ = 0;
  total_edges_ = 0;
  max_sketch_vertices_ = 0;
  size_bytes_ = sizeof(RrSketchPool) +
                sketch_chunks_.size() * sizeof(sketch_chunks_[0]) +
                containing_chunks_.size() * sizeof(containing_chunks_[0]);
  for (const auto& chunk : sketch_chunks_) {
    total_vertices_ += chunk->vertices.size();
    total_edges_ += chunk->edges.size();
    max_sketch_vertices_ = std::max(max_sketch_vertices_, chunk->max_vertices);
    size_bytes_ += chunk->SizeBytes();
  }
  for (const auto& chunk : containing_chunks_) {
    size_bytes_ += chunk->SizeBytes();
  }
}

size_t RrSketchPool::BytesNotSharedWith(const RrSketchPool& other) const {
  size_t bytes = 0;
  for (size_t c = 0; c < sketch_chunks_.size(); ++c) {
    if (c >= other.sketch_chunks_.size() ||
        sketch_chunks_[c] != other.sketch_chunks_[c]) {
      bytes += sketch_chunks_[c]->SizeBytes();
    }
  }
  for (size_t c = 0; c < containing_chunks_.size(); ++c) {
    if (c >= other.containing_chunks_.size() ||
        containing_chunks_[c] != other.containing_chunks_[c]) {
      bytes += containing_chunks_[c]->SizeBytes();
    }
  }
  return bytes;
}

}  // namespace pitex
