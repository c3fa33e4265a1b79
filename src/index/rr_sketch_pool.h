// Pooled storage for the offline RR-Graph index (Sec. 6.1): the theta
// sketches flattened into contiguous vertex, edge and offsets arrays (a
// CSR of per-sketch CSRs), plus a CSR-flattened inverted "containing"
// index.
//
// The IndexEst estimate path walks theta(u) tiny sketches per query; with
// one heap object per sketch (three vectors each) those walks chase
// pointers all over the heap and the allocator dominates build time. The
// pool keeps every sketch's data adjacent, hands out non-owning RRViews,
// and answers Containing(u) from one flat array per chunk — no
// per-sketch or per-vertex heap objects at all.
//
// The pool is a table of refcounted immutable chunks:
//   * a SketchChunk holds kSketchesPerChunk consecutive sketch ids as a
//     CSR of per-sketch CSRs. For local sketch j (n_j vertices, m_j
//     edges) of a chunk:
//       roots[j]                                        root vertex
//       vertices[vertex_starts[j] .. vertex_starts[j+1]) sorted vertex ids
//       offsets[vertex_starts[j] + j .. + n_j + 1)       local CSR from 0
//       edges[edge_starts[j] .. edge_starts[j+1])        local out-edges
//     The offsets position is derived: sketch j's block starts at
//     vertex_starts[j] + j because every earlier sketch of the chunk
//     contributed n + 1 entries.
//   * a ContainingChunk holds the containing lists of kVerticesPerChunk
//     consecutive vertices.
// A chunk is never mutated once built, so pools share chunks freely:
// DynamicRrIndex keeps the chunks it packed last and re-packs only the
// ones a repair dirtied (Repack), so a publish copies the chunks its
// batch changed and shares the rest with the previous snapshot.
//
// A sketch chunk is also the unit of persistence: index format v3
// (src/index/index_io.h) stores each one as a record of its arrays, and
// the chunk caches the Hash64 digest of that record the first time it
// is saved (or sets it when loaded), so a checkpoint re-hashes only the
// chunks built since the last one.

#ifndef PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
#define PITEX_SRC_INDEX_RR_SKETCH_POOL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/sketch_arena.h"
#include "src/util/serialize.h"
#include "src/util/thread_pool.h"

namespace pitex {

class RrSketchPool {
 public:
  /// Consecutive sketch ids per sketch chunk.
  static constexpr size_t kSketchesPerChunk = 256;
  /// Consecutive vertices per containing chunk.
  static constexpr size_t kVerticesPerChunk = 64;

  RrSketchPool() = default;

  /// Flattens per-sketch owning graphs into one pool and builds the
  /// inverted containing index with a counting pass (exact-size
  /// allocation, no push_back growth). `num_vertices` is the global
  /// vertex universe; every graph vertex must lie inside it.
  static RrSketchPool Pack(std::span<const RRGraph> graphs,
                           size_t num_vertices);

  /// Two-pass pack straight from build arenas, replacing the old
  /// copy-of-a-copy (owning staging RRGraphs, then Pack): pass one sizes
  /// every chunk exactly from per-arena counters; pass two copies each
  /// sketch's segments once — chunks in parallel when `pool` is
  /// non-null. The arenas' recorded sample indices must cover
  /// [0, num_sketches) exactly once; sketch i of the pool is the arena
  /// sketch with sample index i, so the result is bit-identical for any
  /// arena count / claim interleaving.
  static RrSketchPool PackFrom(std::span<const SketchArena> arenas,
                               uint64_t num_sketches, size_t num_vertices,
                               ThreadPool* pool = nullptr);

  /// Copy of `base` in which the sketch chunks flagged in `sketch_dirty`
  /// are re-packed from `graphs` and the containing chunks flagged in
  /// `containing_dirty` from `containing` (vertex u's ascending sketch
  /// ids); every other chunk is shared with `base`. The flag spans have
  /// one entry per chunk of the result; a chunk `base` lacks must be
  /// flagged. When the flags cover every chunk that changed since
  /// `base` was packed, the result equals Pack(graphs, containing.size())
  /// chunk for chunk.
  static RrSketchPool Repack(const RrSketchPool& base,
                             std::span<const RRGraph> graphs,
                             std::span<const std::vector<uint32_t>> containing,
                             std::span<const uint8_t> sketch_dirty,
                             std::span<const uint8_t> containing_dirty);

  /// Chunk counts for `num_sketches` sketches / `num_vertices` vertices.
  static size_t SketchChunks(size_t num_sketches) {
    return (num_sketches + kSketchesPerChunk - 1) / kSketchesPerChunk;
  }
  static size_t ContainingChunks(size_t num_vertices) {
    return (num_vertices + kVerticesPerChunk - 1) / kVerticesPerChunk;
  }

  size_t num_sketches() const { return num_sketches_; }
  bool empty() const { return num_sketches_ == 0; }

  /// Non-owning view of sketch i (valid while the pool is alive).
  RRView View(size_t i) const {
    const SketchChunk& c = *sketch_chunks_[i / kSketchesPerChunk];
    const size_t j = i % kSketchesPerChunk;
    const uint64_t vb = c.vertex_starts[j];
    const uint64_t n = c.vertex_starts[j + 1] - vb;
    const uint64_t eb = c.edge_starts[j];
    return RRView{c.roots[j],
                  {c.vertices.data() + vb, n},
                  {c.offsets.data() + vb + j, n + 1},
                  {c.edges.data() + eb, c.edge_starts[j + 1] - eb}};
  }

  VertexId root(size_t i) const {
    return sketch_chunks_[i / kSketchesPerChunk]
        ->roots[i % kSketchesPerChunk];
  }

  /// Ids (sketch positions) of the sketches containing u, ascending.
  std::span<const uint32_t> Containing(VertexId u) const {
    const ContainingChunk& c = *containing_chunks_[u / kVerticesPerChunk];
    const size_t j = u % kVerticesPerChunk;
    return {c.ids.data() + c.starts[j], c.ids.data() + c.starts[j + 1]};
  }
  /// theta(u): how many sketches contain u (Sec. 6.3 notation).
  size_t CountContaining(VertexId u) const {
    const ContainingChunk& c = *containing_chunks_[u / kVerticesPerChunk];
    const size_t j = u % kVerticesPerChunk;
    return c.starts[j + 1] - c.starts[j];
  }
  /// Number of vertices the containing index covers.
  size_t num_universe_vertices() const { return num_vertices_; }

  /// Totals across all sketches.
  uint64_t total_vertices() const { return total_vertices_; }
  uint64_t total_edges() const { return total_edges_; }
  /// Largest per-sketch vertex count (scratch pre-sizing).
  size_t max_sketch_vertices() const { return max_sketch_vertices_; }

  /// Footprint of every chunk (shared or not) and the chunk tables,
  /// computed in O(1).
  size_t SizeBytes() const { return size_bytes_; }
  /// Bytes of the chunks `other` does not share with this pool.
  size_t BytesNotSharedWith(const RrSketchPool& other) const;

 private:
  friend class IndexIo;  // persistence reads/writes the chunk arrays

  // The fixed-size per-sketch and per-vertex arrays are inline, so a
  // lookup reads them straight after the chunk pointer.
  struct SketchChunk {
    size_t num_sketches = 0;
    size_t max_vertices = 0;
    std::vector<VertexId> vertices;
    std::vector<uint32_t> offsets;  // n + 1 per sketch
    std::vector<RRLocalEdge> edges;
    std::array<VertexId, kSketchesPerChunk> roots{};
    std::array<uint64_t, kSketchesPerChunk + 1> vertex_starts{};  // from 0
    std::array<uint64_t, kSketchesPerChunk + 1> edge_starts{};    // from 0
    CachedDigest digest;  // of Encode's bytes
    size_t SizeBytes() const;

    /// The chunk as one index-v3 record, little-endian, passed to
    /// sink(const void*, size_t) in order: num_sketches u64, roots u32,
    /// vertex_starts[1..] u64, edge_starts[1..] u64, vertices u32,
    /// offsets u32, edges (head_local u32, edge u32, threshold f32).
    /// On little-endian hosts every array is its in-memory bytes.
    template <typename Sink>
    void Encode(Sink&& sink) const {
      static_assert(sizeof(RRLocalEdge) == 12 && sizeof(float) == 4,
                    "RRLocalEdge must be three unpadded 4-byte fields");
      const uint64_t count = num_sketches;
      EmitLittleEndian<8>(&count, sizeof(count), sink);
      EmitLittleEndian<4>(roots.data(), count * sizeof(VertexId), sink);
      EmitLittleEndian<8>(vertex_starts.data() + 1, count * 8, sink);
      EmitLittleEndian<8>(edge_starts.data() + 1, count * 8, sink);
      EmitLittleEndian<4>(vertices.data(), vertices.size() * 4, sink);
      EmitLittleEndian<4>(offsets.data(), offsets.size() * 4, sink);
      EmitLittleEndian<4>(edges.data(), edges.size() * 12, sink);
    }
    /// Hash64 of Encode's bytes: hashed on first use, cached after. The
    /// bytes hashed are added to `*bytes_hashed` (when non-null).
    uint64_t Digest(uint64_t* bytes_hashed) const {
      return digest.Get(
          [this](Hash64* h) {
            Encode([h](const void* data, size_t size) {
              h->Update(data, size);
            });
          },
          bytes_hashed);
    }
  };
  struct ContainingChunk {
    std::vector<uint32_t> ids;  // sketch ids, CSR by vertex
    std::array<uint64_t, kVerticesPerChunk + 1> starts{};  // from 0
    size_t SizeBytes() const;
  };

  /// The persisted (v2) layout: one flat CSR-of-CSRs over all sketches.
  struct Flat {
    std::vector<VertexId> roots;
    std::vector<uint64_t> vertex_starts;
    std::vector<VertexId> vertices;
    std::vector<uint32_t> offsets;
    std::vector<uint64_t> edge_starts;
    std::vector<RRLocalEdge> edges;
  };
  /// Chunks a validated flat layout (the v2 loader's path).
  static RrSketchPool FromFlat(const Flat& flat, size_t num_vertices);
  /// A pool over validated sketch chunks (the v3 loader's path): every
  /// chunk holds kSketchesPerChunk sketches but the last.
  static RrSketchPool FromSketchChunks(
      std::vector<std::shared_ptr<const SketchChunk>> chunks,
      size_t num_sketches, size_t num_vertices);

  /// Packs sketches [first, last), sketch i read through view_of(i).
  template <typename ViewOf>
  static std::shared_ptr<const SketchChunk> PackSketchChunk(size_t first,
                                                            size_t last,
                                                            ViewOf view_of);
  /// Sketch chunks for `num_sketches` sketches read through view_of.
  template <typename ViewOf>
  static RrSketchPool PackAll(size_t num_sketches, size_t num_vertices,
                              ViewOf view_of, ThreadPool* pool = nullptr);

  /// Builds every containing chunk from the sketch chunks (counting
  /// pass + per-chunk sizing + one fill in ascending sketch-id order, so
  /// each per-vertex list is sorted).
  void BuildContaining();
  /// Recomputes the totals, max_sketch_vertices_ and size_bytes_ from
  /// the chunks (O(chunks)).
  void Summarize();

  std::vector<std::shared_ptr<const SketchChunk>> sketch_chunks_;
  std::vector<std::shared_ptr<const ContainingChunk>> containing_chunks_;
  size_t num_sketches_ = 0;
  size_t num_vertices_ = 0;
  uint64_t total_vertices_ = 0;
  uint64_t total_edges_ = 0;
  size_t max_sketch_vertices_ = 0;
  size_t size_bytes_ = sizeof(RrSketchPool);
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_RR_SKETCH_POOL_H_
