// Incremental maintenance of the RR-Graph index under influence-model
// updates.
//
// The paper's Sec. 2 observes that reliability-query indexes assume a
// *fixed* input graph, and its own index (Sec. 6) is built offline once.
// In deployments the influence model is re-learned continually (new
// cascades arrive, p(e|z) drifts), and rebuilding theta RR-Graphs per
// refresh is the dominant cost (Table 3 build times). DynamicRrIndex
// repairs the index instead of rebuilding it.
//
// Repair rule (coin coupling). Model each edge's sampling randomness as
// a latent uniform U(e): the edge is live in a world iff U(e) < p(e),
// and the stored threshold c(e) of a live edge is exactly U(e). An
// RR-Graph probed edge e = (t, v) iff it contains v, so:
//
//   * graphs without v never examined U(e) — untouched, distribution
//     unchanged (they probed only edges whose probabilities are
//     unchanged);
//   * e live in the graph (c < p_old): stays live iff c < p_new — the
//     exact conditional P[U < p_new | U < p_old]; on death the graph is
//     pruned back to the vertices still reaching the root;
//   * e dead (v present, e absent; latent U uniform on [p_old, 1)):
//     resurrects with probability (p_new - p_old)/(1 - p_old), drawing
//     c uniform on [p_old, p_new); if the tail t was outside the graph
//     the reverse sampling *expands* from t, flipping the in-edge coins
//     of every newly reached vertex for the first time.
//
// Every branch is the exact conditional law of the new model given the
// old world, so after any update history the ensemble is distributed as
// a freshly built index on the current model — same estimator, same
// guarantees. Cost per update is proportional to the affected graphs
// (theta(v) of the edge's head, small on average by the power-law
// argument of Lemma 9), not to theta. bench/ablation_dynamic.cc
// quantifies repair vs. rebuild.
//
// Repairs consult an O(1)-updatable envelope mirror, and the owned
// influence CSR is folded once per ApplyUpdates batch, rebuilding only
// the edge chunks that hold an updated edge (ReplaceEdgeTopics), so a
// batch costs work proportional to the affected graphs and touched
// chunks, not to |E|.
//
// Publishing. The master keeps the pooled chunks it packed last
// (RrSketchPool) and flags a chunk dirty when a repair rewrites one of
// its sketches or changes one of its vertices' containing lists. Pack()
// re-packs only the flagged chunks and shares the rest, so a freeze
// (IndexSnapshot::FromDynamic) copies what the batches since the last
// freeze changed, whichever snapshot it is compared with.

#ifndef PITEX_SRC_INDEX_DYNAMIC_INDEX_H_
#define PITEX_SRC_INDEX_DYNAMIC_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/index/rr_graph.h"
#include "src/index/rr_index.h"
#include "src/index/rr_sketch_pool.h"
#include "src/index/sketch_arena.h"

namespace pitex {

/// One influence-model change: edge e's sparse topic vector is replaced
/// by `entries` (empty entries delete the edge's influence entirely).
struct EdgeInfluenceUpdate {
  EdgeId edge = 0;
  std::vector<EdgeTopicEntry> entries;
};

/// The one batch check every path that accepts updates runs before
/// applying them (ApplyUpdates, checkpoint model deltas, WAL replay):
/// each edge below `num_edges`, each probability finite and in [0, 1].
/// Returns nullptr for a valid batch, else what the first bad update
/// got wrong ("references an unknown edge" or "probability out of
/// [0, 1]"), for the caller to prefix with what it was reading.
const char* ValidateBatch(std::span<const EdgeInfluenceUpdate> updates,
                          size_t num_edges);

class DynamicRrIndex final : public InfluenceOracle {
 public:
  /// Copies `network` (the index owns the evolving model; the caller's
  /// network stays frozen at the construction-time state).
  DynamicRrIndex(const SocialNetwork& network, const RrIndexOptions& options);

  /// Samples the initial theta RR-Graphs. With equal options and seed the
  /// initial state is bit-identical to a freshly built RrIndex.
  void Build();

  /// Applies model updates in order: each replaces one edge's topic
  /// vector and repairs every affected RR-Graph (those containing the
  /// edge's head) by the coin-coupling rule above.
  void ApplyUpdates(std::span<const EdgeInfluenceUpdate> updates);

  /// Convenience single-edge form.
  void UpdateEdgeTopics(EdgeId edge, std::span<const EdgeTopicEntry> entries);

  /// Recovery hook (src/serve/recovery.h), called instead of -- and
  /// before any stand-in for -- Build() on a freshly constructed index:
  /// folds `replacements` (the current topic vector of every edge that
  /// has diverged from the base network) into the owned influence CSR
  /// and restores the repair-RNG version counter, reproducing the model
  /// state a checkpoint was taken at. The fold is the same
  /// ReplaceEdgeTopics splice ApplyUpdates ends a batch with, so only
  /// each edge's *final* entries matter -- not the update history.
  void RestoreModel(std::span<const EdgeInfluenceUpdate> replacements,
                    uint64_t version);

  /// Recovery hook, the stand-in for Build(): adopts the sketches of a
  /// loaded checkpoint index as this index's mutable state -- unpacks
  /// the pool into owning per-sketch graphs, rebuilds containment
  /// (ascending sketch id, exactly as Build() leaves it), and mirrors
  /// the envelope of the restored influence model. The checkpoint must
  /// have been saved against a model equal to the restored one;
  /// LoadRrIndex's fingerprint check proves exactly that.
  void AdoptSketches(const RrIndex& checkpoint);

  /// Edge updates applied over this index's lifetime; salts the repair
  /// RNG (StreamFor), so checkpoints persist it and recovery restores it
  /// before replay -- replayed repairs then re-draw the same coins.
  uint64_t version() const { return version_; }

  Estimate EstimateInfluence(VertexId u, const EdgeProbFn& probs) override;
  const char* Name() const override { return "DYN-INDEXEST"; }

  /// The current (post-update) network. Posterior probabilities for
  /// queries must be computed against this copy, not the construction
  /// argument.
  const SocialNetwork& network() const { return network_; }

  uint64_t theta() const { return theta_; }
  size_t num_graphs() const { return graphs_.size(); }
  const RRGraph& graph(size_t i) const { return graphs_[i]; }
  /// All current sketches, in sample order.
  std::span<const RRGraph> graphs() const { return graphs_; }

  /// The current sketches as an immutable pool — the snapshot hook: the
  /// serve layer wraps it (RrIndex::FromPool) to publish a frozen,
  /// concurrently readable replica of this index. Re-packs only the
  /// chunks dirtied since the previous call and shares the others with
  /// the pool that call returned; the result equals
  /// RrSketchPool::Pack(graphs(), network().num_vertices()) chunk for
  /// chunk. Logically const (the packed chunks are a cache); like every
  /// member, call it from the owning thread only.
  RrSketchPool Pack() const;
  const RrIndexOptions& options() const { return options_; }
  const std::vector<uint32_t>& Containing(VertexId u) const {
    return containing_[u];
  }

  /// Vertices whose estimates may have changed since the last
  /// ClearDirtyVertices() (unordered, no duplicates): the union of the
  /// vertex sets of every sketch a repair examined, taken both before
  /// and after the repair, so expansions count. A user outside this set
  /// sees the same sketches, thresholds and edge probabilities on every
  /// path an estimate reads, so its answers are unchanged. The serve
  /// layer stamps it into each published snapshot (IndexSnapshot::
  /// DirtiedAt) and clears it only once a publish succeeded, so a batch
  /// whose publish failed folds into the next one.
  std::span<const VertexId> dirty_vertices() const { return dirty_; }
  void ClearDirtyVertices();

  /// Maintenance counters (ablation metrics).
  struct Stats {
    uint64_t update_batches = 0;
    uint64_t edges_updated = 0;
    /// Affected graphs examined (containing the updated edge's head).
    uint64_t graphs_examined = 0;
    /// Graphs whose structure actually changed (edge died, resurrected,
    /// or membership shifted).
    uint64_t graphs_changed = 0;
  };
  const Stats& stats() const { return stats_; }

  size_t SizeBytes() const;

 private:
  // Repairs graph `id` for edge `e` transitioning envelope p_old ->
  // p_new. Precondition: the graph contains head(e).
  void RepairGraph(uint32_t id, EdgeId e, double p_old, double p_new,
                   Rng* rng);
  void MarkDirty(std::span<const VertexId> vertices);
  // Flags every chunk for the next Pack() (Build, AdoptSketches).
  void MarkAllChunksDirty();

  SocialNetwork network_;
  RrIndexOptions options_;
  uint64_t theta_ = 0;
  uint64_t version_ = 0;  // bumped per update; salts the repair RNG
  // Unlike the read-only RrIndex (pooled CSR store), repairs rewrite
  // individual sketches in place, so each keeps its own storage; only
  // the estimate path shares the view-based zero-allocation machinery.
  std::vector<RRGraph> graphs_;
  std::vector<VertexId> roots_;  // root of graph i (stable across repairs)
  std::vector<std::vector<uint32_t>> containing_;
  // Envelope mirror: the same dense float table the static build reads
  // (EnvelopeProbability(max_z p(e|z)) of the *current* model, including
  // updates applied earlier in the running batch — the CSR is only
  // folded at batch end). Repairs and expansions read this, so repair
  // coins are drawn against exactly the envelope the sketches were (or
  // would have been) sampled with.
  EnvelopeTable envelope_;
  Stats stats_;
  // Per-instance reachability scratch (a DynamicRrIndex is single-owner
  // mutable state, never shared across threads).
  EstimateScratch scratch_;
  // Build/repair scratch: sketch generation and repaired-sketch assembly
  // run through the arena, so steady-state repairs reuse flat buffers
  // instead of per-repair hash sets and staging vectors.
  SketchArena arena_;
  std::vector<GlobalEdgeSample> repair_edges_;
  std::vector<VertexId> repair_stack_;
  std::vector<uint32_t> present_mark_;  // expansion membership stamps
  uint32_t present_epoch_ = 0;
  std::vector<VertexId> old_vertices_;   // a repaired sketch's old members
  // ApplyUpdates scratch, reused across batches: the affected-sketch
  // list of one update (a copy, since repairs splice containment) and
  // the batch's last-writer-wins CSR fold.
  std::vector<uint32_t> affected_;
  std::vector<EdgeTopicsReplacement> replacements_;
  // Dirty-vertex set since the last ClearDirtyVertices(): membership
  // flags plus the members in insertion order.
  std::vector<uint8_t> dirty_mark_;
  std::vector<VertexId> dirty_;
  // The chunks Pack() returned last, and per chunk whether a repair has
  // changed it since (one flag per sketch chunk / containing chunk).
  mutable RrSketchPool packed_;
  mutable std::vector<uint8_t> sketch_chunk_dirty_;
  mutable std::vector<uint8_t> containing_chunk_dirty_;
  bool built_ = false;
};

}  // namespace pitex

#endif  // PITEX_SRC_INDEX_DYNAMIC_INDEX_H_
