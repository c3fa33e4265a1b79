// Lemma 8: per-edge influence probability upper bounds for partial tag
// sets, powering best-effort exploration (Sec. 5.2).
//
// For a partial set W (|W| < k), p+(e|W) must dominate p(e|W') for every
// size-k completion W' of W. The lemma combines two bounds and takes the
// minimum:
//
//  (Eq. 5, sparse regime)  max over topics z compatible with W
//                          (p(z|W) > 0) of p(e|z);
//  (Eq. 6, dense regime)   sum_z p(e|z) * B(z) with
//                          B(z) = p(z) * prod_{w in W u W*} r(w, z), where
//                          r(w, z) = p(w|z) / prod_z' p(w|z')^{p(z')}
//                          (a Jensen bound on the posterior: the weighted
//                          geometric mean lower-bounds the normalizer) and
//                          W* ranges over completions — maximized by
//                          taking the k - |W| largest r(w, z) among the
//                          remaining tags.
//
// Note on Eq. 6: the paper's statement distributes a p(z) factor into
// every tag's term (prod_w p(w|z) p(z)), i.e. p(z)^{|W|}; since the
// posterior numerator carries exactly one p(z), that variant can
// *under*-estimate and is not admissible (our randomized property tests
// catch the violation). The Jensen step in the paper's own proof
// (Appendix B.8) supports the single-p(z) form implemented here.
//
// r(w, z) is +infinity when some p(w|z') = 0 with positive prior (the
// geometric-mean denominator vanishes); Eq. 6 then degenerates and the
// minimum falls back to Eq. 5 — which is why Eq. 6 only helps on dense
// tag-topic matrices, exactly as the paper discusses.

#ifndef PITEX_SRC_CORE_UPPER_BOUND_H_
#define PITEX_SRC_CORE_UPPER_BOUND_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/sampling/influence_estimator.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// Reusable scratch for allocation-free Lemma-8 bound evaluation along the
/// best-effort enumeration tree. The per-topic running log_b accumulators
/// land in `multipliers`/`compatible`, which double as the storage the
/// scratch-based UpperBoundProbs constructor points into; `tag_epoch`
/// gives O(1) "is w in the current partial set" tests (the reference
/// implementation re-scanned the partial set with std::find for every
/// entry of the per-topic sorted order, an O(k) scan each). Everything is
/// epoch-stamped or assign()ed in place, so after warmup a bound
/// evaluation allocates nothing.
struct BoundScratch {
  std::vector<double> multipliers;  // B(z) per topic; 0 when incompatible
  std::vector<uint8_t> compatible;  // per-topic compatibility mask
  std::vector<uint32_t> tag_epoch;  // per-tag "in current partial" stamps
  uint32_t epoch = 0;
};

/// Precomputed per-(tag, topic) log r(w, z) values plus per-topic sorted
/// orders. Built once per network; shared by all queries.
class UpperBoundContext {
 public:
  explicit UpperBoundContext(const TopicModel& topics);

  /// Re-points the context at an equal topic model living elsewhere (the
  /// copy inside a newer index snapshot), keeping the precomputed tables.
  /// Never reads the previous model, which may already be freed.
  void Rebind(const TopicModel& topics);

  const TopicModel& topics() const { return *topics_; }

  /// Returns the Eq.-6 multiplier B(z) for each topic given the partial
  /// set and the target size k, or +infinity where the bound degenerates;
  /// entries are 0 for topics incompatible with `partial` (p(z|W) = 0).
  /// This is the reference implementation — byte-for-byte the pre-arena
  /// code path — kept for tests and one-off callers; the query hot path
  /// uses TopicMultipliersInto.
  std::vector<double> TopicMultipliers(std::span<const TagId> partial,
                                       size_t k) const;

  /// TopicMultipliers plus the compatibility mask, written into
  /// caller-owned scratch: zero allocations after warmup and O(|Z| * k)
  /// work per call thanks to the epoch-stamped membership test. The
  /// floating-point accumulation order is kept exactly as
  /// TopicMultipliers' so the results are bit-identical (a true
  /// parent-to-child delta of the log sums would reorder the additions
  /// and break the bit-reproducibility the equivalence tests pin —
  /// docs/perf.md discusses the tradeoff).
  PITEX_NOALLOC void TopicMultipliersInto(std::span<const TagId> partial, size_t k,
                            BoundScratch* scratch) const;

  /// True if topic z is compatible with the partial set (every w in W has
  /// p(w|z) > 0 and the prior is positive).
  PITEX_NOALLOC bool Compatible(std::span<const TagId> partial,
                                TopicId z) const;

 private:
  const TopicModel* topics_;
  // log r(w, z), row-major [tag][topic]; -inf when p(w|z) = 0, +inf when
  // the geometric-mean denominator vanishes.
  std::vector<double> log_r_;
  // Per topic: tag ids sorted by descending log r(w, z).
  std::vector<std::vector<TagId>> sorted_tags_;

  double LogR(TagId w, TopicId z) const {
    return log_r_[static_cast<size_t>(w) * topics_->num_topics() + z];
  }
};

/// EdgeProbFn view of p+(e|W): plugs into any InfluenceOracle to estimate
/// the influence upper bound of a partial tag set.
class UpperBoundProbs final : public EdgeProbFn {
 public:
  /// Owning constructor: computes and stores the multipliers through the
  /// reference TopicMultipliers path (allocates). For tests and one-off
  /// callers.
  UpperBoundProbs(const InfluenceGraph& influence,
                  const UpperBoundContext& context,
                  std::span<const TagId> partial, size_t k);

  /// Non-allocating constructor: fills *scratch via TopicMultipliersInto
  /// and points into it. `scratch` must outlive this object and must not
  /// be refilled while it is in use.
  PITEX_NOALLOC UpperBoundProbs(const InfluenceGraph& influence,
                                const UpperBoundContext& context,
                                std::span<const TagId> partial, size_t k,
                                BoundScratch* scratch);

  // Not copyable: the spans may alias this object's owned storage, so a
  // memberwise copy would dangle once the source is destroyed.
  UpperBoundProbs(const UpperBoundProbs&) = delete;
  UpperBoundProbs& operator=(const UpperBoundProbs&) = delete;

  PITEX_NOALLOC double Prob(EdgeId e) const override;

 private:
  const InfluenceGraph& influence_;
  // Owning storage, used only by the first constructor.
  std::vector<double> owned_multipliers_;
  std::vector<uint8_t> owned_compatible_;
  // What Prob reads: either the owned storage or the caller's scratch.
  std::span<const double> multipliers_;   // B(z), 0 for incompatible topics
  std::span<const uint8_t> compatible_;   // topic mask
};

}  // namespace pitex

#endif  // PITEX_SRC_CORE_UPPER_BOUND_H_
