#include "src/core/upper_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace pitex {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

UpperBoundContext::UpperBoundContext(const TopicModel& topics)
    : topics_(&topics) {
  const size_t num_z = topics.num_topics();
  const size_t num_w = topics.num_tags();
  log_r_.resize(num_w * num_z);
  for (TagId w = 0; w < num_w; ++w) {
    // Weighted geometric-mean denominator: sum_z' p(z') * log p(w|z').
    double log_denom = 0.0;
    for (TopicId z = 0; z < num_z; ++z) {
      const double prior = topics.prior()[z];
      if (prior <= 0.0) continue;
      const double p = topics.TagTopic(w, z);
      if (p <= 0.0) {
        log_denom = -kInf;
        break;
      }
      log_denom += prior * std::log(p);
    }
    for (TopicId z = 0; z < num_z; ++z) {
      const double p = topics.TagTopic(w, z);
      const double prior = topics.prior()[z];
      double value;
      if (p <= 0.0 || prior <= 0.0) {
        value = -kInf;  // r = 0: the factor annihilates the product
      } else if (log_denom == -kInf) {
        value = kInf;  // denominator vanished: bound degenerates
      } else {
        value = std::log(p) - log_denom;
      }
      log_r_[static_cast<size_t>(w) * num_z + z] = value;
    }
  }
  sorted_tags_.resize(num_z);
  for (TopicId z = 0; z < num_z; ++z) {
    auto& order = sorted_tags_[z];
    order.resize(num_w);
    for (TagId w = 0; w < num_w; ++w) order[w] = w;
    std::sort(order.begin(), order.end(), [&](TagId a, TagId b) {
      return LogR(a, z) > LogR(b, z);
    });
  }
}

PITEX_NOALLOC bool UpperBoundContext::Compatible(
    std::span<const TagId> partial,
                                   TopicId z) const {
  if (topics_->prior()[z] <= 0.0) return false;
  for (TagId w : partial) {
    if (topics_->TagTopic(w, z) <= 0.0) return false;
  }
  return true;
}

void UpperBoundContext::Rebind(const TopicModel& topics) {
  PITEX_CHECK_MSG(sorted_tags_.size() == topics.num_topics() &&
                      log_r_.size() == topics.num_tags() * topics.num_topics(),
                  "UpperBoundContext::Rebind needs the same topic model");
  topics_ = &topics;
}

std::vector<double> UpperBoundContext::TopicMultipliers(
    std::span<const TagId> partial, size_t k) const {
  PITEX_CHECK(partial.size() <= k);
  const size_t num_z = topics_->num_topics();
  const size_t need = k - partial.size();
  std::vector<double> result(num_z, 0.0);
  for (TopicId z = 0; z < num_z; ++z) {
    if (!Compatible(partial, z)) continue;  // p(z|W) = 0: excluded from sum
    // Single leading p(z) from the posterior numerator (see header note).
    double log_b = std::log(topics_->prior()[z]);
    for (TagId w : partial) log_b += LogR(w, z);
    // Complete with the `need` largest r(w, z) among remaining tags.
    size_t taken = 0;
    for (TagId w : sorted_tags_[z]) {
      if (taken == need) break;
      if (std::find(partial.begin(), partial.end(), w) != partial.end()) {
        continue;
      }
      log_b += LogR(w, z);
      ++taken;
    }
    if (std::isnan(log_b)) {
      // inf + (-inf): a mandatory tag kills the product while another
      // degenerates; the annihilating factor wins (product is 0).
      result[z] = 0.0;
    } else if (log_b == kInf) {
      result[z] = kInf;
    } else {
      result[z] = std::exp(log_b);
    }
  }
  return result;
}

PITEX_NOALLOC void UpperBoundContext::TopicMultipliersInto(
    std::span<const TagId> partial,
                                             size_t k,
                                             BoundScratch* scratch) const {
  PITEX_CHECK(partial.size() <= k);
  const size_t num_z = topics_->num_topics();
  const size_t num_w = topics_->num_tags();
  if (scratch->tag_epoch.size() < num_w) {
    scratch->tag_epoch.assign(num_w, 0);
    scratch->epoch = 0;
  }
  if (++scratch->epoch == 0) {  // epoch wrapped: drop all stale stamps
    std::fill(scratch->tag_epoch.begin(), scratch->tag_epoch.end(), 0);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;
  for (TagId w : partial) scratch->tag_epoch[w] = epoch;

  scratch->multipliers.assign(num_z, 0.0);
  scratch->compatible.assign(num_z, 0);
  const size_t need = k - partial.size();
  // Identical accumulation order to TopicMultipliers above — only the
  // membership test (epoch stamp vs std::find) and the output storage
  // differ, so the doubles come out bit-identical.
  for (TopicId z = 0; z < num_z; ++z) {
    if (!Compatible(partial, z)) continue;
    scratch->compatible[z] = 1;
    double log_b = std::log(topics_->prior()[z]);
    for (TagId w : partial) log_b += LogR(w, z);
    size_t taken = 0;
    for (TagId w : sorted_tags_[z]) {
      if (taken == need) break;
      if (scratch->tag_epoch[w] == epoch) continue;
      log_b += LogR(w, z);
      ++taken;
    }
    if (std::isnan(log_b)) {
      scratch->multipliers[z] = 0.0;
    } else if (log_b == kInf) {
      scratch->multipliers[z] = kInf;
    } else {
      scratch->multipliers[z] = std::exp(log_b);
    }
  }
}

UpperBoundProbs::UpperBoundProbs(const InfluenceGraph& influence,
                                 const UpperBoundContext& context,
                                 std::span<const TagId> partial, size_t k)
    : influence_(influence),
      owned_multipliers_(context.TopicMultipliers(partial, k)),
      owned_compatible_(owned_multipliers_.size(), 0) {
  for (TopicId z = 0; z < owned_compatible_.size(); ++z) {
    owned_compatible_[z] = context.Compatible(partial, z) ? 1 : 0;
  }
  multipliers_ = owned_multipliers_;
  compatible_ = owned_compatible_;
}

PITEX_NOALLOC UpperBoundProbs::UpperBoundProbs(
    const InfluenceGraph& influence, const UpperBoundContext& context,
    std::span<const TagId> partial, size_t k, BoundScratch* scratch)
    : influence_(influence) {
  context.TopicMultipliersInto(partial, k, scratch);
  multipliers_ = scratch->multipliers;
  compatible_ = scratch->compatible;
}

PITEX_NOALLOC double UpperBoundProbs::Prob(EdgeId e) const {
  double eq5 = 0.0;  // max over compatible topics of p(e|z)
  double eq6 = 0.0;  // sum_z p(e|z) * B(z)
  for (const auto& [z, p] : influence_.EdgeTopics(e)) {
    if (!compatible_[z]) continue;
    eq5 = std::max(eq5, p);
    eq6 += p * multipliers_[z];
  }
  return std::clamp(std::min(eq5, eq6), 0.0, 1.0);
}

}  // namespace pitex
