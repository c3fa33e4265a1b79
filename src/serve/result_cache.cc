#include "src/serve/result_cache.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/util/failpoint.h"

namespace pitex {

ResultCache::ResultCache(size_t capacity, size_t num_shards)
    : capacity_(capacity) {
  const size_t count = std::max<size_t>(1, num_shards);
  shards_.reserve(count);
  // Ceil-divide so the shards together hold at least `capacity` entries.
  const size_t per_shard = capacity == 0 ? 0 : (capacity + count - 1) / count;
  for (size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->capacity = per_shard;
    shards_.push_back(std::move(shard));
  }
}

size_t ResultCache::SlotHash::operator()(const Slot& slot) const {
  // FNV-1a over the field values; cheap and well-mixed for shard
  // selection and bucket placement alike.
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  mix(slot.user);
  mix((static_cast<uint64_t>(slot.k) << 40) |
      (static_cast<uint64_t>(slot.top_n) << 8) | slot.method);
  return static_cast<size_t>(h);
}

ResultCache::Shard& ResultCache::ShardFor(const Slot& slot) {
  return *shards_[SlotHash{}(slot) % shards_.size()];
}

bool ResultCache::Lookup(const ResultCacheKey& key,
                         std::vector<RankedTagSet>* out,
                         uint64_t* computed_epoch) {
  if (!enabled()) return false;
  PITEX_COUNT(kCacheProbes, 1);
  // Chaos hook, evaluated before the shard lock: a fired fault is a
  // forced miss, exactly the semantics of a shard that could not be
  // locked in time. The caller recomputes -- correctness is unaffected,
  // which is the property the chaos suite pins.
  if (PITEX_FAILPOINT("result_cache/shard_lock")) return false;
  const Slot slot = SlotOf(key);
  Shard& shard = ShardFor(slot);
  MutexLock lock(shard.mutex);
  const auto it = shard.index.find(slot);
  const uint64_t valid_from = std::min(key.dirtied_at, key.epoch);
  if (it == shard.index.end() || it->second->epoch < valid_from ||
      it->second->epoch > key.epoch) {
    ++shard.misses;
    return false;
  }
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  *out = it->second->ranking;
  if (computed_epoch != nullptr) *computed_epoch = it->second->epoch;
  return true;
}

void ResultCache::Insert(const ResultCacheKey& key,
                         const std::vector<RankedTagSet>& ranking) {
  if (!enabled()) return;
  PITEX_COUNT(kCacheInserts, 1);
  // Same fault as Lookup's: the insert is dropped, as if the shard lock
  // was contended past a deadline. Caching is memoization, so a dropped
  // insert only costs a future recompute.
  if (PITEX_FAILPOINT("result_cache/shard_lock")) return;
  const Slot slot = SlotOf(key);
  Shard& shard = ShardFor(slot);
  MutexLock lock(shard.mutex);
  const auto it = shard.index.find(slot);
  if (it != shard.index.end()) {
    Entry& entry = *it->second;
    if (entry.epoch > key.epoch) return;  // a lagging worker's answer
    if (entry.epoch < key.epoch) {
      // The older answer leaves the cache and the newer one enters it.
      ++shard.insertions;
      ++shard.evictions;
      entry.epoch = key.epoch;
    }
    entry.ranking = ranking;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.push_front(Entry{slot, key.epoch, ranking});
  shard.index.emplace(slot, shard.lru.begin());
  ++shard.insertions;
  while (shard.lru.size() > shard.capacity) {
    shard.index.erase(shard.lru.back().slot);
    shard.lru.pop_back();
    ++shard.evictions;
  }
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mutex);
    stats.hits += shard->hits;
    stats.misses += shard->misses;
    stats.insertions += shard->insertions;
    stats.evictions += shard->evictions;
    stats.entries += shard->lru.size();
  }
  return stats;
}

}  // namespace pitex
