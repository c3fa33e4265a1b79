// Sharded LRU memoization of PITEX top-N rankings for the serving layer.
//
// A production query stream is heavily repetitive — the same influential
// users get explored again and again — while a PITEX answer is a pure
// function of (user, k, top_n, method, index epoch): the index methods
// are deterministic given a snapshot, and for the sampling methods any
// best-effort answer within the accuracy envelope is equally valid, so
// replaying the first one is sound.
//
// Epochs and invalidation. The cache holds one entry per (user, k,
// top_n, method), stamped with the epoch it was computed at. A publish
// changes the answers of only the users its batch touched: each snapshot
// records, per user, the latest epoch at which that user's answers may
// have changed (IndexSnapshot::DirtiedAt). A lookup at serving epoch e
// therefore hits an entry computed at epoch c iff DirtiedAt_e(user) <= c
// <= e -- the answer is provably the one epoch e would compute -- so the
// entries of untouched users carry across publishes with no scan and no
// flush. An entry newer than the serving epoch (a lagging worker still
// on an older snapshot) misses, and that worker's insert never
// overwrites the newer entry. A key without a DirtiedAt (the default)
// matches only entries of its own epoch.
//
// Sharding: a hash of (user, k, top_n, method) picks one of N
// independently locked shards -- every epoch of one query shares a
// shard and a slot -- so concurrent workers rarely contend; each shard
// runs its own LRU list.

#ifndef PITEX_SRC_SERVE_RESULT_CACHE_H_
#define PITEX_SRC_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/core/best_effort_solver.h"
#include "src/model/influence_graph.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pitex {

/// Identity of a memoizable serving answer: user, search shape and
/// method select the cache slot; `epoch` is the epoch an inserted answer
/// was computed at, or the serving epoch of a lookup.
struct ResultCacheKey {
  VertexId user = 0;
  uint32_t k = 0;
  uint32_t top_n = 0;
  uint8_t method = 0;  // static_cast<uint8_t>(Method)
  uint64_t epoch = 0;
  /// Lookup only: the serving snapshot's DirtiedAt(user). Entries
  /// computed at any epoch in [dirtied_at, epoch] hit. The default
  /// matches only entries computed at `epoch` itself.
  uint64_t dirtied_at = UINT64_MAX;

  bool operator==(const ResultCacheKey&) const = default;
};

class ResultCache {
 public:
  /// `capacity` is the total entry budget across all shards (rounded up
  /// to at least one entry per shard). A zero capacity disables the
  /// cache: Lookup always misses, Insert is a no-op.
  ResultCache(size_t capacity, size_t num_shards);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Hits when the slot's entry was computed at an epoch in
  /// [min(key.dirtied_at, key.epoch), key.epoch]. On hit, copies the
  /// cached ranking into `*out`, promotes the entry to most-recently-used,
  /// stores the entry's epoch in `*computed_epoch` (when non-null), and
  /// returns true.
  bool Lookup(const ResultCacheKey& key, std::vector<RankedTagSet>* out,
              uint64_t* computed_epoch = nullptr);

  /// Stores the ranking computed at `key.epoch`, evicting the shard's
  /// least-recently-used entry when over budget. An entry of the same
  /// epoch is refreshed; an older one is replaced (counted as an
  /// insertion and an eviction, so insertions == entries + evictions
  /// holds); a newer one wins and the insert is dropped.
  void Insert(const ResultCacheKey& key,
              const std::vector<RankedTagSet>& ranking);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };
  /// Aggregated over all shards.
  Stats GetStats() const;

  size_t capacity() const { return capacity_; }
  size_t num_shards() const { return shards_.size(); }
  bool enabled() const { return capacity_ > 0; }

 private:
  // (user, k, top_n, method): every epoch of one query shares a slot.
  struct Slot {
    VertexId user = 0;
    uint32_t k = 0;
    uint32_t top_n = 0;
    uint8_t method = 0;

    bool operator==(const Slot&) const = default;
  };
  struct SlotHash {
    size_t operator()(const Slot& slot) const;
  };
  struct Entry {
    Slot slot;
    uint64_t epoch = 0;  // the epoch the ranking was computed at
    std::vector<RankedTagSet> ranking;
  };
  struct Shard {
    Mutex mutex;
    std::list<Entry> lru PITEX_GUARDED_BY(mutex);  // front = MRU
    std::unordered_map<Slot, std::list<Entry>::iterator, SlotHash> index
        PITEX_GUARDED_BY(mutex);
    // Written once by the ResultCache constructor before any concurrent
    // access (the shard vector is published by the constructor's return),
    // immutable afterwards — deliberately not guarded.
    size_t capacity = 0;
    uint64_t hits PITEX_GUARDED_BY(mutex) = 0;
    uint64_t misses PITEX_GUARDED_BY(mutex) = 0;
    uint64_t insertions PITEX_GUARDED_BY(mutex) = 0;
    uint64_t evictions PITEX_GUARDED_BY(mutex) = 0;
  };

  static Slot SlotOf(const ResultCacheKey& key) {
    return Slot{key.user, key.k, key.top_n, key.method};
  }
  Shard& ShardFor(const Slot& slot);

  size_t capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pitex

#endif  // PITEX_SRC_SERVE_RESULT_CACHE_H_
