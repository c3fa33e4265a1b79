// Tests for the serving-layer result cache (src/serve/result_cache.h):
// hit/miss behavior, LRU eviction per shard, epoch keying, counters,
// concurrent access (including epoch churn), the shard-lock fail point,
// and answers carried across epochs (the DirtiedAt range rule, lagging
// workers' inserts).

#include "src/serve/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/util/failpoint.h"

namespace pitex {
namespace {

std::vector<RankedTagSet> MakeRanking(TagId tag, double influence) {
  return {RankedTagSet{{tag}, influence}};
}

ResultCacheKey MakeKey(VertexId user, uint64_t epoch = 1) {
  ResultCacheKey key;
  key.user = user;
  key.k = 2;
  key.top_n = 1;
  key.method = 4;
  key.epoch = epoch;
  return key;
}

TEST(ResultCacheTest, MissThenHit) {
  ResultCache cache(16, 2);
  std::vector<RankedTagSet> out;
  EXPECT_FALSE(cache.Lookup(MakeKey(1), &out));
  cache.Insert(MakeKey(1), MakeRanking(7, 3.5));
  ASSERT_TRUE(cache.Lookup(MakeKey(1), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].tags, std::vector<TagId>{7});
  EXPECT_DOUBLE_EQ(out[0].influence, 3.5);

  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, EpochIsPartOfTheKey) {
  ResultCache cache(16, 1);
  cache.Insert(MakeKey(1, /*epoch=*/1), MakeRanking(7, 3.5));
  std::vector<RankedTagSet> out;
  // Same user, newer index epoch: a different answer space entirely.
  EXPECT_FALSE(cache.Lookup(MakeKey(1, /*epoch=*/2), &out));
  EXPECT_TRUE(cache.Lookup(MakeKey(1, /*epoch=*/1), &out));
}

TEST(ResultCacheTest, LruEvictsTheColdestEntry) {
  // One shard, three slots: inserting a fourth evicts the LRU entry.
  ResultCache cache(3, 1);
  cache.Insert(MakeKey(1), MakeRanking(1, 1.0));
  cache.Insert(MakeKey(2), MakeRanking(2, 2.0));
  cache.Insert(MakeKey(3), MakeRanking(3, 3.0));
  std::vector<RankedTagSet> out;
  // Touch key 1 so key 2 becomes the coldest.
  ASSERT_TRUE(cache.Lookup(MakeKey(1), &out));
  cache.Insert(MakeKey(4), MakeRanking(4, 4.0));
  EXPECT_TRUE(cache.Lookup(MakeKey(1), &out));
  EXPECT_FALSE(cache.Lookup(MakeKey(2), &out));
  EXPECT_TRUE(cache.Lookup(MakeKey(3), &out));
  EXPECT_TRUE(cache.Lookup(MakeKey(4), &out));
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().entries, 3u);
}

TEST(ResultCacheTest, ReinsertRefreshesInsteadOfDuplicating) {
  ResultCache cache(4, 1);
  cache.Insert(MakeKey(1), MakeRanking(1, 1.0));
  cache.Insert(MakeKey(1), MakeRanking(9, 9.0));
  std::vector<RankedTagSet> out;
  ASSERT_TRUE(cache.Lookup(MakeKey(1), &out));
  EXPECT_DOUBLE_EQ(out[0].influence, 9.0);
  EXPECT_EQ(cache.GetStats().entries, 1u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(0, 4);
  EXPECT_FALSE(cache.enabled());
  cache.Insert(MakeKey(1), MakeRanking(1, 1.0));
  std::vector<RankedTagSet> out;
  EXPECT_FALSE(cache.Lookup(MakeKey(1), &out));
  EXPECT_EQ(cache.GetStats().entries, 0u);
}

TEST(ResultCacheTest, ConcurrentMixedWorkload) {
  ResultCache cache(128, 8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::vector<RankedTagSet> out;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto user = static_cast<VertexId>((t * 31 + i) % 64);
        if (cache.Lookup(MakeKey(user), &out)) {
          // Cached rankings must always be well-formed.
          ASSERT_EQ(out.size(), 1u);
          ASSERT_EQ(out[0].tags.size(), 1u);
          ASSERT_EQ(out[0].tags[0], static_cast<TagId>(user % 8));
        } else {
          cache.Insert(MakeKey(user),
                       MakeRanking(static_cast<TagId>(user % 8), 1.0));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_LE(stats.entries, 128u + 8u);  // per-shard ceil rounding slack
}

TEST(ResultCacheTest, EvictionUnderConcurrentEpochChurn) {
  // Readers and writers chase an advancing epoch through a cache small
  // enough to evict constantly. Old-epoch entries must age out (bounded
  // residency), hits must only ever return the ranking inserted for
  // exactly that (user, epoch), and counters must stay conserved.
  ResultCache cache(32, 4);
  std::atomic<uint64_t> epoch{1};
  std::atomic<bool> done{false};

  std::thread churner([&epoch, &done] {
    for (int e = 2; e <= 40; ++e) {
      epoch.store(static_cast<uint64_t>(e), std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    done.store(true, std::memory_order_release);
  });

  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &epoch, &done, t] {
      std::vector<RankedTagSet> out;
      uint64_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        const uint64_t e = epoch.load(std::memory_order_acquire);
        const auto user = static_cast<VertexId>((t * 17 + i) % 24);
        if (cache.Lookup(MakeKey(user, e), &out)) {
          // A hit must carry the payload inserted for this epoch: the
          // tag encodes (user, epoch), so stale or crossed entries are
          // detected immediately.
          ASSERT_EQ(out.size(), 1u);
          ASSERT_EQ(out[0].tags[0],
                    static_cast<TagId>((user + e) % 97));
        } else {
          cache.Insert(MakeKey(user, e),
                       MakeRanking(static_cast<TagId>((user + e) % 97),
                                   static_cast<double>(e)));
        }
        ++i;
      }
    });
  }
  churner.join();
  for (std::thread& worker : workers) worker.join();

  const ResultCache::Stats stats = cache.GetStats();
  // The capacity bound held despite 40 epochs x 24 users of key churn.
  EXPECT_LE(stats.entries, 32u + 4u);  // per-shard ceil rounding slack
  EXPECT_GT(stats.evictions, 0u);
  // Conservation: every insertion either still resides or was evicted.
  EXPECT_EQ(stats.insertions, stats.evictions + stats.entries);
}

TEST(ResultCacheTest, ShardLockFailpointForcesMissAndDropsInsert) {
#if !PITEX_FAILPOINTS_ENABLED
  GTEST_SKIP() << "fail points compiled out (-DPITEX_FAILPOINTS=OFF)";
#endif
  FailpointRegistry::Instance().DisableAll();
  ResultCache cache(16, 2);
  cache.Insert(MakeKey(1), MakeRanking(7, 3.5));

  FailpointConfig config;
  config.mode = FailpointMode::kError;
  FailpointRegistry::Instance().Enable("result_cache/shard_lock", config);

  // A "failed" shard lock degrades to a miss -- the caller recomputes --
  // and a dropped insert -- the caller's answer is still delivered.
  std::vector<RankedTagSet> out;
  EXPECT_FALSE(cache.Lookup(MakeKey(1), &out));
  cache.Insert(MakeKey(2), MakeRanking(9, 9.0));

  FailpointRegistry::Instance().DisableAll();
  // The pre-fault entry survived; the faulted insert never landed.
  EXPECT_TRUE(cache.Lookup(MakeKey(1), &out));
  EXPECT_FALSE(cache.Lookup(MakeKey(2), &out));
}

ResultCacheKey KeyAt(VertexId user, uint64_t epoch, uint64_t dirtied_at) {
  ResultCacheKey key = MakeKey(user, epoch);
  key.dirtied_at = dirtied_at;
  return key;
}

TEST(ResultCacheTest, CarriedAnswerHitsWithinItsDirtiedAtRange) {
  ResultCache cache(16, 2);
  cache.Insert(MakeKey(1, /*epoch=*/3), MakeRanking(7, 3.5));
  std::vector<RankedTagSet> out;
  uint64_t computed = 0;
  // Serving epoch 5, user last dirtied at 2 <= 3: the epoch-3 answer is
  // still the answer, and the hit reports where it came from.
  ASSERT_TRUE(cache.Lookup(KeyAt(1, 5, 2), &out, &computed));
  EXPECT_EQ(computed, 3u);
  EXPECT_DOUBLE_EQ(out[0].influence, 3.5);
  // Dirtied exactly at the computing epoch: still valid.
  EXPECT_TRUE(cache.Lookup(KeyAt(1, 5, 3), &out));
  // Dirtied after it: the answer may have changed.
  EXPECT_FALSE(cache.Lookup(KeyAt(1, 5, 4), &out));
  // A serving epoch older than the entry never sees it.
  EXPECT_FALSE(cache.Lookup(KeyAt(1, 2, 1), &out));
  // Without a DirtiedAt a key matches only its own epoch.
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 5), &out));
  EXPECT_TRUE(cache.Lookup(MakeKey(1, 3), &out, &computed));
  EXPECT_EQ(computed, 3u);
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 3u);
}

TEST(ResultCacheTest, NewerInsertReplacesAndCountsAnEviction) {
  ResultCache cache(16, 1);
  cache.Insert(MakeKey(1, /*epoch=*/2), MakeRanking(1, 1.0));
  cache.Insert(MakeKey(1, /*epoch=*/4), MakeRanking(2, 2.0));
  std::vector<RankedTagSet> out;
  EXPECT_FALSE(cache.Lookup(MakeKey(1, 2), &out));
  ASSERT_TRUE(cache.Lookup(MakeKey(1, 4), &out));
  EXPECT_EQ(out[0].tags, std::vector<TagId>{2});
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, stats.entries + stats.evictions);
}

TEST(ResultCacheTest, LaggingWorkersInsertNeverOverwritesNewerEntry) {
  ResultCache cache(16, 1);
  cache.Insert(MakeKey(1, /*epoch=*/5), MakeRanking(5, 5.0));
  // A worker still bound to epoch 3 missed (the entry is newer than its
  // epoch) and computed its own answer; inserting it must not roll the
  // slot back.
  std::vector<RankedTagSet> out;
  EXPECT_FALSE(cache.Lookup(KeyAt(1, 3, 1), &out));
  cache.Insert(MakeKey(1, /*epoch=*/3), MakeRanking(3, 3.0));
  uint64_t computed = 0;
  ASSERT_TRUE(cache.Lookup(KeyAt(1, 6, 1), &out, &computed));
  EXPECT_EQ(computed, 5u);
  EXPECT_EQ(out[0].tags, std::vector<TagId>{5});
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, ConcurrentLaggingWorkersKeepCountsConserved) {
  // Workers pinned to different epochs race inserts and range lookups on
  // a small cache. Whatever wins, a hit returns an answer computed at an
  // epoch inside the looked-up range (the tag encodes it), and every
  // insertion is resident or evicted.
  ResultCache cache(24, 4);
  constexpr int kThreads = 4;
  constexpr uint64_t kEpochs = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      std::vector<RankedTagSet> out;
      for (uint64_t e = 1; e <= kEpochs; ++e) {
        // Thread t lags t epochs behind the leader.
        const uint64_t epoch = e > static_cast<uint64_t>(t) ? e - t : 1;
        for (VertexId user = 0; user < 16; ++user) {
          // Users are dirtied every (user % 3 + 1) epochs.
          const uint64_t period = user % 3 + 1;
          const uint64_t dirtied = 1 + (epoch - 1) / period * period;
          uint64_t computed = 0;
          if (cache.Lookup(KeyAt(user, epoch, dirtied), &out, &computed)) {
            ASSERT_GE(computed, dirtied);
            ASSERT_LE(computed, epoch);
            ASSERT_EQ(out[0].tags[0], static_cast<TagId>(computed));
          } else {
            cache.Insert(MakeKey(user, epoch),
                         MakeRanking(static_cast<TagId>(epoch), 1.0));
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ResultCache::Stats stats = cache.GetStats();
  EXPECT_LE(stats.entries, 24u);
  EXPECT_EQ(stats.insertions, stats.evictions + stats.entries);
}

}  // namespace
}  // namespace pitex
