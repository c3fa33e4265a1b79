// Serve-during-update: queries stream through PitexService while
// DynamicRrIndex repairs are published concurrently. Every answer must be
// *exactly* correct for the epoch it reports — computed bit-identically
// by a reference engine bound to that epoch's retained snapshot — and
// the epochs observed must respect publication order. This test is the
// primary ThreadSanitizer target for the serving subsystem (CI runs it
// under TSan; see .github/workflows/ci.yml). Answers carried across
// publishes -- cache entries and IndexEst+ filters of users no batch
// dirtied -- are held to the same standard.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "running_example.h"
#include "serve_metrics.h"
#include "src/datasets/synthetic.h"
#include "src/serve/pitex_service.h"
#include "src/util/failpoint.h"

namespace pitex {
namespace {

struct Observation {
  PitexQuery query;
  ServedResult served;
};

TEST(ServeDuringUpdateTest, EveryAnswerExactForItsEpoch) {
  const SocialNetwork n = MakeRunningExample();

  ServeOptions options;
  options.engine.method = Method::kIndexEst;
  options.engine.index_theta_per_vertex = 150.0;
  options.engine.seed = 5;
  options.num_threads = 4;
  options.mode = ScheduleMode::kWorkStealing;
  options.cache_capacity = 64;  // cache must stay epoch-correct too
  options.enable_updates = true;
  PitexService service(&n, options);
  service.Start();

  // Retain every published snapshot so answers can be re-derived later.
  std::map<uint64_t, std::shared_ptr<const IndexSnapshot>> snapshots;
  snapshots[service.current_epoch()] = service.CurrentSnapshot();

  constexpr size_t kUpdateRounds = 6;
  constexpr size_t kProducers = 2;
  std::atomic<bool> updates_done{false};

  // Producers stream queries for the whole duration of the update storm.
  std::vector<std::thread> producers;
  std::vector<std::vector<Observation>> observations(kProducers);
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([p, &n, &service, &updates_done, &observations] {
      size_t i = 0;
      while (!updates_done.load(std::memory_order_acquire) || i < 8) {
        const PitexQuery query = {
            .user = static_cast<VertexId>((p * 3 + i) % n.num_vertices()),
            .k = 2};
        ServedResult served = service.Submit(query).get();
        observations[p].push_back({query, std::move(served)});
        ++i;
      }
    });
  }

  // The updater drifts the model and publishes a new epoch per round,
  // while the producers are mid-stream.
  for (size_t round = 0; round < kUpdateRounds; ++round) {
    std::vector<EdgeInfluenceUpdate> updates(1);
    updates[0].edge = static_cast<EdgeId>(round % n.num_edges());
    updates[0].entries = {
        {static_cast<TopicId>(round % n.topics.num_topics()),
         0.2 + 0.1 * static_cast<double>(round % 5)}};
    const uint64_t epoch = service.ApplyUpdates(updates);
    // Single-writer: Current() right after publish is exactly `epoch`.
    snapshots[epoch] = service.CurrentSnapshot();
    ASSERT_EQ(snapshots[epoch]->epoch(), epoch);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  updates_done.store(true, std::memory_order_release);
  for (std::thread& producer : producers) producer.join();

  // A query submitted after the storm must see the final epoch.
  const ServedResult final_result = service.Submit({.user = 0, .k = 2}).get();
  EXPECT_EQ(final_result.epoch, kUpdateRounds + 1);

  // Verify every observation against a reference engine bound to the
  // snapshot of the epoch it was served from. kIndexEst is deterministic
  // given an index, so the answers must match bit-for-bit.
  std::map<uint64_t, std::unique_ptr<PitexEngine>> references;
  std::set<uint64_t> epochs_seen;
  size_t verified = 0;
  for (const auto& per_producer : observations) {
    for (const Observation& observation : per_producer) {
      const uint64_t epoch = observation.served.epoch;
      epochs_seen.insert(epoch);
      ASSERT_TRUE(snapshots.count(epoch)) << "unknown epoch " << epoch;
      auto& reference = references[epoch];
      if (reference == nullptr) {
        const IndexSnapshot& snapshot = *snapshots[epoch];
        ASSERT_NE(snapshot.rr_index(), nullptr);
        reference = std::make_unique<PitexEngine>(&snapshot.network(),
                                                  options.engine);
        reference->UseSharedRrIndex(snapshot.rr_index());
        reference->BuildIndex();
      }
      const PitexResult expected = reference->Explore(observation.query);
      EXPECT_EQ(observation.served.result.tags, expected.tags)
          << "epoch " << epoch << " user " << observation.query.user;
      EXPECT_DOUBLE_EQ(observation.served.result.influence,
                       expected.influence)
          << "epoch " << epoch << " user " << observation.query.user;
      ++verified;
    }
  }
  EXPECT_GT(verified, 0u);
  // The producers outlive the whole update storm (they keep submitting
  // until it ends), so they must observe at least first and last epochs.
  EXPECT_GE(epochs_seen.size(), 2u);

  // Epochs observed by one producer never go backwards: publication
  // order is respected even across steals and rebinds.
  for (const auto& per_producer : observations) {
    uint64_t last = 0;
    for (const Observation& observation : per_producer) {
      EXPECT_GE(observation.served.epoch, last);
      last = observation.served.epoch;
    }
  }
}

TEST(ServeDuringUpdateTest, ConcurrentBatchesDuringUpdates) {
  // Coarser stress shape: whole ServeAll batches racing ApplyUpdates
  // from another thread, with the cache on. Answers must be well-formed
  // and stamped with a published epoch.
  const SocialNetwork n = MakeRunningExample();
  ServeOptions options;
  options.engine.method = Method::kIndexEstPlus;
  options.engine.index_theta_per_vertex = 100.0;
  options.num_threads = 3;
  options.enable_updates = true;
  options.cache_capacity = 32;
  PitexService service(&n, options);
  service.Start();

  std::atomic<bool> done{false};
  std::thread updater([&service, &n, &done] {
    for (size_t round = 0; round < 5; ++round) {
      std::vector<EdgeInfluenceUpdate> updates(1);
      updates[0].edge = static_cast<EdgeId>((round * 2 + 1) % n.num_edges());
      updates[0].entries = {{static_cast<TopicId>(round % 3), 0.4}};
      service.ApplyUpdates(updates);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<PitexQuery> queries;
  for (size_t i = 0; i < 10; ++i) {
    queries.push_back({.user = static_cast<VertexId>(i % n.num_vertices()),
                       .k = 2});
  }
  size_t batches = 0;
  while (!done.load(std::memory_order_acquire) || batches < 2) {
    const auto served = service.ServeAll(queries);
    ++batches;
    for (const ServedResult& result : served) {
      ASSERT_EQ(result.result.tags.size(), 2u);
      ASSERT_GE(result.epoch, 1u);
      ASSERT_LE(result.epoch, 6u);
    }
  }
  updater.join();
  const obs::MetricsSnapshot snap = service.SnapshotMetrics();
  EXPECT_EQ(snap.GaugeValue("pitex_epochs_published"), 6);
  EXPECT_EQ(QueriesServed(snap), batches * queries.size());
  // Misses are served - hits, so the old hits + misses == served
  // identity reduces to hits never exceeding what was served.
  EXPECT_LE(snap.CounterValue("pitex_cache_hits_total"), QueriesServed(snap));
}

// A network large enough that one small batch dirties only part of the
// users (the running example's sketches cover nearly every vertex).
SocialNetwork MakeSyntheticNetwork() {
  DatasetSpec spec;
  spec.num_vertices = 240;
  spec.avg_out_degree = 5.0;
  spec.num_topics = 4;
  spec.num_tags = 10;
  spec.tag_topic_density = 0.5;
  spec.seed = 31;
  return GenerateDataset(spec);
}

// `size` updates on random edges; `strong` ones set high probabilities,
// so dead edges resurrect, sketches expand and answers move.
std::vector<EdgeInfluenceUpdate> RandomBatch(const SocialNetwork& n,
                                            size_t size, bool strong,
                                            Rng* rng) {
  std::vector<EdgeInfluenceUpdate> batch(size);
  for (EdgeInfluenceUpdate& update : batch) {
    update.edge = static_cast<EdgeId>(rng->NextBounded(n.num_edges()));
    update.entries = {
        {static_cast<TopicId>(rng->NextBounded(n.topics.num_topics())),
         strong ? 0.9 : 0.05 + 0.2 * rng->NextDouble()}};
  }
  return batch;
}

TEST(ServeDuringUpdateTest, CarriedAnswersMatchAFreshEngineAtTheirEpoch) {
  const SocialNetwork n = MakeSyntheticNetwork();
  ServeOptions options;
  options.engine.method = Method::kIndexEstPlus;
  options.engine.index_theta_per_vertex = 6.0;
  options.engine.seed = 3;
  options.num_threads = 2;
  options.mode = ScheduleMode::kWorkStealing;
  options.cache_capacity = 4096;
  options.enable_updates = true;
  options.publish_max_attempts = 2;
  options.publish_backoff_initial_ms = 0.1;
  options.publish_backoff_max_ms = 0.1;
  PitexService service(&n, options);
  service.Start();

  std::map<uint64_t, std::shared_ptr<const IndexSnapshot>> snapshots;
  snapshots[service.current_epoch()] = service.CurrentSnapshot();
  Rng rng(41);
  size_t published = 0;
  const auto publish = [&](bool strong) {
    const uint64_t epoch = service.ApplyUpdates(RandomBatch(n, 4, strong, &rng));
    ASSERT_NE(epoch, 0u);
    snapshots[epoch] = service.CurrentSnapshot();
    ++published;
  };
  std::mutex observations_mutex;
  std::vector<Observation> observations;
  const auto serve = [&](VertexId user, size_t k) {
    const PitexQuery query = {.user = user, .k = k};
    ServedResult served = service.Submit(query).get();
    const uint32_t worker = served.worker;
    std::lock_guard<std::mutex> lock(observations_mutex);
    observations.push_back({query, std::move(served)});
    return worker;
  };

  // One query in flight at a time never leaves a backlog to steal, so
  // each user is served by its home worker; learn the split.
  std::vector<std::vector<VertexId>> homes(options.num_threads);
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    homes[serve(u, 2)].push_back(u);
    serve(u, 1);
  }
  ASSERT_FALSE(homes[0].empty());
  ASSERT_FALSE(homes[1].empty());
  const auto serve_home = [&](size_t worker) {
    for (const VertexId u : homes[worker]) {
      serve(u, 2);
      serve(u, 1);
    }
  };

  // Worker 1 sleeps through three publishes, one of which failed and
  // folded into the next: its rebind spans every batch since epoch 1.
  publish(/*strong=*/true);
  serve_home(0);
  publish(/*strong=*/false);
  serve_home(0);
#if PITEX_FAILPOINTS_ENABLED
  {
    FailpointConfig config;
    config.mode = FailpointMode::kError;
    FailpointRegistry::Instance().Enable("serve/publish_freeze", config);
    ApplyUpdatesOutcome outcome;
    EXPECT_EQ(service.ApplyUpdates(RandomBatch(n, 4, true, &rng), &outcome),
              0u);
    EXPECT_EQ(outcome, ApplyUpdatesOutcome::kPublishFailed);
    FailpointRegistry::Instance().DisableAll();
  }
  serve_home(0);  // still the previous epoch: the batch is only staged
#endif
  publish(/*strong=*/false);
  serve_home(0);
  serve_home(1);

  // Then both workers under load (steals included) while publishes land.
  std::atomic<bool> updates_done{false};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < 2; ++p) {
    producers.emplace_back([&, p] {
      std::vector<PitexQuery> queries;
      for (VertexId u = static_cast<VertexId>(p); u < n.num_vertices();
           u += 2) {
        queries.push_back({.user = u, .k = 1 + u % 2});
      }
      size_t rounds = 0;
      while (!updates_done.load(std::memory_order_acquire) || rounds < 2) {
        std::vector<ServedResult> served = service.ServeAll(queries);
        std::lock_guard<std::mutex> lock(observations_mutex);
        for (size_t i = 0; i < queries.size(); ++i) {
          observations.push_back({queries[i], std::move(served[i])});
        }
        ++rounds;
      }
    });
  }
  for (int round = 0; round < 4; ++round) {
    publish(/*strong=*/round % 2 == 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  updates_done.store(true, std::memory_order_release);
  for (std::thread& producer : producers) producer.join();

  // Every answer equals a fresh, cache-less engine's at its epoch. Engine-
  // served answers must also match its work counters: kept filters
  // prune exactly as fresh ones do.
  std::map<uint64_t, std::unique_ptr<PitexEngine>> references;
  size_t hits = 0;
  for (const Observation& observation : observations) {
    const uint64_t epoch = observation.served.epoch;
    ASSERT_EQ(observation.served.status, ServeStatus::kOk);
    ASSERT_TRUE(snapshots.count(epoch)) << "unknown epoch " << epoch;
    auto& reference = references[epoch];
    if (reference == nullptr) {
      const IndexSnapshot& snapshot = *snapshots[epoch];
      reference = std::make_unique<PitexEngine>(&snapshot.network(),
                                                options.engine);
      reference->UseSharedRrIndex(snapshot.rr_index());
      reference->BuildIndex();
    }
    const PitexResult expected = reference->Explore(observation.query);
    const PitexResult& got = observation.served.result;
    EXPECT_EQ(got.tags, expected.tags)
        << "epoch " << epoch << " user " << observation.query.user;
    EXPECT_EQ(got.influence, expected.influence)
        << "epoch " << epoch << " user " << observation.query.user;
    if (observation.served.cache_hit) {
      ++hits;
      continue;
    }
    EXPECT_EQ(got.edges_visited, expected.edges_visited)
        << "epoch " << epoch << " user " << observation.query.user;
    EXPECT_EQ(got.sets_evaluated, expected.sets_evaluated)
        << "epoch " << epoch << " user " << observation.query.user;
  }
  EXPECT_GT(hits, 0u);

  // The carry-over really happened: answers of older epochs were served,
  // rebinds kept some filters and dropped others, and worker 1 jumped
  // from epoch 1 over the failed publish.
  const obs::MetricsSnapshot metrics = service.SnapshotMetrics();
  EXPECT_GT(metrics.CounterValue("pitex_cache_carried_hits_total"), 0u);
  const obs::MetricValue* dirty = metrics.Find("pitex_publish_dirty_users");
  ASSERT_NE(dirty, nullptr);
  EXPECT_EQ(dirty->count, published);
  EXPECT_LT(dirty->sum,
            static_cast<double>(published * n.num_vertices()));
  uint64_t dropped = 0;
  bool worker1_skipped = false;
  for (const obs::Event& event : service.journal().Snapshot()) {
    if (event.kind != obs::EventKind::kWorkerRebind) continue;
    dropped += event.c;
    if (event.a == 1 && event.b == 4) worker1_skipped = true;
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_TRUE(worker1_skipped);
}

TEST(ServeDuringUpdateTest, RebindAfterPreviousSnapshotIsReclaimed) {
  // The engine outlives the snapshot it was bound to: Rebind must not
  // read through any pointer into the freed network or index (ASan CI
  // turns such a read into a failure), and the kept filters must then
  // answer exactly as a fresh engine on the new snapshot.
  const SocialNetwork n = MakeSyntheticNetwork();
  RrIndexOptions index_options;
  index_options.theta_override = 1500;
  index_options.seed = 4;
  DynamicRrIndex master(n, index_options);
  master.Build();
  std::shared_ptr<const IndexSnapshot> first =
      IndexSnapshot::FromDynamic(master, 1);
  master.ClearDirtyVertices();

  EngineOptions engine_options;
  engine_options.method = Method::kIndexEstPlus;
  PitexEngine engine(&first->network(), engine_options);
  engine.UseSharedRrIndex(first->rr_index());
  engine.BuildIndex();
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    (void)engine.Explore({.user = u, .k = 2});  // warm every filter
  }

  Rng rng(8);
  master.ApplyUpdates(RandomBatch(n, 4, true, &rng));
  std::shared_ptr<const IndexSnapshot> second =
      IndexSnapshot::FromDynamic(master, 2, first.get());
  master.ClearDirtyVertices();
  master.ApplyUpdates(RandomBatch(n, 4, false, &rng));
  std::shared_ptr<const IndexSnapshot> third =
      IndexSnapshot::FromDynamic(master, 3, second.get());
  const std::weak_ptr<const IndexSnapshot> watch = first;
  first.reset();
  second.reset();
  ASSERT_TRUE(watch.expired());

  size_t dirty = 0;
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    dirty += third->DirtiedAt(u) > 1 ? 1 : 0;
  }
  const size_t dropped = engine.Rebind(
      &third->network(), third->rr_index(),
      [&third](VertexId u) { return third->DirtiedAt(u) > 1; });
  EXPECT_EQ(dropped, dirty);
  EXPECT_GT(dropped, 0u);
  EXPECT_LT(dropped, n.num_vertices());

  PitexEngine fresh(&third->network(), engine_options);
  fresh.UseSharedRrIndex(third->rr_index());
  fresh.BuildIndex();
  for (VertexId u = 0; u < n.num_vertices(); ++u) {
    const PitexResult got = engine.Explore({.user = u, .k = 2});
    const PitexResult expected = fresh.Explore({.user = u, .k = 2});
    EXPECT_EQ(got.tags, expected.tags) << "user " << u;
    EXPECT_EQ(got.influence, expected.influence) << "user " << u;
    EXPECT_EQ(got.edges_visited, expected.edges_visited) << "user " << u;
    EXPECT_EQ(got.sets_evaluated, expected.sets_evaluated) << "user " << u;
  }
}

}  // namespace
}  // namespace pitex
