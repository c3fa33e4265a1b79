// update_mix: index_zipf's reads at a lower rate beside one writer that
// publishes 8-edge batches on a fixed open-loop cadence, with durability
// on (fsync per batch, checkpoint every few publishes), then a closed-loop
// saturation phase during which the writer publishes once per fixed
// number of served queries. Each publish copies and repacks the index,
// invalidates the cache by epoch and makes every worker rebind its
// engine, so a read gain that costs publishes, or the reverse, shows
// here. The traced run also ships published batches to a
// replica (ReplayShipping), the benchmark's only use of serve/replication.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "harness.h"
#include "publish_replay.h"

namespace perfbench {

namespace {

constexpr double kRateQps = 5000.0;
constexpr double kWarmupS = 1.0;
// The open loop takes this share of --seconds; a saturation phase the rest.
constexpr double kOpenLoopShare = 2.0 / 3.0;
constexpr size_t kSaturationBatch = 64;
constexpr size_t kWorkers = 2;
constexpr size_t kCacheCapacity = 4096;
// ~1.6 s of arrivals even while a publish halves the admission bound.
constexpr size_t kMaxQueueDepth = 16384;
constexpr double kSloMs = 50.0;  // the publish period
constexpr double kPublishPeriodS = 0.050;
// In the saturation phase the writer publishes once per this many served
// queries instead of on the clock, so the mix of reads and publishes, and
// with it the CPU cost per query, does not move with the host's speed.
constexpr size_t kQueriesPerPublish = 1024;
// Update batches are generated for a saturation phase of up to this rate.
constexpr double kMaxSaturationQps = 100000.0;
constexpr uint64_t kCheckpointEvery = 8;
// Set-ups timed: the measured service, then the rest after the load.
constexpr int64_t kSetups = 30;
constexpr uint64_t kVerifyOneEpochIn = 16;
constexpr size_t kReplayQueries = 10000;
// The traced run ships this many of the published batches to a replica,
// the only use of the replication layers in the benchmark.
constexpr size_t kShippedBatches = 48;

struct PublishRecord {
  int64_t sched_ns = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t epoch = 0;
  pitex::ApplyUpdatesOutcome outcome = pitex::ApplyUpdatesOutcome::kPublished;
};

}  // namespace

void RunUpdateMix(RunContext* ctx) {
  Report* report = ctx->report;
  report->Scalar("slo_ms", kSloMs);
  const pitex::SocialNetwork network = MakeDblp(kDblpScale);
  const ZipfUsers users(network, kZipfExponent);
  const double open_s = kWarmupS + ctx->seconds * kOpenLoopShare;
  const double end_s = kWarmupS + ctx->seconds;
  SeededRng rng(ctx->seed);
  const std::vector<ScheduledQuery> schedule =
      PoissonQueries(users, kRateQps, open_s, &rng);
  const size_t open_publishes = static_cast<size_t>(open_s / kPublishPeriodS);
  const auto batches = HubUpdateBatches(
      network,
      open_publishes + static_cast<size_t>((end_s - open_s) *
                                           kMaxSaturationQps /
                                           kQueriesPerPublish),
      &rng);
  std::vector<pitex::PitexQuery> stream(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) stream[i] = schedule[i].query;
  std::vector<AnswerRecord> answers(schedule.size());
  std::vector<PublishRecord> publishes(batches.size());
  // The answers at the first epoch (before any publish) and at a seeded
  // sample of the others, one in kVerifyOneEpochIn, are checked.
  const uint64_t last_epoch = batches.size() + 1;
  std::vector<bool> verify(last_epoch + 1, false);
  SeededRng pick(ctx->seed ^ 0x5A5A5A5A5A5A5A5AULL);
  for (uint64_t e = 1; e <= last_epoch; ++e) {
    verify[e] = e == 1 || pick.Below(kVerifyOneEpochIn) == 0;
  }

  pitex::ServeOptions options;
  options.engine = BenchEngine(pitex::Method::kIndexEstPlus);
  options.num_threads = kWorkers;
  options.mode = pitex::ScheduleMode::kWorkStealing;
  options.cache_capacity = kCacheCapacity;
  options.admission.max_queue_depth = kMaxQueueDepth;
  options.enable_updates = true;
  options.wal.fsync = pitex::WalFsyncPolicy::kAlways;
  options.checkpoint_every = kCheckpointEvery;
  const auto make_service = [&](int64_t i) {
    pitex::ServeOptions fresh = options;
    fresh.durability_dir = ctx->work_dir + "/service-" + std::to_string(i);
    std::filesystem::remove_all(fresh.durability_dir);
    return std::make_unique<pitex::PitexService>(&network, fresh);
  };

  RecordRssBaseline(report);
  // With --trace 1 the writer replays each batch on the publish-path
  // layers right after the service published it, under the same read
  // load, so the parts' spans pair with the measured ApplyUpdates call.
  std::optional<PublishReplay> ledger;
  if (ctx->trace) {
    ledger.emplace(network, options, ctx->work_dir + "/ledger", ctx->spans,
                   /*ledger=*/true);
  }
  auto service = TimedSetups(0, 1, report, make_service);
  const int64_t run_start = NowNs();
  const int64_t end_ns = static_cast<int64_t>(end_s * 1e9);
  size_t applied = 0;
  std::atomic<size_t> saturation_served{0};
  std::thread writer([&] {
    for (; applied < batches.size(); ++applied) {
      PublishRecord& r = publishes[applied];
      if (applied < open_publishes) {
        r.sched_ns = static_cast<int64_t>(static_cast<double>(applied + 1) *
                                          kPublishPeriodS * 1e9);
        std::this_thread::sleep_until(Clock::time_point(
            std::chrono::nanoseconds(run_start + r.sched_ns)));
      } else {
        const size_t due = (applied - open_publishes + 1) * kQueriesPerPublish;
        while (saturation_served.load(std::memory_order_relaxed) < due &&
               NowNs() - run_start < end_ns) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        r.sched_ns = NowNs() - run_start;
      }
      r.start_ns = NowNs() - run_start;
      if (r.start_ns >= end_ns) break;  // fell behind: the run is over
      r.epoch = service->ApplyUpdates(batches[applied], &r.outcome);
      r.end_ns = NowNs() - run_start;
      if (ledger) ledger->Apply(batches[applied], applied + 1);
    }
  });
  RunOpenLoop(*service, schedule, run_start, &answers);
  RecordPeakRss(report);
  std::vector<AnswerRecord> saturation;  // answers at the verified epochs
  RunClosedLoop(*service, stream, kSaturationBatch, /*wrap=*/true, run_start,
                NowNs() - run_start, end_ns, report,
                [&](size_t, const AnswerRecord& r) {
                  report->AddAttempted(1);
                  report->AddFailed(r.status == pitex::ServeStatus::kOk ? 0
                                                                        : 1);
                  if (r.epoch <= last_epoch && verify[r.epoch]) {
                    saturation.push_back(r);
                  }
                  saturation_served.fetch_add(1, std::memory_order_relaxed);
                });
  writer.join();
  report->Check("saturation_publishes_kept_pace", applied < batches.size(),
                "the writer ran out of its " + std::to_string(batches.size()) +
                    " update batches before the run ended");
  CheckConservation(*service, "service", report);
  const int64_t measure_from = static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t measure_to = static_cast<int64_t>(open_s * 1e9);
  ReportQueries(answers, measure_from, measure_to, report);
  report->Scalar("index.size_bytes",
                 static_cast<double>(service->SharedIndexSizeBytes()));

  uint64_t publish_failed = 0;
  for (size_t b = 0; b < applied; ++b) {
    const PublishRecord& r = publishes[b];
    const bool ok = r.outcome == pitex::ApplyUpdatesOutcome::kPublished &&
                    r.epoch == b + 2;
    publish_failed += ok ? 0 : 1;
    if (r.sched_ns < measure_from) continue;
    report->AddAttempted(1);
    report->AddFailed(ok ? 0 : 1);
    report->Append("publish.ms", static_cast<double>(r.end_ns - r.start_ns) *
                                     1e-6);
    if (ctx->trace) {
      ctx->spans->Record("publish", b + 1, run_start + r.start_ns,
                         run_start + r.end_ns);
    }
  }
  report->Check("every_publish_published_in_order", publish_failed == 0,
                std::to_string(publish_failed) + " of " +
                    std::to_string(applied) +
                    " ApplyUpdates calls not published at the next epoch");
  if (ctx->trace) {
    ReplayQueryPath(*service->CurrentSnapshot(), options, schedule,
                    FirstAtOrAfter(schedule, measure_from), kReplayQueries,
                    ctx->spans);
    ReplayShipping(network, options,
                   {batches.begin(),
                    batches.begin() + std::min(kShippedBatches, applied)},
                   ctx);
  }
  service.reset();
  ledger.reset();
  TimedSetups(1, kSetups - 1, report, make_service);

  // Correctness: every answer reported at the sampled epochs, open loop
  // and saturation alike, is re-solved on the replayed snapshot of that
  // epoch.
  std::vector<std::vector<const AnswerRecord*>> by_epoch(last_epoch + 1);
  for (const std::vector<AnswerRecord>* list : {&answers, &saturation}) {
    for (const AnswerRecord& a : *list) {
      if (a.status == pitex::ServeStatus::kOk && a.epoch >= 1 &&
          a.epoch <= last_epoch && verify[a.epoch]) {
        by_epoch[a.epoch].push_back(&a);
      }
    }
  }
  PublishReplay replay(network, options, ctx->work_dir + "/replay",
                       ctx->spans, /*ledger=*/false);
  uint64_t mismatched = 0, verified = 0;
  // One reference solve per distinct (epoch, user, k).
  std::map<std::tuple<uint64_t, pitex::VertexId, uint32_t>, pitex::PitexResult>
      solved;
  std::vector<SolveCounters> solves;
  for (size_t b = 0; b <= applied && publish_failed == 0; ++b) {
    for (const AnswerRecord* a : by_epoch[replay.epoch()]) {
      auto [it, inserted] =
          solved.try_emplace({a->epoch, a->user, a->k});
      if (inserted) {
        it->second = replay.engine().Explore({.user = a->user,
                                              .k = a->k});
        solves.push_back(SolveCounters::Of(it->second));
      }
      ++verified;
      mismatched += SameAnswer(*a, it->second) ? 0 : 1;
    }
    if (b < applied) replay.Apply(batches[b], b + 1);
  }
  ReportSolveCounters(solves, options.engine.method, report);
  report->Check("answers_match_epoch_reference",
                publish_failed == 0 && verified > 0 && mismatched == 0,
                std::to_string(mismatched) + " of " +
                    std::to_string(verified) +
                    " answers at the sampled epochs differ");
}

}  // namespace perfbench
