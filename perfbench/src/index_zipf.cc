// index_zipf: IndexEst+ serving under open-loop Poisson arrivals with
// Zipf-skewed users, then a closed-loop saturation phase on the same
// queries. Admission, scheduling, the result cache and index estimates
// make up most of a query; sampling, the WAL and publishing do no work
// here.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>

#include "harness.h"

namespace perfbench {

namespace {

constexpr double kRateQps = 20000.0;  // about a third of saturation
constexpr double kWarmupS = 1.0;
// The open loop takes this share of --seconds; a saturation phase the rest.
constexpr double kOpenLoopShare = 2.0 / 3.0;
constexpr size_t kSaturationBatch = 64;
constexpr size_t kWorkers = 2;
constexpr size_t kCacheCapacity = 4096;
// ~1.6 s of arrivals, so host stalls never make the admission queue shed.
constexpr size_t kMaxQueueDepth = 32768;
constexpr double kSloMs = 5.0;
// Set-ups timed: the measured service, then the rest after the load.
constexpr int64_t kSetups = 30;
constexpr size_t kReplayQueries = 20000;
constexpr int64_t kBindRepeats = 20;

}  // namespace

void RunIndexZipf(RunContext* ctx) {
  Report* report = ctx->report;
  report->Scalar("slo_ms", kSloMs);
  const pitex::SocialNetwork network = MakeDblp(kDblpScale);
  const ZipfUsers users(network, kZipfExponent);
  const double open_s = kWarmupS + ctx->seconds * kOpenLoopShare;
  const double end_s = kWarmupS + ctx->seconds;
  SeededRng rng(ctx->seed);
  const std::vector<ScheduledQuery> schedule =
      PoissonQueries(users, kRateQps, open_s, &rng);
  // The saturation phase cycles through the same queries, so its answers
  // are checked against the open loop's.
  std::vector<pitex::PitexQuery> stream(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) stream[i] = schedule[i].query;
  std::vector<AnswerRecord> answers(schedule.size());
  // Saturation answers whose open-loop twin was not kOk (stored after the
  // peak-RSS reading, so they do not count in it).
  std::vector<AnswerRecord> unpaired;

  pitex::ServeOptions options;
  options.engine = BenchEngine(pitex::Method::kIndexEstPlus);
  options.num_threads = kWorkers;
  options.mode = pitex::ScheduleMode::kWorkStealing;
  options.cache_capacity = kCacheCapacity;
  options.admission.max_queue_depth = kMaxQueueDepth;
  const auto make_service = [&](int64_t) {
    return std::make_unique<pitex::PitexService>(&network, options);
  };

  RecordRssBaseline(report);
  auto service = TimedSetups(0, 1, report, make_service);
  const int64_t run_start = NowNs();
  RunOpenLoop(*service, schedule, run_start, &answers);
  RecordPeakRss(report);
  uint64_t saturation_mismatched = 0;
  const int64_t saturation_from = NowNs() - run_start;
  RunClosedLoop(*service, stream, kSaturationBatch, /*wrap=*/true, run_start,
                saturation_from, static_cast<int64_t>(end_s * 1e9), report,
                [&](size_t i, const AnswerRecord& r) {
                  report->AddAttempted(1);
                  report->AddFailed(r.status == pitex::ServeStatus::kOk ? 0
                                                                        : 1);
                  if (answers[i].status != pitex::ServeStatus::kOk) {
                    unpaired.push_back(r);
                  } else if (!SameAnswer(r, answers[i])) {
                    ++saturation_mismatched;
                  }
                });
  CheckConservation(*service, "service", report);
  const int64_t measure_from = static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t measure_to = static_cast<int64_t>(open_s * 1e9);
  ReportQueries(answers, measure_from, measure_to, report);
  report->Scalar("index.size_bytes",
                 static_cast<double>(service->SharedIndexSizeBytes()));
  const auto snapshot = service->CurrentSnapshot();
  service.reset();
  TimedSetups(1, kSetups - 1, report, make_service);

  // Correctness: every answer, cache hits and stolen queries included,
  // equals a standalone engine's that built its own index with the same
  // options; each saturation answer equals the open loop's answer to the
  // same query. Each distinct (user, k) of the schedule is solved once,
  // in schedule order, so the reference counters repeat exactly for a
  // given seed whatever the service shed or cached.
  pitex::PitexEngine reference(&network, options.engine);
  reference.BuildIndex();
  std::map<std::pair<pitex::VertexId, size_t>, pitex::PitexResult> solved;
  std::vector<SolveCounters> distinct;
  const auto expected = [&](pitex::VertexId user, size_t k) {
    auto [it, inserted] = solved.try_emplace({user, k});
    if (inserted) {
      it->second = reference.Explore({.user = user, .k = k});
      distinct.push_back(SolveCounters::Of(it->second));
    }
    return &it->second;
  };
  uint64_t checked = 0, mismatched = 0;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const pitex::PitexResult* e =
        expected(schedule[i].query.user, schedule[i].query.k);
    if (answers[i].status != pitex::ServeStatus::kOk) continue;
    ++checked;
    mismatched += SameAnswer(answers[i], *e) ? 0 : 1;
  }
  ReportSolveCounters(distinct, options.engine.method, report);
  for (const AnswerRecord& r : unpaired) {
    ++checked;
    mismatched += r.status == pitex::ServeStatus::kOk &&
                          SameAnswer(r, *expected(r.user, r.k))
                      ? 0
                      : 1;
  }
  report->Check("answers_match_standalone_engine",
                checked > 0 && mismatched == 0,
                std::to_string(mismatched) + " of " + std::to_string(checked) +
                    " answers differ; " + std::to_string(solved.size()) +
                    " distinct (user, k)");
  report->Check("saturation_answers_match_open_loop",
                saturation_mismatched == 0,
                std::to_string(saturation_mismatched) +
                    " saturation answers differ from the open loop's");

  if (!ctx->trace) return;
  const size_t first_measured = FirstAtOrAfter(schedule, measure_from);
  const size_t traced_end =
      std::min(schedule.size(), first_measured + kReplayQueries);
  for (size_t i = first_measured; i < traced_end; ++i) {
    ctx->spans->Record("query", i, run_start + answers[i].sched_ns,
                       run_start + answers[i].ready_ns);
  }
  std::unique_ptr<pitex::PitexEngine> bound;
  for (int64_t i = 0; i < kBindRepeats; ++i) {
    bound.reset();
    ScopedSpan span(ctx->spans, "core.engine_bind", static_cast<uint64_t>(i));
    bound = BindEngine(*snapshot, options.engine);
  }
  ReplayQueryPath(*snapshot, options, schedule, first_measured,
                  kReplayQueries, ctx->spans);
}

}  // namespace perfbench
