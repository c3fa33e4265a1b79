// lazy_batch: Lazy (online) sampling served in deterministic mode, one
// closed-loop client sending fixed-size ServeAll batches back to back.
// Sampling and the best-effort solver take nearly all the time; the
// index, the cache and publishing do no work. Deterministic mode makes
// the solver and sampler counters repeat exactly for a given seed.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "harness.h"
#include "src/core/batch_engine.h"

namespace perfbench {

namespace {

constexpr size_t kBatchSize = 32;
// The stream holds what a client four times faster than the reference
// VM's ~500 queries/s could consume; the loop ends early at its end.
constexpr double kStreamQps = 2000.0;
constexpr double kWarmupS = 0.5;
constexpr size_t kWorkers = 2;
constexpr double kSloMs = 300.0;
// Set-ups timed: the measured service, then the rest after the load.
constexpr int64_t kSetups = 200;
constexpr size_t kCounterQueries = 256;
constexpr size_t kReplayEstimates = 512;
constexpr int64_t kBindRepeats = 20;

}  // namespace

void RunLazyBatch(RunContext* ctx) {
  Report* report = ctx->report;
  report->Scalar("slo_ms", kSloMs);
  const pitex::SocialNetwork network = MakeDblp(kBenchDblpScale);
  const ZipfUsers users(network, kZipfExponent);
  SeededRng rng(ctx->seed);
  const size_t stream_batches = static_cast<size_t>(
      kStreamQps * (kWarmupS + ctx->seconds) / kBatchSize) + 1;
  const std::vector<pitex::PitexQuery> stream =
      QueryStream(users, kBatchSize * stream_batches, &rng);
  std::vector<AnswerRecord> answers(stream.size());

  pitex::ServeOptions options;
  options.engine = BenchEngine(pitex::Method::kLazy);
  options.num_threads = kWorkers;
  options.mode = pitex::ScheduleMode::kDeterministic;
  options.cache_capacity = 0;
  const auto make_service = [&](int64_t) {
    return std::make_unique<pitex::PitexService>(&network, options);
  };

  RecordRssBaseline(report);
  auto service = TimedSetups(0, 1, report, make_service);
  const int64_t measure_from = static_cast<int64_t>(kWarmupS * 1e9);
  const int64_t measure_to =
      static_cast<int64_t>((kWarmupS + ctx->seconds) * 1e9);
  const int64_t run_start = NowNs();
  const size_t served = RunClosedLoop(
      *service, stream, kBatchSize, /*wrap=*/false, run_start, measure_from,
      measure_to, report,
      [&](size_t i, const AnswerRecord& r) { answers[i] = r; });
  RecordPeakRss(report);
  CheckConservation(*service, "service", report);
  const std::span<const AnswerRecord> served_answers =
      std::span<const AnswerRecord>(answers).first(served);
  ReportQueries(served_answers, measure_from, measure_to, report);
  report->Scalar("index.size_bytes",
                 static_cast<double>(service->SharedIndexSizeBytes()));
  const auto snapshot = service->CurrentSnapshot();
  service.reset();
  TimedSetups(1, kSetups - 1, report, make_service);

  // Correctness: the served batches through BatchEngine::ExploreAll, in
  // the same order, give bit-identical answers (deterministic mode pins
  // query i of a batch to worker i % num_threads, exactly as BatchEngine
  // assigns it; the samplers carry state from query to query, so the
  // order matters).
  pitex::BatchOptions batch_options;
  batch_options.engine = options.engine;
  batch_options.num_threads = options.num_threads;
  pitex::BatchEngine reference(&network, batch_options);
  reference.Prepare();
  uint64_t mismatched = 0;
  for (size_t first = 0; first < served; first += kBatchSize) {
    const std::vector<pitex::PitexResult> expected = reference.ExploreAll(
        std::span<const pitex::PitexQuery>(stream).subspan(first, kBatchSize));
    for (size_t i = 0; i < expected.size(); ++i) {
      const AnswerRecord& a = answers[first + i];
      if (a.status != pitex::ServeStatus::kOk || !SameAnswer(a, expected[i])) {
        ++mismatched;
      }
    }
  }
  report->Check("answers_match_batch_engine", mismatched == 0 && served > 0,
                std::to_string(mismatched) + " of " + std::to_string(served) +
                    " answers differ");

  // Exact counters over a fixed prefix of the stream: every run with
  // this seed serves the same first kCounterQueries queries on the same
  // workers, so these repeat bit for bit.
  report->Check("exact_counter_prefix_served", served >= kCounterQueries,
                std::to_string(served) + " queries served");
  std::vector<SolveCounters> prefix;
  for (size_t i = 0; i < std::min(served, kCounterQueries); ++i) {
    prefix.push_back(answers[i].counters);
  }
  ReportSolveCounters(prefix, options.engine.method, report);

  if (!ctx->trace) return;
  std::unique_ptr<pitex::PitexEngine> engine;
  for (int64_t i = 0; i < kBindRepeats; ++i) {
    engine.reset();
    ScopedSpan span(ctx->spans, "core.engine_bind", static_cast<uint64_t>(i));
    engine = BindEngine(*snapshot, options.engine);
  }
  for (size_t i = 0; i < std::min(kReplayEstimates, served); ++i) {
    const AnswerRecord& a = answers[i];
    ScopedSpan span(ctx->spans, "sampling.estimate", i);
    (void)engine->EstimateInfluence(a.user, a.tag_span());
  }
}

}  // namespace perfbench
