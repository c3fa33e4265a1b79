// Shared plumbing of the serving benchmark binary: seeded input
// generation, the open- and closed-loop load generators, benchmark-side
// spans, the raw result document, and the checks every workload runs.
//
// The benchmark measures the program from outside. Spans are recorded by
// this harness around calls into public PITEX functions; nothing inside
// the library is instrumented, and the library's own tracer must stay
// disarmed (CheckTracerDisarmed).

#ifndef PERFBENCH_SRC_HARNESS_H_
#define PERFBENCH_SRC_HARNESS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/engine.h"
#include "src/index/dynamic_index.h"
#include "src/model/influence_graph.h"
#include "src/serve/pitex_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread, user and system), in
/// seconds. On a VM whose vCPUs the host preempts, the stolen time is not
/// charged here, so the CPU cost of a phase repeats far better than its
/// wall time.
double ProcessCpuSeconds();

/// splitmix64 for input generation. Deliberately not the library's
/// pitex::Rng: a change to the program under test must never change the
/// benchmark's inputs for a seed. (The std distributions are ruled out
/// too: they are implementation-defined.)
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  /// Exponential with the given rate (mean 1 / rate).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

// Parameters every workload shares. The per-workload rates, cadences and
// sizes are constants at the top of each workload's file; spec.json
// documents all of them.
inline constexpr double kDblpScale = 0.048;       // 24000 vertices
inline constexpr double kBenchDblpScale = 0.006;  // 3000 vertices
inline constexpr double kZipfExponent = 1.0;
inline constexpr size_t kMinK = 2;
inline constexpr size_t kMaxK = 4;
inline constexpr double kHubExponent = 1.0;
inline constexpr size_t kBatchEdges = 8;

/// The dblp analog at `scale` of the Table-2 size, with the tag and topic
/// counts of the bench harness (36 tags, 9 topics). The generator seed is
/// fixed, so a dataset is a function of its scale alone.
pitex::SocialNetwork MakeDblp(double scale);

/// Engine configuration shared by every workload: the paper's accuracy
/// defaults (eps 0.7, delta 1000) with the bench-scale sampling caps.
pitex::EngineOptions BenchEngine(pitex::Method method);

/// Zipf(s) over the vertices that have out-edges. Popularity ranks map to
/// vertices through a fixed permutation, so the popular users are a
/// property of the dataset and only the draws depend on the run's seed.
class ZipfUsers {
 public:
  ZipfUsers(const pitex::SocialNetwork& network, double exponent);
  /// The user at quantile `u` in [0, 1) of the distribution.
  pitex::VertexId At(double u) const;
  size_t size() const { return users_.size(); }

 private:
  std::vector<pitex::VertexId> users_;  // rank order
  std::vector<double> cdf_;
};

struct ScheduledQuery {
  pitex::PitexQuery query;
  /// Scheduled send time, relative to the start of the run.
  int64_t at_ns = 0;
};

/// Queries are drawn in stratified blocks: each block of kStratumQueries
/// queries takes one Zipf user from each of its kStratumQueries equal
/// slices of probability and spreads k evenly over [kMinK, kMaxK], in a
/// seeded random order. Every user then appears in a block in proportion
/// to its weight (give or take one), so the mix of cheap and expensive
/// queries, and with it the cost per query, hardly moves from seed to
/// seed; only the rare users and the order change.
inline constexpr size_t kStratumQueries = 512;

/// `count` queries, stratified as above.
std::vector<pitex::PitexQuery> QueryStream(const ZipfUsers& users,
                                           size_t count, SeededRng* rng);

/// Open-loop Poisson arrivals at `rate_qps` over [0, duration_s), the
/// queries taken from QueryStream in arrival order.
std::vector<ScheduledQuery> PoissonQueries(const ZipfUsers& users,
                                           double rate_qps, double duration_s,
                                           SeededRng* rng);

/// `count` update batches of kBatchEdges edges each. An edge's tail is
/// drawn Zipf(kHubExponent) over vertices ranked by out-degree, so
/// updates concentrate on hub out-edges; each update replaces the edge's
/// topic vector with one or two topics at probability in [0.05, 0.30).
std::vector<std::vector<pitex::EdgeInfluenceUpdate>> HubUpdateBatches(
    const pitex::SocialNetwork& network, size_t count, SeededRng* rng);

/// Index of the first query scheduled at or after `at_ns`.
size_t FirstAtOrAfter(const std::vector<ScheduledQuery>& schedule,
                      int64_t at_ns);

/// The work counters of one solve (zero for cache hits).
struct SolveCounters {
  uint64_t bounds = 0;
  uint64_t sets_evaluated = 0;
  uint64_t sets_pruned = 0;
  uint64_t samples = 0;
  uint64_t edges = 0;
  double seconds = 0.0;

  static SolveCounters Of(const pitex::PitexResult& result);
};

/// One served answer, reduced to what the checks and metrics need. Fixed
/// size, no heap storage: answer buffers are allocated before the
/// service is set up, so the peak-RSS growth is the service's own.
struct AnswerRecord {
  pitex::VertexId user = 0;
  uint32_t k = 0;
  uint32_t num_tags = 0;
  std::array<pitex::TagId, kMaxK> tags{};
  pitex::ServeStatus status = pitex::ServeStatus::kOk;
  bool cache_hit = false;
  bool stolen = false;
  uint64_t epoch = 0;
  double influence = 0.0;
  SolveCounters counters;
  int64_t sched_ns = 0;  // scheduled (or batch send) time, run-relative
  int64_t sent_ns = 0;   // actual send time, run-relative
  int64_t ready_ns = 0;  // answer observed ready, run-relative

  std::span<const pitex::TagId> tag_span() const {
    return {tags.data(), num_tags};
  }
};

AnswerRecord ToRecord(const pitex::PitexQuery& query,
                      const pitex::ServedResult& served);

/// Benchmark-side spans: name, start, end, parent, and a request id that
/// joins the spans of one query or one publish. Kept in memory, written
/// once at exit. Single-threaded: only the benchmark's main thread records.
class SpanLog {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  uint32_t Open(std::string_view name, uint64_t request);
  void Close(uint32_t id);
  /// A span whose endpoints were observed elsewhere (e.g. a query root
  /// from scheduled send to answer ready).
  void Record(std::string_view name, uint64_t request, int64_t start_ns,
              int64_t end_ns);
  bool WriteCsv(const std::string& path) const;

 private:
  struct Span {
    uint32_t name = 0;
    uint32_t parent = kNoParent;
    uint64_t request = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };
  uint32_t NameId(std::string_view name);

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  uint32_t current_ = kNoParent;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, uint64_t request)
      : log_(log), id_(log->Open(name, request)) {}
  ~ScopedSpan() { log_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_;
};

/// The raw result document one run writes for run.py: check verdicts,
/// scalar measurements, and sample series. run.py owns every statistic
/// (medians, percentiles, ratios); this binary only measures.
class Report {
 public:
  void Check(const std::string& name, bool ok, const std::string& detail = "");
  void Scalar(const std::string& name, double value);
  void Series(const std::string& name, std::vector<double> values);
  void Append(const std::string& series, double value);
  void AddAttempted(uint64_t n) { attempted_ += n; }
  void AddFailed(uint64_t n) { failed_ += n; }
  bool all_ok() const;
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed, double seconds, bool trace) const;

 private:
  struct CheckResult {
    std::string name;
    bool ok = false;
    std::string detail;
  };
  std::vector<CheckResult> checks_;
  std::map<std::string, double> scalars_;
  std::map<std::string, std::vector<double>> series_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Everything a workload receives.
struct RunContext {
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  /// Scratch directory inside the checkout, empty at start.
  std::string work_dir;
  Report* report = nullptr;
  SpanLog* spans = nullptr;
};

/// The library's tracer must be off in every measured run: the benchmark's
/// numbers describe the uninstrumented program.
void CheckTracerDisarmed(Report* report);

/// The conservation identities of docs/observability.md, read from one
/// metrics snapshot after the service drained.
void CheckConservation(pitex::PitexService& service, const std::string& label,
                       Report* report);

/// Bit-identical answer comparison (tags and influence) of a served
/// answer against a reference result.
bool SameAnswer(const AnswerRecord& answer, const pitex::PitexResult& expected);
bool SameAnswer(const AnswerRecord& a, const AnswerRecord& b);

/// Per-query counter series of the core/index/sampling layers, from the
/// counters of solved (non-cached) answers.
void ReportSolveCounters(const std::vector<SolveCounters>& solves,
                         pitex::Method method, Report* report);

/// Sojourn, status and timing series of served queries whose scheduled
/// time falls in [measure_from_ns, measure_to_ns): the end-to-end query
/// metrics and the scheduler layer's queue wait.
void ReportQueries(std::span<const AnswerRecord> answers,
                   int64_t measure_from_ns, int64_t measure_to_ns,
                   Report* report);

/// Times set-ups `first` .. `first + count - 1` (construction + Start)
/// in process CPU time and returns the last service. CPU time rather than
/// wall time: host steal episodes stretched the wall time of the same
/// set-up by up to 75%, and a durable set-up's fsyncs add their own
/// noise; work moved into set-up shows either way. A workload sets up the
/// service it measures first, right after the resident-set baseline (so
/// the peak RSS holds no earlier service's allocator leftovers), and the
/// rest after the load; run.py reports the median, so a short host stall
/// does not decide the figure.
/// `make_service(i)` constructs set-up i.
template <typename MakeService>
auto TimedSetups(int64_t first, int64_t count, Report* report,
                 MakeService make_service) {
  decltype(make_service(0)) service;
  for (int64_t i = first; i < first + count; ++i) {
    service.reset();
    const double start = ProcessCpuSeconds();
    service = make_service(i);
    service->Start();
    report->Append("setup_s", ProcessCpuSeconds() - start);
  }
  return service;
}

/// Records the baseline the peak-RSS growth is measured from. Call it
/// once every input and answer buffer is allocated and touched, just
/// before the first set-up, while the process has no other thread.
///
/// The peak of ru_maxrss would still hold the input generation's
/// transients, so this returns in a forked child, whose peak starts at
/// its current resident set: the rest of the run happens in the child,
/// and the parent waits for it and exits with its status.
void RecordRssBaseline(Report* report);
/// Records the peak RSS at the end of the measured load.
void RecordPeakRss(Report* report);

/// Drives `schedule` open-loop from the calling thread, which spins
/// between sends and polls the outstanding futures, so each answer's
/// ready time is when its own future became ready, not when an in-order
/// collector reached it. Times are relative to `run_start_ns`; answers[i]
/// (sized like the schedule by the caller) answers schedule[i].
void RunOpenLoop(pitex::PitexService& service,
                 const std::vector<ScheduledQuery>& schedule,
                 int64_t run_start_ns, std::vector<AnswerRecord>* answers);

/// Closed-loop load from the calling thread: ServeAll batches of
/// `batch_size` consecutive queries of `stream` back to back until
/// `until_ns` (run-relative). At the end of the stream it wraps to the
/// start with `wrap` (for methods whose answers do not depend on the
/// queries served before) and stops without.
/// The batches sent at or after `measure_from_ns` are the measured phase:
/// its query count, wall time and process CPU time are appended to the
/// "closed_loop.queries", "closed_loop.wall_s" and "closed_loop.cpu_s"
/// series (one entry per call), which give query_qps and cpu_us_per_op.
/// `on_answer(stream_index, record)` receives every answer. Returns the
/// number of queries served.
template <typename OnAnswer>
size_t RunClosedLoop(pitex::PitexService& service,
                     std::span<const pitex::PitexQuery> stream,
                     size_t batch_size, bool wrap, int64_t run_start_ns,
                     int64_t measure_from_ns, int64_t until_ns,
                     Report* report, OnAnswer on_answer) {
  size_t at = 0, served_total = 0, measured = 0;
  int64_t measured_from = -1, measured_to = 0;
  double cpu_from = 0.0;
  for (int64_t sent = NowNs() - run_start_ns; sent < until_ns;
       sent = NowNs() - run_start_ns) {
    if (at + batch_size > stream.size()) {
      if (!wrap) break;
      at = 0;
    }
    const std::span<const pitex::PitexQuery> batch =
        stream.subspan(at, batch_size);
    if (measured_from < 0 && sent >= measure_from_ns) {
      measured_from = sent;
      cpu_from = ProcessCpuSeconds();
    }
    const std::vector<pitex::ServedResult> served = service.ServeAll(batch);
    const int64_t ready = NowNs() - run_start_ns;
    if (measured_from >= 0) {
      measured += batch.size();
      measured_to = ready;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      AnswerRecord r = ToRecord(batch[i], served[i]);
      r.sched_ns = r.sent_ns = sent;
      r.ready_ns = ready;
      on_answer(at + i, r);
    }
    at += batch.size();
    served_total += batch.size();
  }
  if (measured > 0) {
    report->Append("closed_loop.cpu_s", ProcessCpuSeconds() - cpu_from);
    report->Append("closed_loop.wall_s",
                   static_cast<double>(measured_to - measured_from) * 1e-9);
    report->Append("closed_loop.queries", static_cast<double>(measured));
  }
  return served_total;
}

/// Replays schedule[first, first + count) on the query-path layers
/// directly, with a span around each call (request id = schedule index):
/// admission decision, cache probe, solve and cache insert on a miss, and
/// one influence estimate of the answered tag set.
void ReplayQueryPath(const pitex::IndexSnapshot& snapshot,
                     const pitex::ServeOptions& options,
                     const std::vector<ScheduledQuery>& schedule, size_t first,
                     size_t count, SpanLog* spans);

/// Engine bound to a snapshot exactly as PitexService::BindWorker binds a
/// worker replica (shared RR index, then BuildIndex).
std::unique_ptr<pitex::PitexEngine> BindEngine(
    const pitex::IndexSnapshot& snapshot, const pitex::EngineOptions& options);

// Workload entry points (one translation unit each).
void RunIndexZipf(RunContext* ctx);
void RunLazyBatch(RunContext* ctx);
void RunUpdateMix(RunContext* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HARNESS_H_
