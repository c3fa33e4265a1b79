#include "harness.h"

#include <malloc.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <utility>

#include "src/datasets/synthetic.h"
#include "src/obs/trace.h"
#include "src/serve/admission.h"
#include "src/serve/result_cache.h"

namespace perfbench {

double ProcessCpuSeconds() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

// --- inputs --------------------------------------------------------------

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeededRng::Exponential(double rate) {
  return -std::log1p(-Uniform()) / rate;
}

pitex::SocialNetwork MakeDblp(double scale) {
  pitex::DatasetSpec spec = pitex::DblpSpec(scale);
  spec.num_tags = 36;
  spec.num_topics = 9;
  return pitex::GenerateDataset(spec);
}

pitex::EngineOptions BenchEngine(pitex::Method method) {
  pitex::EngineOptions options;
  options.method = method;
  options.eps = 0.7;
  options.delta = 1000.0;
  options.min_samples = 32;
  options.max_samples = 512;
  options.index_theta_per_vertex = 4.0;
  options.seed = 7;
  return options;
}

ZipfUsers::ZipfUsers(const pitex::SocialNetwork& network, double exponent) {
  for (pitex::VertexId v = 0; v < network.num_vertices(); ++v) {
    if (network.graph.OutDegree(v) > 0) users_.push_back(v);
  }
  if (users_.empty()) throw std::runtime_error("dataset has no out-edges");
  SeededRng permute(0x9E3779B1u);  // fixed: popularity is a dataset property
  for (size_t i = users_.size() - 1; i > 0; --i) {
    std::swap(users_[i], users_[permute.Below(i + 1)]);
  }
  cdf_.resize(users_.size());
  double total = 0.0;
  for (size_t rank = 0; rank < users_.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), exponent);
    cdf_[rank] = total;
  }
  for (double& c : cdf_) c /= total;
}

pitex::VertexId ZipfUsers::At(double u) const {
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return users_[std::min(rank, users_.size() - 1)];
}

std::vector<pitex::PitexQuery> QueryStream(const ZipfUsers& users,
                                           size_t count, SeededRng* rng) {
  constexpr size_t kNumK = kMaxK - kMinK + 1;
  std::vector<pitex::PitexQuery> stream;
  stream.reserve(count + kStratumQueries);
  while (stream.size() < count) {
    const size_t first = stream.size();
    for (size_t j = 0; j < kStratumQueries; ++j) {
      const double u =
          (static_cast<double>(j) + rng->Uniform()) / kStratumQueries;
      stream.push_back({.user = users.At(u), .k = kMinK + j % kNumK});
    }
    for (size_t i = kStratumQueries - 1; i > 0; --i) {
      std::swap(stream[first + i], stream[first + rng->Below(i + 1)]);
    }
  }
  stream.resize(count);
  return stream;
}

std::vector<ScheduledQuery> PoissonQueries(const ZipfUsers& users,
                                           double rate_qps, double duration_s,
                                           SeededRng* rng) {
  std::vector<ScheduledQuery> schedule;
  schedule.reserve(static_cast<size_t>(rate_qps * duration_s * 1.1) + 16);
  for (double t = rng->Exponential(rate_qps); t < duration_s;
       t += rng->Exponential(rate_qps)) {
    schedule.push_back({.at_ns = static_cast<int64_t>(t * 1e9)});
  }
  const std::vector<pitex::PitexQuery> queries =
      QueryStream(users, schedule.size(), rng);
  for (size_t i = 0; i < schedule.size(); ++i) schedule[i].query = queries[i];
  return schedule;
}

size_t FirstAtOrAfter(const std::vector<ScheduledQuery>& schedule,
                      int64_t at_ns) {
  return static_cast<size_t>(
      std::partition_point(schedule.begin(), schedule.end(),
                           [at_ns](const ScheduledQuery& q) {
                             return q.at_ns < at_ns;
                           }) -
      schedule.begin());
}

std::vector<std::vector<pitex::EdgeInfluenceUpdate>> HubUpdateBatches(
    const pitex::SocialNetwork& network, size_t count, SeededRng* rng) {
  std::vector<pitex::VertexId> tails;
  for (pitex::VertexId v = 0; v < network.num_vertices(); ++v) {
    if (network.graph.OutDegree(v) > 0) tails.push_back(v);
  }
  std::stable_sort(tails.begin(), tails.end(),
                   [&](pitex::VertexId a, pitex::VertexId b) {
                     return network.graph.OutDegree(a) >
                            network.graph.OutDegree(b);
                   });
  std::vector<double> cdf(tails.size());
  double total = 0.0;
  for (size_t rank = 0; rank < tails.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank + 1), kHubExponent);
    cdf[rank] = total;
  }
  const size_t num_topics = network.topics.num_topics();
  std::vector<std::vector<pitex::EdgeInfluenceUpdate>> batches(count);
  for (auto& batch : batches) {
    batch.resize(kBatchEdges);
    for (pitex::EdgeInfluenceUpdate& update : batch) {
      const size_t rank = std::min(
          tails.size() - 1,
          static_cast<size_t>(std::upper_bound(cdf.begin(), cdf.end(),
                                               rng->Uniform() * total) -
                              cdf.begin()));
      const auto out = network.graph.OutEdges(tails[rank]);
      update.edge = out[rng->Below(out.size())].edge;
      const auto first = static_cast<pitex::TopicId>(rng->Below(num_topics));
      update.entries.push_back({first, 0.05 + 0.25 * rng->Uniform()});
      if (num_topics > 1 && rng->Uniform() < 0.5) {
        const auto second = static_cast<pitex::TopicId>(
            (first + 1 + rng->Below(num_topics - 1)) % num_topics);
        update.entries.push_back({second, 0.05 + 0.25 * rng->Uniform()});
        if (second < first) std::swap(update.entries[0], update.entries[1]);
      }
    }
  }
  return batches;
}

SolveCounters SolveCounters::Of(const pitex::PitexResult& result) {
  SolveCounters c;
  c.bounds = result.bounds_evaluated;
  c.sets_evaluated = result.sets_evaluated;
  c.sets_pruned = result.sets_pruned;
  c.samples = result.total_samples;
  c.edges = result.edges_visited;
  c.seconds = result.seconds;
  return c;
}

AnswerRecord ToRecord(const pitex::PitexQuery& query,
                      const pitex::ServedResult& served) {
  AnswerRecord r;
  r.user = query.user;
  r.k = static_cast<uint32_t>(query.k);
  r.status = served.status;
  r.cache_hit = served.cache_hit;
  r.stolen = served.stolen;
  r.epoch = served.epoch;
  const std::vector<pitex::TagId>& tags = served.result.tags;
  if (tags.size() > kMaxK) throw std::runtime_error("answer has > kMaxK tags");
  r.num_tags = static_cast<uint32_t>(tags.size());
  std::copy(tags.begin(), tags.end(), r.tags.begin());
  r.influence = served.result.influence;
  r.counters = SolveCounters::Of(served.result);
  return r;
}

// --- load generators --------------------------------------------------------

void RunOpenLoop(pitex::PitexService& service,
                 const std::vector<ScheduledQuery>& schedule,
                 int64_t run_start_ns, std::vector<AnswerRecord>* answers) {
  struct Outstanding {
    std::future<pitex::ServedResult> future;
    size_t index = 0;
    int64_t sent_ns = 0;
  };
  std::vector<Outstanding> outstanding;
  outstanding.reserve(4096);
  size_t next = 0;
  while (next < schedule.size() || !outstanding.empty()) {
    int64_t now = NowNs() - run_start_ns;
    if (next < schedule.size() && now >= schedule[next].at_ns) {
      outstanding.push_back({service.Submit(schedule[next].query), next, now});
      ++next;
      continue;
    }
    for (size_t i = 0; i < outstanding.size();) {
      Outstanding& o = outstanding[i];
      if (o.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      now = NowNs() - run_start_ns;
      AnswerRecord& r = (*answers)[o.index] =
          ToRecord(schedule[o.index].query, o.future.get());
      r.sched_ns = schedule[o.index].at_ns;
      r.sent_ns = o.sent_ns;
      r.ready_ns = now;
      outstanding[i] = std::move(outstanding.back());
      outstanding.pop_back();
    }
  }
}

// --- spans -----------------------------------------------------------------

uint32_t SpanLog::NameId(std::string_view name) {
  for (uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

uint32_t SpanLog::Open(std::string_view name, uint64_t request) {
  Span span;
  span.name = NameId(name);
  span.parent = current_;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  current_ = static_cast<uint32_t>(spans_.size() - 1);
  return current_;
}

void SpanLog::Close(uint32_t id) {
  spans_[id].end_ns = NowNs();
  current_ = spans_[id].parent;
}

void SpanLog::Record(std::string_view name, uint64_t request,
                     int64_t start_ns, int64_t end_ns) {
  Span span;
  span.name = NameId(name);
  span.parent = current_;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

bool SpanLog::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,request,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu,%lld,%llu,%s,%lld,%lld\n", i,
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// --- report ----------------------------------------------------------------

void Report::Check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::Scalar(const std::string& name, double value) {
  scalars_[name] = value;
}

void Report::Series(const std::string& name, std::vector<double> values) {
  series_[name] = std::move(values);
}

void Report::Append(const std::string& series, double value) {
  series_[series].push_back(value);
}

bool Report::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const CheckResult& c) { return c.ok; });
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteNumber(FILE* f, double v) {
  if (!std::isfinite(v)) {
    std::fputs("null", f);
  } else {
    std::fprintf(f, "%.17g", v);
  }
}

}  // namespace

bool Report::WriteJson(const std::string& path, const std::string& workload,
                       uint64_t seed, double seconds, bool trace) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"seconds\": ",
               JsonString(workload).c_str(),
               static_cast<unsigned long long>(seed));
  WriteNumber(f, seconds);
  std::fprintf(f, ", \"trace\": %s, \"attempted\": %llu, \"failed\": %llu",
               trace ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  std::fputs(",\n \"checks\": [", f);
  const char* sep = "";
  for (const CheckResult& c : checks_) {
    std::fprintf(f, "%s\n  {\"name\": %s, \"ok\": %s, \"detail\": %s}", sep,
                 JsonString(c.name).c_str(), c.ok ? "true" : "false",
                 JsonString(c.detail).c_str());
    sep = ",";
  }
  std::fputs("],\n \"scalars\": {", f);
  sep = "";
  for (const auto& [name, value] : scalars_) {
    std::fprintf(f, "%s\n  %s: ", sep, JsonString(name).c_str());
    WriteNumber(f, value);
    sep = ",";
  }
  std::fputs("},\n \"series\": {", f);
  sep = "";
  for (const auto& [name, values] : series_) {
    std::fprintf(f, "%s\n  %s: [", sep, JsonString(name).c_str());
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) std::fputc(',', f);
      WriteNumber(f, values[i]);
    }
    std::fputc(']', f);
    sep = ",";
  }
  std::fputs("}}\n", f);
  return std::fclose(f) == 0;
}

// --- checks ----------------------------------------------------------------

namespace {

int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

}  // namespace

void RecordRssBaseline(Report* report) {
  // Hand freed heap back to the kernel first, so the service's memory
  // shows as new pages instead of reusing resident free chunks.
  malloc_trim(0);
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t child = fork();
  if (child < 0) throw std::runtime_error("fork failed");
  if (child > 0) {
    int status = 0;
    while (waitpid(child, &status, 0) < 0) {
      if (errno != EINTR) std::_Exit(1);
    }
    std::_Exit(WIFEXITED(status) ? WEXITSTATUS(status) : 1);
  }
  // The child must not outlive a parent that was killed.
  if (prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || getppid() != parent) {
    std::_Exit(1);
  }
  report->Scalar("rss_baseline_kb", static_cast<double>(PeakRssKb()));
}

void RecordPeakRss(Report* report) {
  report->Scalar("peak_rss_kb", static_cast<double>(PeakRssKb()));
}

void CheckTracerDisarmed(Report* report) {
  const char* env = std::getenv("PITEX_TRACE_SAMPLE");
  const uint64_t every = pitex::obs::Tracer::Instance().sample_every();
  report->Check("library_tracer_disarmed", env == nullptr && every == 0,
                env != nullptr ? "PITEX_TRACE_SAMPLE is set"
                               : "sample_every=" + std::to_string(every));
}

void CheckConservation(pitex::PitexService& service, const std::string& label,
                       Report* report) {
  const pitex::obs::MetricsSnapshot snap = service.SnapshotMetrics();
  const uint64_t submitted = snap.CounterValue("pitex_queries_submitted_total");
  const uint64_t admitted = snap.CounterValue("pitex_queries_admitted_total");
  const uint64_t shed =
      snap.CounterValue("pitex_queries_shed_queue_full_total") +
      snap.CounterValue("pitex_queries_shed_rate_limited_total");
  const uint64_t resolved =
      snap.CounterValue("pitex_queries_ok_total") +
      snap.CounterValue("pitex_queries_degraded_total") +
      snap.CounterValue("pitex_queries_deadline_expired_total");
  const int64_t insertions = snap.GaugeValue("pitex_cache_insertions");
  const int64_t entries = snap.GaugeValue("pitex_cache_entries");
  const int64_t evictions = snap.GaugeValue("pitex_cache_evictions");
  const int64_t in_flight = snap.GaugeValue("pitex_admission_in_flight");
  const bool ok = submitted == admitted + shed && admitted == resolved &&
                  insertions == entries + evictions && in_flight == 0;
  char detail[256];
  std::snprintf(detail, sizeof(detail),
                "submitted=%llu admitted=%llu shed=%llu resolved=%llu "
                "insertions=%lld entries=%lld evictions=%lld in_flight=%lld",
                static_cast<unsigned long long>(submitted),
                static_cast<unsigned long long>(admitted),
                static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(resolved),
                static_cast<long long>(insertions),
                static_cast<long long>(entries),
                static_cast<long long>(evictions),
                static_cast<long long>(in_flight));
  report->Check("conservation_" + label, ok, detail);
}

bool SameAnswer(const AnswerRecord& answer,
                const pitex::PitexResult& expected) {
  return std::ranges::equal(answer.tag_span(), expected.tags) &&
         answer.influence == expected.influence;
}

bool SameAnswer(const AnswerRecord& a, const AnswerRecord& b) {
  return a.status == b.status &&
         std::ranges::equal(a.tag_span(), b.tag_span()) &&
         a.influence == b.influence;
}

void ReportSolveCounters(const std::vector<SolveCounters>& solves,
                         pitex::Method method, Report* report) {
  const bool index = method == pitex::Method::kIndexEst ||
                     method == pitex::Method::kIndexEstPlus;
  for (const SolveCounters& c : solves) {
    report->Append("core.bounds", static_cast<double>(c.bounds));
    report->Append("core.sets_evaluated",
                   static_cast<double>(c.sets_evaluated));
    report->Append("core.sets_pruned", static_cast<double>(c.sets_pruned));
    report->Append(index ? "index.edges" : "sampling.edges",
                   static_cast<double>(c.edges));
    if (!index) {
      report->Append("sampling.samples", static_cast<double>(c.samples));
    }
  }
}

void ReportQueries(std::span<const AnswerRecord> answers,
                   int64_t measure_from_ns, int64_t measure_to_ns,
                   Report* report) {
  uint64_t attempted = 0, failed = 0, hits = 0, stolen = 0, shed = 0;
  std::vector<double> sojourn_ms, sched_s, solve_ms, queue_wait_ms, late_ms;
  for (const AnswerRecord& a : answers) {
    if (a.sched_ns < measure_from_ns || a.sched_ns >= measure_to_ns) continue;
    ++attempted;
    late_ms.push_back(static_cast<double>(a.sent_ns - a.sched_ns) * 1e-6);
    if (a.status == pitex::ServeStatus::kShed) ++shed;
    if (a.status != pitex::ServeStatus::kOk) {
      ++failed;
      continue;
    }
    const double sojourn = static_cast<double>(a.ready_ns - a.sched_ns) * 1e-6;
    sojourn_ms.push_back(sojourn);
    sched_s.push_back(static_cast<double>(a.sched_ns - measure_from_ns) * 1e-9);
    hits += a.cache_hit ? 1 : 0;
    stolen += a.stolen ? 1 : 0;
    if (!a.cache_hit) {
      solve_ms.push_back(a.counters.seconds * 1e3);
      queue_wait_ms.push_back(sojourn - a.counters.seconds * 1e3);
    }
  }
  report->AddAttempted(attempted);
  report->AddFailed(failed);
  report->Scalar("queries.attempted", static_cast<double>(attempted));
  report->Scalar("queries.failed", static_cast<double>(failed));
  report->Scalar("queries.shed", static_cast<double>(shed));
  report->Scalar("queries.cache_hits", static_cast<double>(hits));
  report->Scalar("queries.stolen", static_cast<double>(stolen));
  report->Series("query.sojourn_ms", std::move(sojourn_ms));
  report->Series("query.sched_s", std::move(sched_s));
  report->Series("core.solve_ms", std::move(solve_ms));
  report->Series("scheduler.queue_wait_ms", std::move(queue_wait_ms));
  report->Series("loadgen.lateness_ms", std::move(late_ms));
}

std::unique_ptr<pitex::PitexEngine> BindEngine(
    const pitex::IndexSnapshot& snapshot, const pitex::EngineOptions& options) {
  auto engine = std::make_unique<pitex::PitexEngine>(&snapshot.network(),
                                                     options);
  if (snapshot.rr_index() != nullptr) {
    engine->UseSharedRrIndex(snapshot.rr_index());
  }
  engine->BuildIndex();
  return engine;
}

void ReplayQueryPath(const pitex::IndexSnapshot& snapshot,
                     const pitex::ServeOptions& options,
                     const std::vector<ScheduledQuery>& schedule,
                     size_t first, size_t count, SpanLog* spans) {
  pitex::AdmissionController admission(options.admission);
  pitex::ResultCache cache(options.cache_capacity, options.cache_shards);
  auto engine = BindEngine(snapshot, options.engine);
  pitex::ResultCacheKey key;
  key.top_n = 1;
  key.method = static_cast<uint8_t>(options.engine.method);
  key.epoch = snapshot.epoch();
  std::vector<pitex::RankedTagSet> ranking;
  const size_t end = std::min(schedule.size(), first + count);
  for (size_t i = first; i < end; ++i) {
    const pitex::PitexQuery& query = schedule[i].query;
    ScopedSpan root(spans, "replay.query", i);
    {
      ScopedSpan span(spans, "admission.try_admit", i);
      (void)admission.TryAdmit(query.user, Clock::now());
    }
    admission.Release(1);
    key.user = query.user;
    key.k = static_cast<uint32_t>(query.k);
    bool hit = false;
    {
      ScopedSpan span(spans, "cache.lookup", i);
      hit = cache.Lookup(key, &ranking);
    }
    if (!hit) {
      pitex::PitexResult result;
      {
        ScopedSpan span(spans, "core.solve", i);
        result = engine->Explore(query);
      }
      ranking.assign(1, pitex::RankedTagSet{result.tags, result.influence});
      ScopedSpan span(spans, "cache.insert", i);
      cache.Insert(key, ranking);
    }
    ScopedSpan span(spans, "index.estimate", i);
    (void)engine->EstimateInfluence(query.user, ranking.front().tags);
  }
}

}  // namespace perfbench
