// pitex_perfbench: runs one named serving workload and writes its raw
// measurements for perfbench/run.py, which computes and prints the
// metrics.
//
//   pitex_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --out <dir>
//
// <dir> must exist and be empty; the run writes raw.json there (and
// spans.csv with --trace 1) and uses it for durability directories.
// Each workload's fixed parameters are constants in its own file.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: pitex_perfbench --workload <index_zipf|lazy_batch|"
               "update_mix> --seed <n> --seconds <s> "
               "--trace <0|1> --out <dir>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  std::map<std::string, std::string> fixed;
  for (int i = 1; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) return Usage();
    const std::string key = argv[i] + 2;
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "out") {
      return Usage();
    }
    fixed[key] = argv[i + 1];
  }
  for (const char* key : {"workload", "seed", "seconds", "trace", "out"}) {
    if (fixed.count(key) == 0) return Usage();
  }
  const std::map<std::string, void (*)(RunContext*)> workloads = {
      {"index_zipf", RunIndexZipf},
      {"lazy_batch", RunLazyBatch},
      {"update_mix", RunUpdateMix},
  };
  const auto workload = workloads.find(fixed["workload"]);
  if (workload == workloads.end()) return Usage();

  Report report;
  SpanLog spans;
  RunContext ctx;
  ctx.seed = std::strtoull(fixed["seed"].c_str(), nullptr, 10);
  ctx.seconds = std::atof(fixed["seconds"].c_str());
  ctx.trace = fixed["trace"] == "1";
  ctx.work_dir = fixed["out"];
  ctx.report = &report;
  ctx.spans = &spans;
  if (ctx.seconds <= 0.0) return Usage();

  try {
    CheckTracerDisarmed(&report);
    workload->second(&ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pitex_perfbench: %s\n", e.what());
    return 1;
  }
  if (ctx.trace && !spans.WriteCsv(ctx.work_dir + "/spans.csv")) {
    std::fprintf(stderr, "pitex_perfbench: cannot write spans.csv\n");
    return 1;
  }
  if (!report.WriteJson(ctx.work_dir + "/raw.json", workload->first, ctx.seed,
                        ctx.seconds, ctx.trace)) {
    std::fprintf(stderr, "pitex_perfbench: cannot write raw.json\n");
    return 1;
  }
  return 0;
}
