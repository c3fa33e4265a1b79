// libFuzzer harness for the index persistence layer (PITEX_FUZZ=ON,
// Clang only). Complements tests/index_io_fuzz_test.cc: that suite
// replays a fixed budget of random mutations on every CI run, while this
// harness lets libFuzzer's coverage feedback walk the v2/v3 readers'
// branch structure -- length prefixes, chunk records and their digests,
// CSR layout checks, the checksum trailer -- far more systematically.
//
// Contract under test: whatever bytes arrive, LoadRrIndex and
// LoadDelayMatIndex either return a structurally consistent index or
// fail cleanly. Any crash, sanitizer report, or consistency violation
// (enforced with abort() below) is a finding.
//
// Seed corpus: set PITEX_FUZZ_SEED_DIR=<dir> and the harness writes a
// valid v3 index, the same file with one chunk digest corrupted, the
// golden v2 index (tests/data/v2/) and a valid DelayMat file there during
// LLVMFuzzerInitialize -- the fuzzer then starts from real files instead
// of discovering the magic string byte by byte:
//
//   mkdir -p corpus
//   PITEX_FUZZ_SEED_DIR=corpus ./index_io_fuzz -max_total_time=30 corpus

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "running_example.h"
#include "src/index/index_io.h"
#include "src/index/rr_index.h"

namespace pitex {
namespace {

const SocialNetwork& Network() {
  static const SocialNetwork network = MakeRunningExample();
  return network;
}

RrIndexOptions SeedOptions() {
  RrIndexOptions options;
  options.theta_override = 64;
  options.seed = 3;
  return options;
}

const RrIndex& SeedIndex() {
  static const RrIndex* index = [] {
    auto* built = new RrIndex(Network(), SeedOptions());
    built->Build();
    return built;
  }();
  return *index;
}

std::string ValidV3Bytes() {
  std::stringstream file;
  SaveRrIndex(SeedIndex(), file);
  return file.str();
}

// The v3 seed with one bit flipped in the stored digest of its only
// chunk record (theta 64 fits one chunk). The record layout is
// src/index/index_io.h's: count, roots, two start arrays, vertices,
// offsets, edges, then the digest.
std::string CorruptDigestBytes(const std::string& v3) {
  const RrSketchPool& pool = SeedIndex().pool();
  const size_t header = 16 + 4 + 1 + 8 + 4 * 8 + 8 + 8;
  const size_t count = pool.num_sketches();
  const size_t record = 8 + 4 * count + 2 * 8 * count +
                        4 * pool.total_vertices() +
                        4 * (pool.total_vertices() + count) +
                        12 * pool.total_edges();
  std::string bytes = v3;
  bytes[header + record] = static_cast<char>(bytes[header + record] ^ 0x01);
  return bytes;
}

// Index format v2 is read-only now: its seed is the golden file an older
// build wrote.
std::string GoldenV2Bytes() {
  std::ifstream in(std::string(PITEX_TEST_DATA_DIR) +
                       "/v2/running_example.rridx",
                   std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string ValidDelayBytes() {
  DelayMatIndex index(Network(), SeedOptions());
  index.Build();
  std::stringstream file;
  SaveDelayMatIndex(index, file);
  return file.str();
}

void Require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "index_io_fuzz invariant violated: %s\n", what);
    std::abort();
  }
}

void WriteSeed(const std::string& dir, const char* name,
               const std::string& bytes) {
  std::ofstream out(dir + "/" + name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace
}  // namespace pitex

extern "C" int LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/) {
  using namespace pitex;
  // Self-check: the valid seeds must load and the corrupted one must not
  // before any fuzzing starts; a drifted format would otherwise silently
  // reduce the run to garbage inputs bouncing off the header checks.
  const std::string v3 = ValidV3Bytes();
  const std::string corrupt = CorruptDigestBytes(v3);
  const std::string v2 = GoldenV2Bytes();
  const std::string delay = ValidDelayBytes();
  {
    std::stringstream file(v3);
    Require(LoadRrIndex(Network(), file) != nullptr, "v3 seed must load");
  }
  {
    std::stringstream file(corrupt);
    IndexIoError error;
    Require(LoadRrIndex(Network(), file, &error) == nullptr &&
                error.code == IndexIoCode::kChecksumMismatch,
            "corrupted chunk digest must be rejected");
  }
  {
    std::stringstream file(v2);
    Require(LoadRrIndex(Network(), file) != nullptr, "v2 seed must load");
  }
  {
    std::stringstream file(delay);
    Require(LoadDelayMatIndex(Network(), file) != nullptr,
            "DelayMat seed must load");
  }
  if (const char* dir = std::getenv("PITEX_FUZZ_SEED_DIR")) {
    WriteSeed(dir, "seed_v3.idx", v3);
    WriteSeed(dir, "seed_v3_corrupt_digest.idx", corrupt);
    WriteSeed(dir, "seed_v2.idx", v2);
    WriteSeed(dir, "seed_delay.idx", delay);
  }
  return 0;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace pitex;
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  {
    std::stringstream file(bytes);
    const auto loaded = LoadRrIndex(Network(), file);
    if (loaded != nullptr) {
      // Survivors must be internally consistent: every containment entry
      // backed by actual sketch membership.
      for (VertexId v = 0; v < Network().num_vertices(); ++v) {
        for (const uint32_t id : loaded->Containing(v)) {
          Require(id < loaded->num_graphs(), "containment id in range");
          Require(loaded->graph(id).LocalIndex(v).has_value(),
                  "containment entry backed by membership");
        }
      }
    }
  }
  {
    std::stringstream file(bytes);
    const auto loaded = LoadDelayMatIndex(Network(), file);
    if (loaded != nullptr) {
      for (VertexId v = 0; v < Network().num_vertices(); ++v) {
        Require(loaded->CountContaining(v) <= loaded->theta(),
                "DelayMat counter bounded by theta");
      }
    }
  }
  return 0;
}
