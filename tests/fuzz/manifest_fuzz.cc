// libFuzzer harness for the checkpoint manifest reader (PITEX_FUZZ=ON,
// Clang only). The manifest (src/serve/recovery.h) is the durable
// pointer recovery trusts first, and followers install manifests that
// came off the wire, so ReadCheckpointManifest decodes untrusted bytes.
//
// Contract under test: whatever bytes the CHECKPOINT file holds,
// ReadCheckpointManifest either fails cleanly or returns a manifest
// whose snapshot name is a bare file name (recovery joins it onto the
// directory). Any crash, sanitizer report, or invariant violation
// (enforced with abort() below) is a finding.
//
// Seed corpus: set PITEX_FUZZ_SEED_DIR=<dir> and the harness writes a
// real manifest with a model delta there during LLVMFuzzerInitialize:
//
//   mkdir -p corpus
//   PITEX_FUZZ_SEED_DIR=corpus ./manifest_fuzz -max_total_time=30 corpus

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "src/serve/recovery.h"

namespace pitex {
namespace {

namespace fs = std::filesystem;

void Require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "manifest_fuzz invariant violated: %s\n", what);
    std::abort();
  }
}

/// One scratch directory per process; each input rewrites its manifest.
const std::string& ScratchDir() {
  static const std::string dir = [] {
    const std::string d =
        (fs::temp_directory_path() / "pitex_manifest_fuzz_scratch").string();
    fs::remove_all(d);
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

std::string ValidManifestBytes() {
  CheckpointManifest manifest;
  manifest.lsn = 42;
  manifest.epoch = 43;
  manifest.index_version = 336;
  manifest.snapshot_file = "checkpoint-000000000000002a.rridx";
  for (uint32_t e = 0; e < 3; ++e) {
    EdgeInfluenceUpdate& update = manifest.model_delta.emplace_back();
    update.edge = 7 * e;
    update.entries = {{e, 0.25 + 0.1 * e}, {e + 1, 0.5}};
  }
  std::string error;
  Require(WriteCheckpointManifest(ScratchDir(), manifest, &error),
          "seed manifest must write");
  std::ifstream in(ScratchDir() + "/CHECKPOINT", std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace
}  // namespace pitex

extern "C" int LLVMFuzzerInitialize(int* /*argc*/, char*** /*argv*/) {
  using namespace pitex;
  // Self-check: the pristine seed must read back before fuzzing starts.
  const std::string seed = ValidManifestBytes();
  CheckpointManifest manifest;
  bool present = false;
  Require(ReadCheckpointManifest(ScratchDir(), &manifest, &present) &&
              present && manifest.model_delta.size() == 3,
          "seed manifest must read back");
  if (const char* dir = std::getenv("PITEX_FUZZ_SEED_DIR")) {
    std::ofstream out(std::string(dir) + "/seed_manifest",
                      std::ios::binary);
    out.write(seed.data(), static_cast<std::streamsize>(seed.size()));
  }
  return 0;
}

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace pitex;
  {
    std::ofstream out(ScratchDir() + "/CHECKPOINT",
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  CheckpointManifest manifest;
  bool present = false;
  if (ReadCheckpointManifest(ScratchDir(), &manifest, &present) && present) {
    Require(!manifest.snapshot_file.empty() &&
                manifest.snapshot_file.find('/') == std::string::npos,
            "snapshot name is a bare file name");
  }
  return 0;
}
