// Extension bench: replication catch-up and time-to-promote (failover).
//
// Not a paper figure — the paper serves from one in-memory index; this
// harness measures what the replicated serving tier
// (src/serve/replication.h, docs/robustness.md "Replication &
// failover") costs on the availability axis:
//   1. catch-up time as a function of follower lag: a follower that
//      connects L acknowledged batches behind the primary must bootstrap
//      and replay the backlog before it is a credible failover target.
//      Shipping is replay-bound, so catch-up should grow roughly
//      linearly with L;
//   2. time-to-promote after the primary goes quiet, measured at the
//      same lag levels. Because the follower replays continuously (it
//      never batches the backlog for later), promotion waits only on
//      the heartbeat timeout — the curve should be flat in L, and that
//      flatness is the point: lag costs you during steady state, not
//      during the outage.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/serve/pitex_service.h"
#include "src/serve/replication.h"
#include "src/serve/term_authority.h"

int main(int argc, char** argv) {
  pitex::bench::InitBench(argc, argv);
  using namespace pitex;
  using namespace pitex::bench;
  namespace fs = std::filesystem;

  const std::vector<uint64_t> lags =
      SmokeMode() ? std::vector<uint64_t>{4, 16}
                  : std::vector<uint64_t>{16, 64, 256};
  constexpr double kHeartbeatTimeoutMs = 150.0;
  // Per-process: ctest runs this binary's smoke test and build_sanity_test
  // (which runs it again) concurrently.
  const std::string dir =
      (fs::temp_directory_path() /
       ("pitex_ext_failover." + std::to_string(getpid())))
          .string();

  const auto make_batch = [](const SocialNetwork& network, uint64_t i) {
    std::vector<EdgeInfluenceUpdate> batch(1);
    batch[0].edge = static_cast<EdgeId>((i * 97) % network.num_edges());
    batch[0].entries = {
        {static_cast<TopicId>(i % network.topics.num_topics()),
         0.2 + 0.1 * static_cast<double>(i % 5)}};
    return batch;
  };

  std::printf("=== Extension: replication catch-up and time-to-promote ===\n");
  std::printf("(follower connects L batches behind; heartbeat timeout "
              "%.0f ms)\n\n", kHeartbeatTimeoutMs);

  for (const auto& d : MakeBenchDatasets()) {
    for (const uint64_t lag : lags) {
      fs::remove_all(dir);
      InProcessTermAuthority authority(1);
      ServeOptions primary_options;
      primary_options.engine = BenchOptions(Method::kIndexEst);
      primary_options.num_threads = 2;
      primary_options.enable_updates = true;
      primary_options.durability_dir = dir + "/primary";
      primary_options.checkpoint_every = 0;  // backlog lives in the WAL
      primary_options.term_authority = &authority;
      primary_options.term = 1;
      PitexService primary(&d.network, primary_options);
      primary.Start();
      // The primary races ahead while the follower does not exist yet:
      // this is the lag the failover target must erase.
      for (uint64_t i = 0; i < lag; ++i) {
        (void)primary.ApplyUpdates(make_batch(d.network, i));
      }

      auto [primary_end, follower_end] = MakeInProcessTransportPair();
      WalShipperOptions ship;
      ship.wal_dir = primary_options.durability_dir;
      WalShipper shipper(&primary, primary_end.get(), ship);
      FollowerOptions follower_options;
      follower_options.serve = primary_options;
      follower_options.serve.durability_dir = dir + "/follower";
      follower_options.serve.term_authority = nullptr;
      follower_options.heartbeat_timeout_ms = kHeartbeatTimeoutMs;
      follower_options.authority = &authority;
      FollowerService follower(&d.network, follower_end.get(),
                               follower_options);
      shipper.Start();
      Timer catch_up_timer;
      std::string error;
      if (!follower.Start(&error)) {
        std::printf("follower bootstrap failed: %s\n", error.c_str());
        return 1;
      }
      const uint64_t target = primary.durable_lsn();
      while (follower.applied_lsn() < target) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const double catch_up_seconds = catch_up_timer.Seconds();

      // The caught-up follower loses its primary: silence, timeout,
      // election. Promotion should not care how big the backlog was.
      shipper.Stop();
      Timer promote_timer;
      while (!follower.promoted()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const double promote_seconds = promote_timer.Seconds();
      follower.Stop();
      std::printf("%-10s lag=%-4llu catch-up %8.2f ms (%6.2f ms/batch), "
                  "time-to-promote %7.2f ms (timeout %.0f ms)\n",
                  d.name.c_str(), static_cast<unsigned long long>(lag),
                  catch_up_seconds * 1e3,
                  catch_up_seconds * 1e3 / static_cast<double>(lag),
                  promote_seconds * 1e3, kHeartbeatTimeoutMs);
    }
    std::printf("\n");
  }
  fs::remove_all(dir);
  std::printf("shape check: catch-up grows with the backlog (replay-bound); "
              "time-to-promote\nstays pinned to the heartbeat timeout because "
              "the follower replays continuously\nand needs no catch-up pass "
              "at election time.\n");
  return 0;
}
