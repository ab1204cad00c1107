// Gateway chaos soak: the fault-tolerance headline benchmark. 32 loopback
// clients push fixed biosignal streams into a gateway over a 16-device
// mixed-architecture trace-cache fleet while a scripted FaultPlan fail-stops
// two devices mid-soak and revives one of them (kills land at job-count
// boundaries; queued work is re-placed along failover chains, resident
// per-device state travels by checkpoint). The identical workload then runs
// on an identical fleet with no faults. Gates (exit status):
//   * devices_failed == 2 and devices_revived == 1 actually happened;
//   * per-stream WINDOW_RESULT indices strictly ordered 0..n-1 -- one miss
//     is a lost, duplicated, or misordered window;
//   * every window delivered, nothing dropped or failed;
//   * window outputs bit-identical to the fault-free run, per stream --
//     re-placed windows included (outputs are placement-independent).
// Reported: chaos-run throughput, the fleet's rescue counters, and the
// chaos run's client-observed end-to-end window latency percentiles (last
// sample pushed -> result callback), recorded through the obs metrics
// registry's log-bucketed histogram -- the same instrument the serving
// stack exports -- and appended to BENCH_runtime.json for the nightly
// perf-trajectory artifact.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/codec.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "stream/server.hpp"

int main() {
  using namespace vwr2a;
  using Clock = std::chrono::steady_clock;

  constexpr unsigned kClients = 32;
  constexpr unsigned kWindowsPerClient = 6;
  constexpr unsigned kChunk = 256;  // push granularity (samples)
  const unsigned kVictimA = 3;  // killed, later revived
  const unsigned kVictimB = 7;  // killed, stays dead

  // Fixed per-tenant streams (even: whole-app bio; odd: feature pipeline).
  std::vector<std::vector<std::int32_t>> streams;
  for (unsigned i = 0; i < kClients; ++i) {
    dsp::RespirationParams p;
    p.breath_hz = 0.12 + 0.04 * (i % 12);
    Rng rng(8600 + i);
    streams.push_back(dsp::respiration_q16_15(
        kWindowsPerClient * app::kWindow, p, rng));
  }

  auto fleet_cfg = [&](bool chaos) {
    stream::StreamServer::Config scfg;
    scfg.pool.devices = 16;
    scfg.pool.schedule = runtime::Schedule::kShortestLocalClock;
    const std::vector<soc::ArchConfig> mix = {
        soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache},
        soc::ArchConfig{.vwr_count = 2,
                        .exec_mode = cgra::ExecMode::kTraceCache},
        soc::ArchConfig{.vwr_count = 4,
                        .exec_mode = cgra::ExecMode::kTraceCache},
        soc::ArchConfig{.simd_width = 16,
                        .exec_mode = cgra::ExecMode::kTraceCache}};
    for (unsigned d = 0; d < 16; ++d) {
      scfg.pool.device_arch.push_back(mix[d % 4]);
    }
    if (chaos) {
      // Roughly a quarter of the soak in, device 3 dies; at the halfway
      // mark device 7 follows; device 3 comes back at ~5/8. Boundaries
      // are fleet job counts, so the kills always land mid-workload.
      const std::uint64_t total =
          std::uint64_t{kClients} * kWindowsPerClient;
      scfg.pool.faults.events = {
          runtime::FaultEvent{kVictimA, total / 4, (total * 5) / 8},
          runtime::FaultEvent{kVictimB, total / 2, 0}};
    }
    return scfg;
  };

  bench::header(
      "Gateway chaos soak: 32 clients, 16 devices, kill 2 / revive 1");

  auto run_gateway = [&](bool chaos, std::vector<std::uint64_t>& hash,
                         std::vector<std::uint64_t>& windows,
                         std::atomic<bool>& ordered,
                         std::atomic<std::uint64_t>& failed,
                         std::atomic<std::uint64_t>& dropped,
                         runtime::FleetStats& fleet,
                         obs::Histogram* latency_us) -> double {
    gateway::Server::Config cfg;
    cfg.stream = fleet_cfg(chaos);
    cfg.stream.completion_threads = 4;
    gateway::Server server(cfg);

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        gateway::Client client(server.connect_loopback());
        // Wall stamp of each window's final pushed sample (hop == window).
        std::vector<Clock::time_point> pushed(kWindowsPerClient);
        gateway::Client::StreamOpts opts;
        opts.tenant = i;
        if (i % 2 == 1) opts.kind = 1;  // pipeline
        const std::uint32_t sid = client.open(
            opts, [&, i](const gateway::WindowResult& r) {
              const auto now = Clock::now();
              if (r.index != windows[i]) ordered = false;
              ++windows[i];
              for (std::int32_t w : r.output) {
                hash[i] =
                    codec::fnv1a_word(hash[i], static_cast<std::uint32_t>(w));
              }
              if (latency_us != nullptr && r.index < pushed.size()) {
                latency_us->record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        now - pushed[r.index])
                        .count()));
              }
            });
        std::size_t sent = 0;
        while (sent < streams[i].size()) {
          const std::size_t take =
              std::min<std::size_t>(kChunk, streams[i].size() - sent);
          // Stamped BEFORE the push: the result callback (client reader
          // thread) may fire as soon as the bytes are queued, and the
          // transport's internal locks give the stamp a happens-before
          // edge to that callback.
          for (std::size_t w = sent / app::kWindow + 1;
               w <= (sent + take) / app::kWindow; ++w) {
            if (w - 1 < pushed.size()) pushed[w - 1] = Clock::now();
          }
          client.push(sid, std::span<const std::int32_t>(streams[i])
                               .subspan(sent, take));
          sent += take;
        }
        client.flush(sid);
        const gateway::CloseOk co = client.close_stream(sid);
        failed += co.windows_failed;
        dropped += co.dropped_samples;
      });
    }
    for (auto& t : threads) t.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    fleet = server.streams().pool().stats();
    server.stop();
    return wall_s;
  };

  // --- chaos run --------------------------------------------------------------
  // E2e latency under faults goes through the obs registry histogram (the
  // instrument the serving stack itself exports), so the percentiles here
  // and a live Prometheus dump can never disagree on bucketing.
  obs::set_metrics(true);
  obs::Histogram& lat_us =
      obs::Registry::get().histogram("bench.chaos_e2e_us");
  std::vector<std::uint64_t> chaos_hash(kClients, codec::kFnvBasis);
  std::vector<std::uint64_t> chaos_windows(kClients, 0);
  std::atomic<bool> chaos_ordered{true};
  std::atomic<std::uint64_t> chaos_failed{0}, chaos_dropped{0};
  runtime::FleetStats chaos_fleet;
  const double chaos_wall_s =
      run_gateway(true, chaos_hash, chaos_windows, chaos_ordered,
                  chaos_failed, chaos_dropped, chaos_fleet, &lat_us);

  // --- fault-free reference (identical fleet, identical workload) -------------
  std::vector<std::uint64_t> ref_hash(kClients, codec::kFnvBasis);
  std::vector<std::uint64_t> ref_windows(kClients, 0);
  std::atomic<bool> ref_ordered{true};
  std::atomic<std::uint64_t> ref_failed{0}, ref_dropped{0};
  runtime::FleetStats ref_fleet;
  const double ref_wall_s =
      run_gateway(false, ref_hash, ref_windows, ref_ordered, ref_failed,
                  ref_dropped, ref_fleet, nullptr);
  obs::set_metrics(false);

  const double lat_p50_ms = static_cast<double>(lat_us.quantile(0.50)) / 1e3;
  const double lat_p95_ms = static_cast<double>(lat_us.quantile(0.95)) / 1e3;
  const double lat_p99_ms = static_cast<double>(lat_us.quantile(0.99)) / 1e3;

  // --- report & gates ---------------------------------------------------------
  const std::uint64_t total_windows =
      std::uint64_t{kClients} * kWindowsPerClient;
  std::uint64_t chaos_total = 0, ref_total = 0;
  for (unsigned i = 0; i < kClients; ++i) {
    chaos_total += chaos_windows[i];
    ref_total += ref_windows[i];
  }
  const bool faults_fired =
      chaos_fleet.devices_failed == 2 && chaos_fleet.devices_revived == 1 &&
      chaos_fleet.devices_dead == 1;
  const bool identical = chaos_hash == ref_hash;
  const bool complete = chaos_total == total_windows &&
                        ref_total == total_windows && chaos_failed == 0 &&
                        chaos_dropped == 0 && ref_failed == 0 &&
                        ref_dropped == 0;
  const bool ordered = chaos_ordered.load() && ref_ordered.load();

  std::printf("  %-22s | %10s %12s %10s\n", "path", "windows", "wall s",
              "win/s");
  std::printf("  %-22s | %10llu %12.2f %10.0f\n", "chaos (2 kills)",
              static_cast<unsigned long long>(chaos_total), chaos_wall_s,
              chaos_wall_s > 0
                  ? static_cast<double>(chaos_total) / chaos_wall_s
                  : 0.0);
  std::printf("  %-22s | %10llu %12.2f %10.0f\n", "fault-free reference",
              static_cast<unsigned long long>(ref_total), ref_wall_s,
              ref_wall_s > 0 ? static_cast<double>(ref_total) / ref_wall_s
                             : 0.0);
  std::printf("\n  faults: %llu killed, %llu revived, %llu dead at end; "
              "%llu jobs rescued, %llu ckpt taken, %llu restored\n",
              static_cast<unsigned long long>(chaos_fleet.devices_failed),
              static_cast<unsigned long long>(chaos_fleet.devices_revived),
              static_cast<unsigned long long>(chaos_fleet.devices_dead),
              static_cast<unsigned long long>(chaos_fleet.jobs_rescued),
              static_cast<unsigned long long>(chaos_fleet.checkpoints_taken),
              static_cast<unsigned long long>(
                  chaos_fleet.checkpoints_restored));
  std::printf("\n  chaos e2e window latency (wall): p50 %.1f ms, "
              "p95 %.1f ms, p99 %.1f ms (%llu windows)\n",
              lat_p50_ms, lat_p95_ms, lat_p99_ms,
              static_cast<unsigned long long>(lat_us.count()));
  std::printf("  outputs: %s; delivery: %s; ordering: %s; plan: %s\n",
              identical ? "bit-identical to fault-free" : "MISMATCH",
              complete ? "complete, no drops/failures" : "INCOMPLETE",
              ordered ? "per-stream ordered" : "OUT OF ORDER",
              faults_fired ? "2 kills + 1 revive fired" : "FAULTS DID NOT FIRE");

  bench::JsonRecord("gateway_chaos")
      .field("config", std::string("loopback_32c_16d_kill2_revive1"))
      .field("clients", std::uint64_t{kClients})
      .field("windows", chaos_total)
      .field("wall_seconds", chaos_wall_s)
      .field("windows_per_wall_second",
             chaos_wall_s > 0
                 ? static_cast<double>(chaos_total) / chaos_wall_s
                 : 0.0)
      .field("devices_failed", chaos_fleet.devices_failed)
      .field("devices_revived", chaos_fleet.devices_revived)
      .field("jobs_rescued", chaos_fleet.jobs_rescued)
      .field("checkpoints_taken", chaos_fleet.checkpoints_taken)
      .field("checkpoints_restored", chaos_fleet.checkpoints_restored)
      .field("latency_p50_ms", lat_p50_ms)
      .field("latency_p95_ms", lat_p95_ms)
      .field("latency_p99_ms", lat_p99_ms)
      .field("bit_identical", identical)
      .write();

  return identical && complete && ordered && faults_fired ? 0 : 1;
}
