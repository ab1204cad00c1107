// Gateway soak: the serving-path headline benchmark. 64 concurrent
// loopback clients (one connection + one stream each, bio and feature-
// pipeline tenants alternating) push fixed biosignal streams into a
// gateway over a 16-device mixed-architecture trace-cache fleet, then the
// identical workload is submitted directly through stream::StreamServer on
// an identical fleet. Gates (exit status):
//   * window outputs bit-identical between gateway and direct runs, per
//     stream, in per-stream window order;
//   * per-stream WINDOW_RESULT indices strictly ordered 0..n-1;
//   * every window delivered, nothing dropped or failed.
// Reported: client-observed end-to-end window latency percentiles (last
// sample pushed -> result callback, wall clock) and windows/s, appended to
// BENCH_runtime.json for the nightly perf-trajectory artifact.
//
// Flight recorder: set VWR2A_TRACE=<path.vwr2trc> to record the gateway
// run with obs tracing enabled and save the capture there (convert with
// `vwr2a_trace convert`). Tracing is switched off again before the direct
// run, so the bit-identical gate doubles as the observer-effect gate: the
// traced gateway run must produce the same outputs as the untraced direct
// run.
//
// Black box: set VWR2A_JOURNAL=<path.vwr2jrn> to record the gateway run's
// full inbound traffic (with v6 spans enabled -- the heavier recording
// posture) as a replayable journal; `vwr2a_replay verify <path>` then
// re-drives the whole 64-client soak against a fresh server and gates
// per-stream output identity against the journal trailer.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/codec.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "obs/capture.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "stream/server.hpp"

int main() {
  using namespace vwr2a;
  using Clock = std::chrono::steady_clock;

  constexpr unsigned kClients = 64;
  constexpr unsigned kWindowsPerClient = 6;
  constexpr unsigned kChunk = 256;  // push granularity (samples)

  // Fixed per-tenant streams (even: whole-app bio; odd: feature pipeline).
  std::vector<std::vector<std::int32_t>> streams;
  for (unsigned i = 0; i < kClients; ++i) {
    dsp::RespirationParams p;
    p.breath_hz = 0.12 + 0.04 * (i % 12);
    Rng rng(8000 + i);
    streams.push_back(dsp::respiration_q16_15(
        kWindowsPerClient * app::kWindow, p, rng));
  }

  auto fleet_cfg = [] {
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
    return scfg;
  };

  bench::header("Gateway soak: 64 loopback clients, 16-device mixed fleet");

  const char* trace_path = std::getenv("VWR2A_TRACE");
  if (trace_path != nullptr) obs::set_tracing(true);
  const char* journal_path = std::getenv("VWR2A_JOURNAL");
  if (journal_path != nullptr) obs::set_spans(true);

  // --- gateway run ------------------------------------------------------------
  std::vector<std::uint64_t> gw_hash(kClients, codec::kFnvBasis);
  std::vector<std::uint64_t> gw_windows(kClients, 0);
  std::atomic<bool> ordered{true};
  std::vector<double> latencies_ms;  // merged after the threads join
  std::vector<std::vector<double>> per_client_lat(kClients);
  double gw_wall_s = 0.0;
  double gw_windows_per_sim_s = 0.0;
  std::atomic<std::uint64_t> gw_failed{0}, gw_dropped{0};
  {
    gateway::Server::Config cfg;
    cfg.stream = fleet_cfg();
    cfg.stream.completion_threads = 4;
    if (journal_path != nullptr) cfg.journal_path = journal_path;
    gateway::Server server(cfg);

    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (unsigned i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        gateway::Client client(server.connect_loopback());
        // Wall timestamps at which each window's final sample was pushed
        // (hop == window: window w completes at sample (w+1) * 512).
        std::vector<Clock::time_point> pushed(kWindowsPerClient);
        gateway::Client::StreamOpts opts;
        opts.tenant = i;
        if (i % 2 == 1) opts.kind = 1;  // pipeline
        const std::uint32_t sid = client.open(
            opts, [&, i](const gateway::WindowResult& r) {
              const auto now = Clock::now();
              if (r.index != gw_windows[i]) ordered = false;
              ++gw_windows[i];
              for (std::int32_t w : r.output) {
                gw_hash[i] = codec::fnv1a_word(
                    gw_hash[i], static_cast<std::uint32_t>(w));
              }
              if (r.index < pushed.size()) {
                per_client_lat[i].push_back(
                    std::chrono::duration<double, std::milli>(
                        now - pushed[r.index])
                        .count());
              }
            });
        std::size_t sent = 0;
        while (sent < streams[i].size()) {
          const std::size_t take =
              std::min<std::size_t>(kChunk, streams[i].size() - sent);
          // Stamp every window boundary this chunk will cross BEFORE the
          // push: the result callback (client reader thread) may fire the
          // moment the bytes are queued, and the transport's internal
          // locks give the stamp a happens-before edge to that callback.
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
        gw_failed += co.windows_failed;
        gw_dropped += co.dropped_samples;
      });
    }
    for (auto& t : threads) t.join();
    gw_wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    const stream::ServerStats st = server.streams().stats();
    gw_windows_per_sim_s = st.windows_per_sim_second();
    server.stop();
  }
  if (journal_path != nullptr) {
    // Spans off before the direct run (symmetry with tracing below): the
    // bit-identical gate must compare a spans-on gateway run against a
    // spans-off direct run -- the observer-effect check for the v6 path.
    obs::set_spans(false);
    std::printf("  journal: recorded to %s (replay with `vwr2a_replay "
                "verify`)\n", journal_path);
  }
  if (trace_path != nullptr) {
    // Off before the direct run: its (differently-numbered) sessions would
    // otherwise emit colliding window ids into the same rings.
    obs::set_tracing(false);
    const obs::Tracer::Snapshot snap = obs::Tracer::get().snapshot();
    std::string why;
    if (!obs::save_capture(snap, trace_path, &why)) {
      std::fprintf(stderr, "trace capture failed: %s\n", why.c_str());
      return 1;
    }
    const obs::Capture cap = obs::to_capture(snap);
    const auto chains = obs::analyze_windows(cap);
    std::size_t complete_chains = 0;
    for (const auto& c : chains) {
      if (c.complete() && c.distinct_tids >= 3) ++complete_chains;
    }
    std::printf("  trace: %zu events -> %s (%zu/%zu windows chained, "
                "%llu dropped)\n",
                cap.events.size(), trace_path, complete_chains, chains.size(),
                static_cast<unsigned long long>(cap.dropped));
  }
  for (auto& v : per_client_lat) {
    latencies_ms.insert(latencies_ms.end(), v.begin(), v.end());
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  auto pct = [&latencies_ms](double p) {
    if (latencies_ms.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        p * static_cast<double>(latencies_ms.size() - 1));
    return latencies_ms[idx];
  };

  // --- direct run (same fleet, no wire) ---------------------------------------
  std::vector<std::uint64_t> direct_hash(kClients, codec::kFnvBasis);
  std::vector<std::uint64_t> direct_windows(kClients, 0);
  double direct_wall_s = 0.0;
  {
    stream::StreamServer server(fleet_cfg());
    const auto t0 = Clock::now();
    std::vector<stream::Session*> sessions;
    for (unsigned i = 0; i < kClients; ++i) {
      stream::SessionConfig scfg;
      if (i % 2 == 1) scfg.kind = stream::SessionKind::kPipeline;
      sessions.push_back(&server.open_session(
          scfg, [&direct_hash, &direct_windows, i](
                    const stream::WindowResult& r) {
            ++direct_windows[i];
            for (std::int32_t w : r.job.output) {
              direct_hash[i] = codec::fnv1a_word(
                  direct_hash[i], static_cast<std::uint32_t>(w));
            }
          }));
    }
    for (std::size_t off = 0;; off += kChunk) {
      bool any = false;
      for (unsigned i = 0; i < kClients; ++i) {
        if (off >= streams[i].size()) continue;
        const std::size_t take =
            std::min<std::size_t>(kChunk, streams[i].size() - off);
        sessions[i]->push(
            std::span<const std::int32_t>(streams[i]).subspan(off, take));
        any = true;
      }
      if (!any) break;
    }
    server.finish();
    direct_wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  }

  // --- report & gates ---------------------------------------------------------
  const std::uint64_t total_windows =
      std::uint64_t{kClients} * kWindowsPerClient;
  std::uint64_t gw_total = 0, direct_total = 0;
  for (unsigned i = 0; i < kClients; ++i) {
    gw_total += gw_windows[i];
    direct_total += direct_windows[i];
  }
  const bool identical = gw_hash == direct_hash;
  const bool complete = gw_total == total_windows &&
                        direct_total == total_windows && gw_failed == 0 &&
                        gw_dropped == 0;

  std::printf("  %-22s | %10s %12s %10s\n", "path", "windows", "wall s",
              "win/s");
  std::printf("  %-22s | %10llu %12.2f %10.0f\n", "gateway (64 clients)",
              static_cast<unsigned long long>(gw_total), gw_wall_s,
              gw_wall_s > 0 ? static_cast<double>(gw_total) / gw_wall_s : 0.0);
  std::printf("  %-22s | %10llu %12.2f %10.0f\n", "direct StreamServer",
              static_cast<unsigned long long>(direct_total), direct_wall_s,
              direct_wall_s > 0
                  ? static_cast<double>(direct_total) / direct_wall_s
                  : 0.0);
  std::printf("\n  e2e window latency (wall): p50 %.1f ms, p95 %.1f ms, "
              "p99 %.1f ms\n",
              pct(0.50), pct(0.95), pct(0.99));
  std::printf("  outputs: %s; delivery: %s; ordering: %s\n",
              identical ? "bit-identical to direct" : "MISMATCH",
              complete ? "complete, no drops/failures" : "INCOMPLETE",
              ordered.load() ? "per-stream ordered" : "OUT OF ORDER");

  bench::JsonRecord("gateway_soak")
      .field("config", std::string("loopback_64c_16d_trace"))
      .field("clients", std::uint64_t{kClients})
      .field("windows", gw_total)
      .field("wall_seconds", gw_wall_s)
      .field("windows_per_wall_second",
             gw_wall_s > 0 ? static_cast<double>(gw_total) / gw_wall_s : 0.0)
      .field("windows_per_sim_second", gw_windows_per_sim_s)
      .field("latency_p50_ms", pct(0.50))
      .field("latency_p95_ms", pct(0.95))
      .field("latency_p99_ms", pct(0.99))
      .field("bit_identical", identical)
      .write();
  bench::JsonRecord("gateway_soak")
      .field("config", std::string("direct_16d_trace"))
      .field("windows", direct_total)
      .field("wall_seconds", direct_wall_s)
      .field("windows_per_wall_second",
             direct_wall_s > 0
                 ? static_cast<double>(direct_total) / direct_wall_s
                 : 0.0)
      .write();

  return identical && complete && ordered.load() ? 0 : 1;
}
