// fleet_top: a `top`-style terminal dashboard for a live fleet. One
// dashboard connection polls the gateway for a STATS frame every 200 ms
// while 8 producer threads stream biosignals through their own
// connections. Each frame repaints:
//   * every named STATS row the frame carries (the fleet and gateway
//     counter tables: jobs, makespan, energy, faults, the replay tier
//     mix, frames, bytes, quota rejections), printed generically;
//   * per-device occupancy bars (device-local cycles relative to the
//     busiest device), job counts and the health bitmap;
//   * per-session window rates computed from consecutive frames, plus the
//     mean end-to-end latency from the v6 WINDOW_RESULT span breakdown
//     (queue + run + deliver host ns, accumulated by the producers'
//     result callbacks) -- per-stage truth, not a frame-delta guess.
// The demo renders a fixed number of frames and exits; point the same
// code at listen_tcp/connect_tcp for a real remote dashboard.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dsp/signal.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "obs/obs.hpp"

namespace {

/// A STATS row's value as text: the fleet table's f64 rows as decimals.
std::string format_row(const vwr2a::gateway::StatRow& r) {
  for (const auto& f : vwr2a::runtime::kFleetFields) {
    if (f.name == r.name && f.kind == vwr2a::obs::StatKind::kF64) {
      return std::to_string(std::bit_cast<double>(r.value));
    }
  }
  return std::to_string(r.value);
}

} // namespace

int main() {
  using namespace vwr2a;

  constexpr unsigned kProducers = 8;
  constexpr unsigned kWindowsPerProducer = 12;
  constexpr unsigned kFrames = 12;        // frames to render before exiting
  constexpr std::uint32_t kCadenceMs = 200;

  gateway::Server::Config cfg;
  cfg.stream.pool.devices = 8;
  cfg.stream.completion_threads = 2;
  for (unsigned d = 0; d < 8; ++d) {
    cfg.stream.pool.device_arch.push_back(
        soc::ArchConfig{.vwr_count = d % 2 == 0 ? 3u : 2u,
                        .exec_mode = cgra::ExecMode::kTraceCache});
  }
  gateway::Server server(cfg);

  // v6 span breakdown: the server stamps queue/run/deliver into every
  // WINDOW_RESULT, which is where the e2e column comes from.
  obs::set_spans(true);

  // Per-session e2e accumulation, fed by the producers' result callbacks
  // (keyed by the *server-side* session id so the dashboard can join it
  // against the STATS session loads).
  struct E2eAcc {
    std::mutex mu;
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        by_session;  ///< session id -> (summed e2e ns, windows)
  };
  E2eAcc e2e;

  // --- producers: 8 tenants streaming in 256-sample chunks --------------------
  std::atomic<bool> stop_producing{false};
  std::vector<std::thread> producers;
  for (unsigned i = 0; i < kProducers; ++i) {
    producers.emplace_back([&server, &stop_producing, &e2e, i] {
      gateway::Client client(server.connect_loopback());
      gateway::Client::StreamOpts opts;
      opts.tenant = i;
      if (i % 2 == 1) opts.kind = 1;  // alternate feature-pipeline tenants
      const std::uint32_t sid = client.open(
          opts, [&client, &e2e](const gateway::WindowResult& wr) {
            const std::uint64_t session = client.session_of(wr.stream);
            std::lock_guard<std::mutex> lock(e2e.mu);
            auto& [ns, windows] = e2e.by_session[session];
            ns += wr.queue_ns + wr.run_ns + wr.deliver_ns;
            ++windows;
          });
      dsp::RespirationParams params;
      params.breath_hz = 0.14 + 0.05 * i;
      Rng rng(4200 + i);
      const auto signal = dsp::respiration_q16_15(
          kWindowsPerProducer * app::kWindow, params, rng);
      for (std::size_t off = 0;
           off < signal.size() && !stop_producing.load(); off += 256) {
        const std::size_t take =
            std::min<std::size_t>(256, signal.size() - off);
        client.push(sid, std::span<const std::int32_t>(signal)
                             .subspan(off, take));
        // Pace the stream so the dashboard sees it evolve across pushes.
        std::this_thread::sleep_for(std::chrono::milliseconds(40));
      }
      client.flush(sid);
      client.close_stream(sid);
    });
  }

  // --- dashboard: poll and render STATS every kCadenceMs --------------------
  gateway::Client dash(server.connect_loopback());
  gateway::Stats prev;
  std::chrono::steady_clock::time_point prev_at;
  for (unsigned frame = 0; frame < kFrames; ++frame) {
    if (frame > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(kCadenceMs));
    }
    const gateway::Stats st = dash.stats();
    const auto now = std::chrono::steady_clock::now();
    const double dt =
        frame > 0 ? std::chrono::duration<double>(now - prev_at).count()
                   : 0.0;

    std::printf("\x1b[2J\x1b[H");  // clear + home (harmless when piped)
    std::printf("fleet_top -- frame %u, every %u ms, %zu devices\n", frame,
                kCadenceMs, st.devices.size());
    // Every STATS row as it arrives, two per line: a counter added to the
    // fleet or gateway table shows up here without touching this file.
    for (std::size_t i = 0; i < st.rows.size(); ++i) {
      const gateway::StatRow& r = st.rows[i];
      std::printf("  %-32s %14s%s", r.name.c_str(), format_row(r).c_str(),
                  i % 2 == 1 || i + 1 == st.rows.size() ? "\n" : "");
    }
    std::printf("\n");

    std::uint64_t busiest = 1;
    for (const auto& d : st.devices) busiest = std::max(busiest, d.cycles);
    for (std::size_t d = 0; d < st.devices.size(); ++d) {
      const auto& dev = st.devices[d];
      const int width =
          static_cast<int>(32 * dev.cycles / busiest);
      std::printf("  dev %2zu %s [%-32.*s] %10llu cy %6llu jobs\n", d,
                  dev.dead != 0 ? "DEAD" : "ok  ", width,
                  "################################",
                  static_cast<unsigned long long>(dev.cycles),
                  static_cast<unsigned long long>(dev.jobs));
    }

    std::printf("\n  %-8s %-6s %10s %10s %9s %9s %8s\n", "session", "dev",
                "submitted", "delivered", "win/s", "e2e ms", "dropped");
    for (const auto& s : st.sessions) {
      // Rate from consecutive frames: delivered delta over the wall gap.
      double rate = 0.0;
      if (dt > 0) {
        for (const auto& q : prev.sessions) {
          if (q.id != s.id) continue;
          rate = static_cast<double>(s.windows_delivered -
                                     q.windows_delivered) / dt;
          break;
        }
      }
      // Mean e2e (queue + run + deliver) from the v6 span breakdown.
      double e2e_ms = 0.0;
      {
        std::lock_guard<std::mutex> e2e_lock(e2e.mu);
        const auto it = e2e.by_session.find(s.id);
        if (it != e2e.by_session.end() && it->second.second > 0) {
          e2e_ms = static_cast<double>(it->second.first) /
                   static_cast<double>(it->second.second) / 1e6;
        }
      }
      std::printf("  %-8llu %-6u %10llu %10llu %9.1f %9.2f %8llu\n",
                  static_cast<unsigned long long>(s.id), s.device,
                  static_cast<unsigned long long>(s.windows_submitted),
                  static_cast<unsigned long long>(s.windows_delivered),
                  rate, e2e_ms,
                  static_cast<unsigned long long>(s.dropped_samples));
    }
    std::fflush(stdout);

    prev = st;
    prev_at = now;
  }
  stop_producing = true;
  for (auto& t : producers) t.join();

  const gateway::Telemetry final_stats =
      obs::view<gateway::kTelemetryFields>(dash.stats().rows);
  std::printf("\nrendered %u frames; final: %llu windows delivered, "
              "%llu sessions served\n",
              kFrames,
              static_cast<unsigned long long>(final_stats.results_sent),
              static_cast<unsigned long long>(final_stats.sessions));
  server.stop();
  return 0;
}
