// Observability overhead gate: the flight recorder must be free when off
// and must never steer the simulation when on. A fixed streaming workload
// (8 gateway streams x 10 windows on a 4-device mixed trace-cache fleet,
// driven through gateway::Server over loopback so the full wire path --
// codec, journal tap, v6 span stamps -- is inside the measurement) runs in
// interleaved modes [off, on, off, on]. "on" enables everything at once:
// metrics, tracing, spans AND the black-box traffic journal.
//   * HARD gate -- observer effect: per-stream output hashes, fleet
//     makespan, total device cycles and total energy are exactly equal
//     across every mode. Metrics, tracing, spans and the journal read the
//     simulation; they never steer it.
//   * SOFT gate -- disabled-mode cost: the best disabled wall time is
//     within 2% of the best overall wall time (the disabled hot path is
//     one relaxed atomic load per site plus one null-pointer check at the
//     journal tap, which must be unmeasurable). Wall clocks are noisy in
//     CI, so a miss warns and is recorded but only a gross regression
//     (> 25%) fails the run.
// Both figures land in BENCH_runtime.json for the nightly trajectory.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/codec.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "stream/server.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

int main() {
  using namespace vwr2a;
  using Clock = std::chrono::steady_clock;

  constexpr unsigned kStreams = 8;
  constexpr unsigned kWindowsPerStream = 10;
  constexpr unsigned kChunk = 256;
  const char* kJournalPath = "obs_overhead.vwr2jrn";

  std::vector<std::vector<std::int32_t>> streams;
  for (unsigned i = 0; i < kStreams; ++i) {
    dsp::RespirationParams p;
    p.breath_hz = 0.16 + 0.05 * (i % 6);
    Rng rng(6100 + i);
    streams.push_back(dsp::respiration_q16_15(
        kWindowsPerStream * app::kWindow, p, rng));
  }

  struct Run {
    std::vector<std::uint64_t> output_hash;
    std::uint64_t makespan = 0;
    std::uint64_t total_cycles = 0;
    double total_pj = 0.0;
    double wall_ms = 0.0;
  };
  auto soak = [&streams, kJournalPath](bool journal) {
    gateway::Server::Config cfg;
    cfg.stream.pool.devices = 4;
    cfg.stream.pool.schedule = runtime::Schedule::kShortestLocalClock;
    const std::vector<soc::ArchConfig> mix = {
        soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache},
        soc::ArchConfig{.vwr_count = 2,
                        .exec_mode = cgra::ExecMode::kTraceCache},
        soc::ArchConfig{.vwr_count = 4,
                        .exec_mode = cgra::ExecMode::kTraceCache},
        soc::ArchConfig{.simd_width = 16,
                        .exec_mode = cgra::ExecMode::kTraceCache}};
    for (unsigned d = 0; d < 4; ++d) {
      cfg.stream.pool.device_arch.push_back(mix[d]);
    }
    if (journal) cfg.journal_path = kJournalPath;
    gateway::Server server(cfg);
    gateway::Client client(server.connect_loopback());

    std::vector<std::uint64_t> hashes(streams.size(), codec::kFnvBasis);
    std::vector<std::uint32_t> sids;
    for (unsigned i = 0; i < streams.size(); ++i) {
      gateway::Client::StreamOpts opts;
      opts.tenant = i;
      if (i % 2 == 1) opts.kind = 1;
      sids.push_back(client.open(
          opts, [&hashes, i](const gateway::WindowResult& wr) {
            std::uint64_t& h = hashes[i];
            for (std::int32_t w : wr.output) {
              h = codec::fnv1a_word(h, static_cast<std::uint32_t>(w));
            }
          }));
    }

    const auto t0 = Clock::now();
    for (std::size_t off = 0;; off += kChunk) {
      bool any = false;
      for (std::size_t i = 0; i < streams.size(); ++i) {
        if (off >= streams[i].size()) continue;
        const std::size_t take =
            std::min<std::size_t>(kChunk, streams[i].size() - off);
        client.push(sids[i], std::span<const std::int32_t>(streams[i])
                                 .subspan(off, take));
        any = true;
      }
      if (!any) break;
    }
    for (std::uint32_t sid : sids) client.flush(sid);
    Run r;
    r.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    // CLOSE_OK rides the same FIFO as WINDOW_RESULT, so once every close
    // returns, every result callback has fired and the hashes are final.
    for (std::uint32_t sid : sids) client.close_stream(sid);
    // The wire STATS frame is a live *peek* (batch-boundary freshness);
    // the identity gate needs the exact quiescent picture, so read the
    // fleet totals in-process, which blocks until the pool is idle.
    const stream::ServerStats st = server.streams().stats();
    r.makespan = st.fleet.fleet_makespan;
    r.total_cycles = st.fleet.total_device_cycles;
    r.total_pj = st.fleet.total_pj;
    r.output_hash = std::move(hashes);
    server.stop();
    return r;
  };

  bench::header(
      "Observability overhead: 8 streams x 10 windows via gateway, "
      "modes off/on/off/on (on = metrics+tracing+spans+journal)");
  std::printf("  %-10s | %13s %13s %11s | %8s\n", "mode", "makespan cyc",
              "total cyc", "energy uJ", "wall ms");

  // Interleaved so CPU frequency drift hits both modes equally. Session
  // ids restart per run, so identical runs would emit colliding window
  // ids; reset the recorder between runs to keep each capture clean.
  const bool enabled_mode[4] = {false, true, false, true};
  Run runs[4];
  for (int m = 0; m < 4; ++m) {
    obs::Registry::get().reset();
    obs::Tracer::get().reset();
    obs::set_metrics(enabled_mode[m]);
    obs::set_tracing(enabled_mode[m]);
    obs::set_spans(enabled_mode[m]);
    runs[m] = soak(enabled_mode[m]);
    std::printf("  %-10s | %13llu %13llu %11.1f | %8.2f\n",
                enabled_mode[m] ? "on" : "off",
                static_cast<unsigned long long>(runs[m].makespan),
                static_cast<unsigned long long>(runs[m].total_cycles),
                runs[m].total_pj * 1e-6, runs[m].wall_ms);
  }
  obs::set_metrics(false);
  obs::set_tracing(false);
  obs::set_spans(false);

  // HARD: bit/cycle/energy identity across every mode.
  bool identical = true;
  for (int m = 1; m < 4; ++m) {
    identical = identical && runs[m].output_hash == runs[0].output_hash &&
                runs[m].makespan == runs[0].makespan &&
                runs[m].total_cycles == runs[0].total_cycles &&
                runs[m].total_pj == runs[0].total_pj;
  }

  // SOFT: disabled must not be slower than the best run by > 2%.
  const double best_off = std::min(runs[0].wall_ms, runs[2].wall_ms);
  const double best_any = std::min(
      {runs[0].wall_ms, runs[1].wall_ms, runs[2].wall_ms, runs[3].wall_ms});
  const double overhead = best_any > 0 ? best_off / best_any - 1.0 : 0.0;
  const bool within_budget = overhead <= 0.02;

  std::printf("\n  observer effect: %s (outputs/makespan/cycles/energy)\n",
              identical ? "none -- all modes identical" : "DETECTED");
  std::printf("  disabled-mode overhead: %.2f%% vs best run (budget 2%%)%s\n",
              overhead * 100.0, within_budget ? "" : "  ** over budget **");

  bench::JsonRecord("obs_overhead")
      .field("config", std::string("gateway_8s_4d_trace_journal"))
      .field("modes", std::uint64_t{4})
      .field("identical_across_modes", identical)
      .field("disabled_overhead_pct", overhead * 100.0)
      .field("best_disabled_wall_ms", best_off)
      .field("best_enabled_wall_ms", std::min(runs[1].wall_ms, runs[3].wall_ms))
      .write();

  return identical && overhead <= 0.25 ? 0 : 1;
}
