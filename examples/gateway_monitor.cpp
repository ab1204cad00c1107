// Gateway demo: a wire-protocol serving front-end over a 4-device fleet,
// with three remote patients connected through the in-process loopback
// transport (swap connect_loopback for gateway::connect_tcp against
// listen_tcp to go over real sockets -- same frames, same results). Each
// client opens one stream, pushes its biosignal in small chunks, flushes
// (the barrier guarantees all WINDOW_RESULTs arrived) and closes with the
// final accounting.

#include <cstdio>
#include <span>
#include <vector>

#include "dsp/signal.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"

int main() {
  using namespace vwr2a;

  gateway::Server::Config cfg;
  cfg.stream.pool.devices = 4;
  cfg.stream.pool.device_arch = {
      soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache},
      soc::ArchConfig{.vwr_count = 2, .exec_mode = cgra::ExecMode::kTraceCache},
      soc::ArchConfig{.vwr_count = 4, .exec_mode = cgra::ExecMode::kTraceCache},
      soc::ArchConfig{.simd_width = 16,
                      .exec_mode = cgra::ExecMode::kTraceCache}};
  gateway::Server server(cfg);

  constexpr unsigned kPatients = 3;
  constexpr unsigned kWindows = 4;
  std::printf("gateway: %u patients over loopback, 4-device fleet\n\n",
              kPatients);

  std::vector<std::unique_ptr<gateway::Client>> clients;
  std::vector<std::uint32_t> sids;
  for (unsigned p = 0; p < kPatients; ++p) {
    clients.push_back(
        std::make_unique<gateway::Client>(server.connect_loopback()));
    gateway::Client::StreamOpts opts;
    opts.tenant = p;
    if (p == 2) opts.kind = 1;  // patient 2 runs the feature pipeline
    const unsigned patient = p;
    const bool pipeline = opts.kind == 1;
    sids.push_back(clients.back()->open(
        opts, [patient, pipeline](const gateway::WindowResult& r) {
          if (r.output.size() < 2 || r.index != 0) return;
          if (pipeline) {
            std::printf("  patient %u window %llu on device %u: "
                        "energy %d, %zu spectrum words (%llu cycles)\n",
                        patient, static_cast<unsigned long long>(r.index),
                        r.device, r.output[0], r.output.size() - 1,
                        static_cast<unsigned long long>(r.cycles));
          } else {
            std::printf("  patient %u window %llu on device %u: "
                        "class %+d, %d extrema (%llu cycles)\n",
                        patient, static_cast<unsigned long long>(r.index),
                        r.device, r.output[0], r.output[1],
                        static_cast<unsigned long long>(r.cycles));
          }
        }));
  }

  for (unsigned p = 0; p < kPatients; ++p) {
    dsp::RespirationParams params;
    params.breath_hz = 0.18 + 0.07 * p;
    Rng rng(900 + p);
    const auto signal =
        dsp::respiration_q16_15(kWindows * app::kWindow, params, rng);
    for (std::size_t off = 0; off < signal.size(); off += 400) {
      const std::size_t take = std::min<std::size_t>(400, signal.size() - off);
      clients[p]->push(sids[p],
                       std::span<const std::int32_t>(signal).subspan(off, take));
    }
    const gateway::FlushOk fo = clients[p]->flush(sids[p]);
    std::printf("  patient %u flushed: %llu windows delivered\n", p,
                static_cast<unsigned long long>(fo.windows_delivered));
  }

  const runtime::FleetCounters stats =
      obs::view<runtime::kFleetFields>(clients[0]->stats().rows);
  std::printf("\nfleet: %llu devices, %llu jobs, makespan %llu cycles, "
              "%.1f uJ\n",
              static_cast<unsigned long long>(stats.devices),
              static_cast<unsigned long long>(stats.jobs_completed),
              static_cast<unsigned long long>(stats.fleet_makespan),
              stats.total_pj * 1e-6);

  for (unsigned p = 0; p < kPatients; ++p) {
    const gateway::CloseOk co = clients[p]->close_stream(sids[p]);
    std::printf("patient %u closed: %llu/%llu windows, mean latency %.0f "
                "cycles\n",
                p, static_cast<unsigned long long>(co.windows_delivered),
                static_cast<unsigned long long>(co.windows_submitted),
                co.windows_delivered > 0
                    ? static_cast<double>(co.latency_cycles_total) /
                          static_cast<double>(co.windows_delivered)
                    : 0.0);
  }
  server.stop();
  return 0;
}
