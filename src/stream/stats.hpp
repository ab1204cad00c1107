#pragma once
// Telemetry of the streaming service layer: per-session counters plus the
// fleet aggregate. All figures are in *simulated* units (cycles of the
// device-local clocks), matching runtime::FleetStats semantics.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "runtime/pool.hpp"

namespace vwr2a::stream {

/// One session's counters (a point-in-time copy, see Session::stats()).
struct SessionStats {
  std::uint64_t id = 0;
  unsigned device = 0;  ///< device that ran the last delivered window (the
                        ///< soft-pin until a fault re-places the session)
  std::uint64_t windows_migrated = 0;  ///< deliveries from a device other
                                       ///< than the previous window's

  std::uint64_t samples_in = 0;        ///< samples accepted into the ring
  std::uint64_t dropped_samples = 0;   ///< samples rejected by try_push
  std::uint64_t dropped_pushes = 0;    ///< try_push calls that dropped
  std::uint64_t windows_submitted = 0; ///< windows turned into jobs
  std::uint64_t windows_delivered = 0; ///< results handed to the sink
  std::uint64_t windows_failed = 0;    ///< jobs that raised instead

  /// Per-window service latency on the device (job cycle deltas).
  Cycle latency_cycles_total = 0;
  Cycle latency_cycles_max = 0;
  double mean_latency_cycles() const {
    return windows_delivered > 0
               ? static_cast<double>(latency_cycles_total) /
                     static_cast<double>(windows_delivered)
               : 0.0;
  }
};

/// The server-wide snapshot: every session plus the fleet underneath.
struct ServerStats {
  std::vector<SessionStats> sessions;
  runtime::FleetStats fleet;

  std::uint64_t windows_delivered = 0;  ///< over all sessions
  std::uint64_t windows_failed = 0;     ///< over all sessions
  std::uint64_t dropped_samples = 0;    ///< over all sessions

  /// Folds one session into the aggregate: the single place the
  /// per-session -> server-totals mapping lives (StreamServer::stats()).
  void fold(const SessionStats& s) {
    sessions.push_back(s);
    windows_delivered += s.windows_delivered;
    windows_failed += s.windows_failed;
    dropped_samples += s.dropped_samples;
  }

  /// Fleet throughput in delivered windows per simulated second.
  double windows_per_sim_second() const {
    const double s = fleet.sim_seconds();
    return s > 0 ? static_cast<double>(windows_delivered) / s : 0.0;
  }

  /// Mean fraction of the fleet makespan each device spent busy (1.0 =
  /// perfectly balanced, lower = devices idled waiting for the laggard).
  double fleet_occupancy() const {
    if (fleet.fleet_makespan == 0 || fleet.device_cycles.empty()) return 0.0;
    return static_cast<double>(fleet.total_device_cycles) /
           (static_cast<double>(fleet.fleet_makespan) *
            static_cast<double>(fleet.device_cycles.size()));
  }
};

} // namespace vwr2a::stream
