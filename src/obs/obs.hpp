#pragma once
// Global observability gate. The whole obs layer (metrics registry,
// tracer) is always compiled in and off by default; every instrumentation
// site in the hot path is guarded by metrics_enabled()/tracing_enabled(),
// which cost exactly one relaxed atomic load when the layer is disabled.
// Observability only ever *reads* the simulation: no placement decision,
// job cost or output may depend on whether it is on (bit/cycle/energy
// identity with everything on vs everything off is asserted by
// tests/test_journal.cpp).

#include <atomic>
#include <chrono>
#include <cstdint>

namespace vwr2a::obs {

/// Feature bits of the single global flag word.
enum Feature : std::uint32_t {
  kMetrics = 1u << 0,  ///< counters/gauges/histograms record
  kTracing = 1u << 1,  ///< span events are written to the thread rings
  /// Cross-wire span propagation (protocol v6): the runtime stamps
  /// JobResult::Timing and the gateway ships the per-window breakdown in
  /// WINDOW_RESULT. Orthogonal to kTracing so a remote client can get the
  /// server-side breakdown without the server recording local rings.
  kSpans = 1u << 2,
};

namespace detail {
/// The only state a disabled hot path touches. constinit: no init guard.
inline constinit std::atomic<std::uint32_t> g_flags{0};
} // namespace detail

/// True while the metrics registry records. One relaxed load.
inline bool metrics_enabled() {
  return (detail::g_flags.load(std::memory_order_relaxed) & kMetrics) != 0;
}

/// True while the tracer records. One relaxed load.
inline bool tracing_enabled() {
  return (detail::g_flags.load(std::memory_order_relaxed) & kTracing) != 0;
}

/// True while wire-span propagation is on (v6 WINDOW_RESULT breakdown).
/// One relaxed load.
inline bool spans_enabled() {
  return (detail::g_flags.load(std::memory_order_relaxed) & kSpans) != 0;
}

inline void set_metrics(bool on) {
  if (on) {
    detail::g_flags.fetch_or(kMetrics, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~std::uint32_t{kMetrics},
                              std::memory_order_relaxed);
  }
}

inline void set_tracing(bool on) {
  if (on) {
    detail::g_flags.fetch_or(kTracing, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~std::uint32_t{kTracing},
                              std::memory_order_relaxed);
  }
}

inline void set_spans(bool on) {
  if (on) {
    detail::g_flags.fetch_or(kSpans, std::memory_order_relaxed);
  } else {
    detail::g_flags.fetch_and(~std::uint32_t{kSpans},
                              std::memory_order_relaxed);
  }
}

/// Small dense per-thread id (0, 1, 2, ... in thread-creation order):
/// shard selector for the metrics and the `tid` of trace events. Only
/// called on enabled paths, so the thread_local init guard is off the
/// disabled budget.
inline std::uint32_t thread_slot() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t slot =
      next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Host-monotonic nanoseconds (std::chrono::steady_clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace vwr2a::obs
