#pragma once
// Flight recorder: per-thread ring-buffered span events following a window
// across threads. Each thread owns a ring of a fixed event capacity
// (drop-oldest when full, drops counted exactly) that stores events as
// compact varint records in recycled chunks; the rings of exited threads
// fold into one shared retired ring. Events carry both host-monotonic
// nanoseconds and, for device spans, simulated-cycle begin/duration, plus a
// propagated window id (obs::window_id) that lets the offline tools chain
// push -> slice -> place -> queue -> run -> complete -> deliver even though
// the stages run on different threads. Recording is gated on
// obs::tracing_enabled(); with tracing off a Span is inert after one
// relaxed load. See docs/observability.md for the span taxonomy.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/obs.hpp"

namespace vwr2a::obs {

/// One recorded event. `name` must point at static-storage strings (string
/// literals at the instrumentation sites): rings store the pointer, the
/// capture writer builds a string table.
struct TraceEvent {
  const char* name = nullptr;
  std::uint64_t ts_ns = 0;      ///< host-monotonic begin (obs::now_ns)
  std::uint64_t dur_ns = 0;     ///< 0 for instants
  std::uint64_t window = 0;     ///< obs::window_id(...), 0 = not window-bound
  std::uint64_t sim_begin = 0;  ///< device-local simulated cycle at begin
  std::uint64_t sim_dur = 0;    ///< simulated cycles covered by the span
  std::uint64_t a1 = 0;         ///< per-name args, see docs/observability.md
  std::uint64_t a2 = 0;
  std::uint64_t a3 = 0;
  std::uint32_t tid = 0;        ///< obs::thread_slot() of the emitting thread
  std::uint8_t kind = 0;        ///< 0 = complete span, 1 = instant
};

/// Stable id for window `index` of session `session`: chains one window's
/// spans across producer, worker and completer threads. Unique while a
/// capture covers a single StreamServer (session ids are per-server).
constexpr std::uint64_t window_id(std::uint64_t session, std::uint64_t index) {
  return ((session + 1) << 24) | (index & 0xffffffu);
}
constexpr std::uint64_t window_session(std::uint64_t id) {
  return (id >> 24) - 1;
}
constexpr std::uint64_t window_index(std::uint64_t id) {
  return id & 0xffffffu;
}

/// Process-wide tracer: owns one ring per live thread that emitted, plus
/// the retired ring that an exiting thread's live events fold into (same
/// event capacity, drop-oldest, each event keeps its tid), so memory is
/// bounded by the live threads + 1. emit() locks only the emitting
/// thread's own ring mutex (uncontended except while a snapshot drains it).
/// snapshot()/save() may run concurrently with emitters.
class Tracer {
 public:
  static Tracer& get();

  /// Record into this thread's ring (creates it on first use). The caller
  /// is expected to have checked tracing_enabled(); emit() re-checks and
  /// drops when disabled. tid is always the emitting thread's slot; ts_ns
  /// is stamped here if left 0.
  void emit(TraceEvent e);

  /// Capacity (events) for rings created after this call and for the
  /// retired ring from its next fold on. Existing thread rings keep their
  /// size. Default 32768 events/thread. A ring holds 4 KiB chunks only for
  /// its live records (~14 B per event on gateway traffic, ~450 KB once
  /// full).
  void set_ring_capacity(std::size_t cap);

  struct Snapshot {
    /// Per-ring oldest-to-newest order: the retired ring first, then the
    /// live threads' rings in creation order.
    std::vector<TraceEvent> events;
    std::uint64_t dropped = 0;       ///< total drop-oldest evictions, exact
    std::uint32_t threads = 0;       ///< threads that recorded >= 1 event
  };
  Snapshot snapshot() const;

  /// Clear every ring's contents and drop counters and free their chunks
  /// (rings stay attached to their threads). Use between runs sharing a
  /// process.
  void reset();

  /// Bytes of record chunks held by all rings, the retired one included.
  std::size_t ring_bytes() const;

  /// Write snapshot() as a binary .vwr2trc capture (see obs/capture.hpp).
  /// Returns false and fills *why on I/O failure.
  bool save(const std::string& path, std::string* why = nullptr) const;

 private:
  Tracer() = default;
  struct Ring;
  Ring& ring();
  struct Impl;
  Impl& impl() const;
};

/// RAII complete-span: stamps begin at construction, emits at destruction
/// with the measured host duration. Inert (one relaxed load) when tracing
/// is off at construction.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t window = 0,
                std::uint64_t a1 = 0, std::uint64_t a2 = 0,
                std::uint64_t a3 = 0) {
    if (tracing_enabled()) {
      active_ = true;
      e_.name = name;
      e_.window = window;
      e_.a1 = a1;
      e_.a2 = a2;
      e_.a3 = a3;
      e_.ts_ns = now_ns();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (active_) {
      e_.dur_ns = now_ns() - e_.ts_ns;
      Tracer::get().emit(e_);
    }
  }

  bool active() const { return active_; }
  /// Attach simulated-cycle begin/duration (device spans).
  void set_sim(std::uint64_t begin, std::uint64_t dur) {
    e_.sim_begin = begin;
    e_.sim_dur = dur;
  }
  void set_args(std::uint64_t a1, std::uint64_t a2, std::uint64_t a3 = 0) {
    e_.a1 = a1;
    e_.a2 = a2;
    e_.a3 = a3;
  }

 private:
  TraceEvent e_{};
  bool active_ = false;
};

/// Zero-duration event at now.
inline void instant(const char* name, std::uint64_t window = 0,
                    std::uint64_t a1 = 0, std::uint64_t a2 = 0,
                    std::uint64_t a3 = 0) {
  if (!tracing_enabled()) return;
  TraceEvent e;
  e.name = name;
  e.window = window;
  e.a1 = a1;
  e.a2 = a2;
  e.a3 = a3;
  e.kind = 1;
  Tracer::get().emit(e);
}

/// Complete span whose begin predates the call (e.g. queue wait stamped at
/// enqueue, emitted by the dequeuing worker).
inline void complete(const char* name, std::uint64_t window,
                     std::uint64_t ts_ns, std::uint64_t dur_ns,
                     std::uint64_t a1 = 0, std::uint64_t a2 = 0,
                     std::uint64_t a3 = 0) {
  if (!tracing_enabled()) return;
  TraceEvent e;
  e.name = name;
  e.window = window;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.a1 = a1;
  e.a2 = a2;
  e.a3 = a3;
  Tracer::get().emit(e);
}

} // namespace vwr2a::obs
