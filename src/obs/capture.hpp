#pragma once
// Trace capture files (.vwr2trc): the on-disk form of a Tracer snapshot.
// A capture is a string table (event names) plus fixed-size little-endian
// event records; encode/decode, load/save, Chrome trace_event JSON export
// and window-chain analysis live here so the vwr2a_trace tool and the obs
// and journal tests all share one implementation. Format (all
// little-endian, through the field-list walker of common/codec.hpp):
//
//   magic   "VWR2ATRC"                     8 bytes
//   u32     format version (1)
//   u32     threads (rings that recorded)
//   u64     dropped (exact drop-oldest total)
//   u32     name count, then per name: u32 length + bytes
//   u64     event count, then per event (Capture::Ev::tie):
//           u32 name index, u32 tid, u8 kind,
//           u64 ts_ns, dur_ns, window, sim_begin, sim_dur, a1, a2, a3
//
// Nothing follows the last event. The encoding is canonical: bytes that
// decode re-encode to themselves.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

namespace vwr2a::obs {

struct Capture {
  struct Ev {
    std::uint32_t name = 0;  ///< index into names
    std::uint32_t tid = 0;
    std::uint8_t kind = 0;   ///< 0 complete, 1 instant
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t window = 0;
    std::uint64_t sim_begin = 0;
    std::uint64_t sim_dur = 0;
    std::uint64_t a1 = 0;
    std::uint64_t a2 = 0;
    std::uint64_t a3 = 0;

    static constexpr auto tie(auto& e) {
      return std::tie(e.name, e.tid, e.kind, e.ts_ns, e.dur_ns, e.window,
                      e.sim_begin, e.sim_dur, e.a1, e.a2, e.a3);
    }
  };
  std::vector<std::string> names;
  std::vector<Ev> events;
  std::uint64_t dropped = 0;
  std::uint32_t threads = 0;

  const std::string& name_of(const Ev& e) const { return names[e.name]; }
};

/// Intern a live snapshot into the string-table form (no I/O).
Capture to_capture(const Tracer::Snapshot& snap);

/// The .vwr2trc bytes of `cap` (format above).
std::vector<std::uint8_t> encode_capture(const Capture& cap);
/// Parses .vwr2trc bytes. False (and a reason, when `why` is non-null) on
/// any bad magic, version, truncation, lying count, out-of-range name
/// index or trailing byte; `out` is then untouched. Never throws on
/// malformed input.
bool decode_capture(std::span<const std::uint8_t> bytes, Capture* out,
                    std::string* why = nullptr);

/// encode_capture(to_capture(snap)), written to `path`.
bool save_capture(const Tracer::Snapshot& snap, const std::string& path,
                  std::string* why = nullptr);
/// Reads `path`, then decode_capture().
bool load_capture(const std::string& path, Capture* out,
                  std::string* why = nullptr);

/// Chrome trace_event JSON ("X" complete events, "i" instants, flow arrows
/// chaining each window id across threads): write_chrome_json_merged with
/// one process, "vwr2a", plus the capture's `dropped` and `threads` under
/// "otherData". Open in chrome://tracing or https://ui.perfetto.dev.
void write_chrome_json(const Capture& cap, std::ostream& os);

/// Per-window lifecycle reconstructed from the propagated window ids.
/// The synthetic client-side "remote.queue"/"remote.run"/"remote.deliver"
/// spans a gateway client reconstructs from a v6 WINDOW_RESULT breakdown
/// feed the same queue/run/deliver accumulators, so a pure client capture
/// analyzes with the identical per-stage arithmetic.
struct WindowChain {
  std::uint64_t window = 0;
  std::vector<std::size_t> events;  ///< indices into Capture::events, by ts
  bool has_push = false;     ///< a session.push/flush span encloses the slice
  bool has_slice = false;    ///< window.slice
  bool has_place = false;    ///< window.place
  bool has_queue = false;    ///< window.queue (or remote.queue)
  bool has_run = false;      ///< device.run (or remote.run)
  bool has_complete = false; ///< window.complete
  bool has_deliver = false;  ///< window.deliver (or remote.deliver)
  std::uint32_t distinct_tids = 0;
  std::uint64_t place_ns = 0;    ///< summed window.place host duration
  std::uint64_t queue_ns = 0;    ///< summed window.queue host duration
  std::uint64_t run_ns = 0;      ///< summed device.run host duration
  std::uint64_t deliver_ns = 0;  ///< summed window.deliver host duration
  std::uint64_t run_cycles = 0;  ///< summed device.run simulated cycles
  bool complete() const {
    return has_push && has_slice && has_place && has_queue && has_run &&
           has_complete && has_deliver;
  }
};

/// One chain per distinct non-zero window id, sorted by window id.
std::vector<WindowChain> analyze_windows(const Capture& cap);

/// Multi-process Chrome trace: each (label, capture) pair becomes one pid
/// (1, 2, ...) with process_name metadata, and flow arrows chain every
/// shared window id ACROSS the processes -- the client/server merge view
/// of one cross-wire window. Labels are free text ("client", "server").
void write_chrome_json_merged(
    const std::vector<std::pair<std::string, const Capture*>>& procs,
    std::ostream& os);

} // namespace vwr2a::obs
