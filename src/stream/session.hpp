#pragma once
// One streaming tenant (a simulated patient feeding a biosignal): accepts
// arbitrary-length sample pushes, slices them into (possibly overlapping)
// windows, turns each window into a runtime job soft-pinned to the
// session's device, and delivers results in window order through a sink
// callback.
//
// Ordering. Every job of a session is pinned to one device, and a device
// runs its FIFO in submission order, so the session's futures complete in
// window order; they are reaped front-first, which makes sink delivery
// ordered by construction. Soft-pinning also keeps the device's resident
// MBioTracker state (band masks, tables) local, so consecutive windows hit
// the SPM-residency fast path.
//
// Delivery. One routine, deliver(), hands every window to the sink; only
// the thread that runs it depends on the owning server's configuration:
//   * producer-thread reaping (the default): push/flush/drain deliver the
//     oldest finished window on the producer's thread;
//   * completion lanes (StreamServer::Config::completion_threads > 0): the
//     session hands every submitted handle to a Completer lane, which
//     delivers it on a dedicated thread. A sink may then block
//     indefinitely without stalling this or any other session's ingest.
// Either way a window's index is its submission position (a failed window
// uses its index up too), and a failed window goes to the error sink when
// one is set and is counted in SessionStats::windows_failed; with no error
// sink, the first failure not yet reported is rethrown once from
// drain()/finish(), never from the middle of push().
//
// Backpressure. At most `max_inflight` windows of a session are queued or
// running at once, and the staging buffer bounds the buffered samples:
//   * push() blocks -- when a bound is hit it waits for the oldest window
//     to deliver before submitting more;
//   * try_push() never blocks -- samples that do not fit the staging buffer
//     are dropped whole and counted (SessionStats::dropped_*).
//
// Threading. A session is single-producer: push/try_push/flush/drain must
// come from one thread at a time (different sessions are independent; the
// pool underneath is thread-safe). stats() may be called from any thread.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "app/mbiotracker.hpp"
#include "runtime/pool.hpp"
#include "stream/stats.hpp"
#include "stream/windower.hpp"

namespace vwr2a::stream {

class Completer;

/// What a session runs per window.
enum class SessionKind : std::uint8_t {
  kBioTracker = 0,  ///< whole MBioTracker application window (default)
  kPipeline,        ///< FIR -> energy -> rFFT feature pipeline
};

/// Per-session configuration.
struct SessionConfig {
  unsigned window = app::kWindow;  ///< samples per analysis window
  unsigned hop = app::kWindow;     ///< stream advance per window (<= window)
  SessionKind kind = SessionKind::kBioTracker;
  app::Target target = app::Target::kCpuVwr2a;  ///< bio-tracker target
  runtime::SharedBuffer taps;  ///< pipeline FIR taps; null = paper's FIR-11
  std::size_t max_inflight = 4;       ///< queued-or-running window bound
  std::size_t buffer_capacity = 0;    ///< staging samples; 0 = 4 * window
};

/// One delivered window.
struct WindowResult {
  std::uint64_t session = 0;  ///< owning session id
  std::uint64_t index = 0;    ///< window index within the session, from 0
  runtime::JobResult job;     ///< output words + cycle/energy cost
};

/// The session. Created by StreamServer::open_session().
class Session {
 public:
  using Sink = std::function<void(const WindowResult&)>;
  /// Failed-window report: session id, window index, error message. Runs
  /// on the delivering thread.
  using ErrorSink =
      std::function<void(std::uint64_t, std::uint64_t, const std::string&)>;

  /// `device` is the soft-pin target (the server places sessions);
  /// `completer` switches the session to completion-lane delivery (null:
  /// producer-thread reaping).
  Session(std::uint64_t id, runtime::DevicePool& pool, unsigned device,
          SessionConfig cfg, Sink sink, Completer* completer = nullptr,
          ErrorSink on_error = nullptr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Blocking ingest: accepts every sample, waiting for window deliveries
  /// whenever the staging buffer or the in-flight bound requires.
  void push(std::span<const std::int32_t> samples);

  /// Non-blocking ingest: submits whatever full windows fit under the
  /// in-flight bound, then accepts the samples only if the staging buffer
  /// has room -- otherwise the whole push is dropped and counted. Returns
  /// false on a drop.
  bool try_push(std::span<const std::int32_t> samples);

  /// Submits all buffered full windows, then the zero-padded partial tail
  /// (if any samples past the last window remain). Blocking.
  void flush();

  /// Blocks until every submitted window has been delivered, then
  /// rethrows the first job failure not yet reported (once) when no error
  /// sink was installed.
  void drain();

  /// flush() + drain(): end-of-stream.
  void finish();

  std::uint64_t id() const { return id_; }
  unsigned device() const { return device_; }
  const SessionConfig& config() const { return cfg_; }
  std::size_t inflight() const;

  /// Counter snapshot. Thread-safe.
  SessionStats stats() const;

  /// Delivers the session's oldest undelivered window: waits for `h`, runs
  /// the sink (or the error sink on a failure), accounts the window and
  /// releases its in-flight slot. Called in submission order by the one
  /// thread that delivers this session: its producer, or its Completer
  /// lane.
  void deliver(runtime::JobHandle h);

  /// A template of the per-window job this session will submit (null
  /// buffers), for cost estimation against the pool's online estimator.
  static runtime::Job window_job(const SessionConfig& cfg);

  /// The shortest-local-clock reservation one window of this session is
  /// worth under the analytic prior (window_job + pool.estimate() folds in
  /// the learned per-family correction when a pool is at hand).
  static Cycle window_estimate(const SessionConfig& cfg);

 private:
  /// Builds the per-window job (kind-dependent), pinned to device_. The
  /// window is a view into the windower's shared staging segment, so the
  /// hop-overlap between consecutive windows is never copied per window.
  runtime::Job make_job(WindowView window);
  void submit_window(WindowView window);
  /// Producer-thread reaping: pops the oldest handle and delivers it
  /// (blocking).
  void reap_front();
  /// Producer-thread reaping: delivers every already-finished front window
  /// without blocking. A no-op with lanes (the producer FIFO stays empty).
  void reap_ready();
  /// Blocks until an in-flight slot is free: the producer delivers its
  /// oldest window itself, or waits for a lane to deliver one.
  void make_room();
  /// True when the in-flight bound is currently met.
  bool at_inflight_limit() const;
  /// Submits buffered full windows; blocks on backpressure when allowed,
  /// stops early otherwise. Returns false if it stopped early.
  bool pump(bool may_block);
  /// Accounts one delivered or failed (`err` set) window into stats_ and
  /// releases its in-flight slot.
  void settle(const runtime::JobResult& job,
              const std::optional<std::string>& err);

  std::uint64_t id_;
  runtime::DevicePool* pool_;
  unsigned device_;
  SessionConfig cfg_;
  Sink sink_;
  ErrorSink error_sink_;
  Completer* completer_;  ///< null: producer-thread reaping
  Windower win_;
  /// Producer-thread reaping: the submitted handles, oldest first.
  std::deque<runtime::JobHandle> inflight_;
  /// Index of the next window to deliver; touched only by the delivering
  /// thread.
  std::uint64_t next_index_ = 0;

  /// Counter + in-flight-slot state, shared by the producer and the
  /// delivering thread.
  mutable std::mutex smu_;
  std::condition_variable slot_cv_;   ///< in-flight slot freed / drained
  std::size_t inflight_n_ = 0;        ///< submitted, not yet delivered
  /// First failure not yet rethrown (no error sink set).
  std::optional<std::string> unreported_error_;
  SessionStats stats_;
};

} // namespace vwr2a::stream
