#pragma once
// The streaming service layer on top of runtime::DevicePool: a StreamServer
// owns the fleet and many Sessions (one per tenant). Each session is
// soft-pinned to a device at open time:
//   * Schedule::kShortestLocalClock (recommended for streaming): the
//     session lands on the device with the smallest estimated local clock
//     and reserves its expected per-window cost there, so heavy and light
//     tenants spread deterministically instead of clustering;
//   * Schedule::kRoundRobin: session i lands on device i % devices (the
//     blind baseline).
// Soft-pinning keeps a session's windows on one device, which (a) makes
// per-session result delivery ordered by construction and (b) lets the
// device's SPM-residency tracking skip re-staging the resident MBioTracker
// image between windows of any bio session.
//
// Lifecycle: open sessions (thread-safe), feed each from its producer
// thread, then finish() and read stats(). The server outlives its sessions'
// producers; destroying it drains the pool.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "runtime/pool.hpp"
#include "stream/completer.hpp"
#include "stream/session.hpp"
#include "stream/stats.hpp"

namespace vwr2a::stream {

/// The server.
class StreamServer {
 public:
  struct Config {
    runtime::DevicePool::Config pool;
    /// Dedicated completion/delivery threads. 0 (the default) delivers
    /// results on each session's producer thread. > 0 moves delivery onto
    /// Completer lanes: sinks may block without stalling any session's
    /// ingest, per-session order preserved by construction (see
    /// completer.hpp). Results and failure reports are the same either way.
    unsigned completion_threads = 0;
    Config() { pool.schedule = runtime::Schedule::kShortestLocalClock; }
  };

  StreamServer() : StreamServer(Config()) {}
  explicit StreamServer(Config cfg);

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  ~StreamServer();  ///< drains the delivery lanes, then the pool

  /// Opens a tenant session and soft-pins it to a device (see above).
  /// Thread-safe. The returned reference lives as long as the server.
  /// `on_error` receives failed-window reports on the delivering thread;
  /// without one, the session's drain()/finish() rethrows the first
  /// failure (see session.hpp).
  Session& open_session(SessionConfig cfg = {}, Session::Sink sink = nullptr,
                        Session::ErrorSink on_error = nullptr);

  /// Ends every session's stream (flush + drain) and waits for the fleet
  /// to go idle. Call after the producers have stopped pushing.
  void finish();

  /// Telemetry snapshot: per-session counters + fleet aggregate. Call with
  /// the producers quiesced (e.g. after finish()).
  ServerStats stats();

  /// Non-blocking per-session snapshots (Session::stats() is thread-safe):
  /// safe to call while producers stream. Feeds the per-session load
  /// array of the gateway's STATS frame.
  std::vector<SessionStats> peek_sessions() const;

  runtime::DevicePool& pool() { return pool_; }
  const runtime::DevicePool& pool() const { return pool_; }
  std::size_t num_sessions() const;
  /// The delivery-lane pool, or null under producer-thread reaping.
  Completer* completer() { return completer_.get(); }

 private:
  Config cfg_;
  runtime::DevicePool pool_;
  std::unique_ptr<Completer> completer_;  ///< null: producer-thread reaping
  mutable std::mutex mu_;  ///< guards sessions_
  std::vector<std::unique_ptr<Session>> sessions_;
};

} // namespace vwr2a::stream
