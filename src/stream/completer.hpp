#pragma once
// Dedicated completion/delivery lanes for the stream layer: with
// StreamServer::Config::completion_threads > 0, delivering a session's
// finished windows (Session::deliver, the routine the producer runs itself
// without lanes) moves off the producer thread onto this small pool of
// delivery threads, so a sink that blocks (a slow network peer, a stalled
// file) no longer stalls ingest.
//
// Ordering. Sessions are statically assigned to lanes (session id modulo
// lane count) and a session's handles are enqueued in submission order, so
// one lane delivers each session's windows front-first: per-session
// delivery stays ordered by construction, exactly as in producer-thread
// reaping. A blocked sink stalls only its own lane's sessions' *delivery*;
// every session's ingest, and delivery on other lanes, keeps running.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/job.hpp"

namespace vwr2a::stream {

class Session;

/// The delivery-thread pool (owned by StreamServer; one per server).
class Completer {
 public:
  explicit Completer(unsigned threads);
  ~Completer();  ///< drains every lane, then joins

  Completer(const Completer&) = delete;
  Completer& operator=(const Completer&) = delete;

  unsigned threads() const { return static_cast<unsigned>(threads_.size()); }

  /// The lane session `id` delivers on.
  unsigned lane_of(std::uint64_t id) const {
    return static_cast<unsigned>(id % lanes_.size());
  }

  /// Queues one submitted window of `s` for delivery. Called by the
  /// session's producer in submission order (which is what makes the
  /// per-session delivery order a construction property, not a race).
  void enqueue(Session* s, runtime::JobHandle h);

  /// Delivers everything queued so far, then stops the lanes. Idempotent.
  void stop();

 private:
  struct Item {
    Session* session;
    runtime::JobHandle handle;
  };
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Item> q;
    bool stopping = false;
  };

  void lane_loop(Lane& lane);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;
};

} // namespace vwr2a::stream
