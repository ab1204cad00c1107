#pragma once
// Client side of the gateway protocol: wraps one Transport (loopback or
// TCP) into a typed API -- open streams, push samples, flush/close with
// barrier semantics, query server stats. A background reader thread
// dispatches WINDOW_RESULT frames to per-stream callbacks and routes acks
// back to the blocked request.
//
// Threading. Control operations (open/flush/close_stream/stats) are
// blocking request->ack round trips, serialized internally; push() only
// writes (its backpressure is the transport's flow control). Different
// threads may drive different streams of one client. Result and error
// callbacks run on the client's reader thread: they must not call back
// into blocking client operations (post to your own queue instead).

#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "gateway/protocol.hpp"
#include "gateway/transport.hpp"

namespace vwr2a::gateway {

/// An ERROR frame surfaced as an exception (control-request failures).
class GatewayError : public SimError {
 public:
  explicit GatewayError(Error err)
      : SimError("gateway error " + std::to_string(err.code) + ": " +
                 err.message),
        error(std::move(err)) {}
  Error error;
};

/// The client.
class Client {
 public:
  using ResultFn = std::function<void(const WindowResult&)>;
  using ErrorFn = std::function<void(const Error&)>;

  /// Stream parameters (the OPEN_SESSION payload minus the stream id,
  /// which the client allocates).
  struct StreamOpts {
    std::uint32_t tenant = 0;
    std::uint8_t kind = 0;    ///< stream::SessionKind
    std::uint8_t target = 2;  ///< app::Target (default kCpuVwr2a)
    bool lossy = false;       ///< try_push semantics server-side
    std::uint32_t window = 512;
    std::uint32_t hop = 512;
    std::uint32_t max_inflight = 4;
    std::uint32_t buffer_capacity = 0;
  };

  explicit Client(std::unique_ptr<Transport> t);
  ~Client();  ///< close()

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens a stream; blocks for OPEN_OK. Returns the stream id. Throws
  /// GatewayError on an ERROR reply (quota, bad params, ...).
  std::uint32_t open(const StreamOpts& opts, ResultFn on_result,
                     ErrorFn on_error = nullptr);

  /// The device the server soft-pinned `stream` to (from its OPEN_OK).
  std::uint32_t device_of(std::uint32_t stream) const;

  /// The server-side session id of `stream` (from its OPEN_OK): the key a
  /// v6 span breakdown is filed under (obs::window_id(session, index)).
  std::uint64_t session_of(std::uint32_t stream) const;

  /// Sends one PUSH_SAMPLES frame (blocking only on transport flow
  /// control; results arrive asynchronously on the reader thread).
  void push(std::uint32_t stream, std::span<const std::int32_t> samples);

  /// FLUSH barrier: returns once every window pushed so far (full windows
  /// + zero-padded tail) has been received as a WINDOW_RESULT.
  FlushOk flush(std::uint32_t stream);

  /// CLOSE barrier: final per-stream accounting.
  CloseOk close_stream(std::uint32_t stream);

  /// Server/fleet telemetry snapshot: every counter row plus the
  /// per-device and per-session loads.
  Stats stats();

  /// Shuts the connection down and joins the reader. Idempotent. Pending
  /// requests fail with GatewayError(kShutdown).
  void close();

 private:
  Frame request(Frame f, std::uint32_t key);
  void send_frame(const Frame& f);
  void reader_loop();
  void fail_all_pending();

  std::unique_ptr<Transport> t_;
  std::thread reader_;

  struct StreamCbs {
    ResultFn on_result;
    ErrorFn on_error;
    std::uint32_t device = 0;
    std::uint64_t session = 0;  ///< server-side session id (OPEN_OK)
  };

  mutable std::mutex mu_;  ///< pending_, streams_, next_stream_, closed_
  std::map<std::uint32_t, std::promise<Frame>> pending_;  ///< by stream key
  std::map<std::uint32_t, StreamCbs> streams_;
  std::uint32_t next_stream_ = 1;
  bool closed_ = false;

  std::mutex req_mu_;   ///< serializes control round trips
  std::mutex send_mu_;  ///< frame-atomic transport writes
};

} // namespace vwr2a::gateway
