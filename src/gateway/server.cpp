#include "gateway/server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vwr2a::gateway {

// --- Connection ---------------------------------------------------------------

/// Outbound frames buffered per connection before sinks block.
constexpr std::size_t kWriterQueueFrames = 256;

/// One served connection: reader thread (frame dispatch, session driving)
/// plus writer thread (bounded outbound queue -> transport).
class Server::Connection {
 public:
  Connection(Server& srv, std::unique_ptr<Transport> t,
             std::uint32_t journal_conn)
      : srv_(&srv), t_(std::move(t)), journal_conn_(journal_conn) {}

  void start() {
    writer_ = std::thread([this] { writer_loop(); });
    reader_ = std::thread([this] { reader_loop(); });
  }

  /// Kicks the connection toward termination (unblocks reader and writer).
  void begin_stop() { t_->shutdown(); }

  void join() {
    if (reader_.joinable()) reader_.join();
    if (writer_.joinable()) writer_.join();
  }

  /// True once the reader exited (streams settled, quota released) and the
  /// writer is flushing its last frames: the connection is dead weight and
  /// safe to destroy without blocking on the peer.
  bool done() const { return done_.load(std::memory_order_acquire); }

  ~Connection() {
    begin_stop();
    join();
  }

 private:
  struct StreamState {
    stream::Session* session = nullptr;
    std::uint32_t tenant = 0;
    bool lossy = false;
  };

  // --- outbound ---------------------------------------------------------------

  /// Enqueues one encoded frame; blocks while the queue is full (this is
  /// where a slow client exerts backpressure on delivery lanes). Returns
  /// false once the connection is dead -- the frame is dropped.
  bool enqueue(const Frame& f) {
    std::vector<std::uint8_t> bytes = encode(f);
    std::unique_lock<std::mutex> lock(wmu_);
    wspace_cv_.wait(lock, [this] {
      return closed_ || wq_.size() < kWriterQueueFrames;
    });
    if (closed_) return false;
    wq_.push_back(std::move(bytes));
    w_cv_.notify_one();
    return true;
  }

  void writer_loop() {
    for (;;) {
      std::vector<std::uint8_t> bytes;
      {
        std::unique_lock<std::mutex> lock(wmu_);
        w_cv_.wait(lock, [this] {
          return closed_ || finishing_ || !wq_.empty();
        });
        if (wq_.empty()) {
          if (closed_ || finishing_) return;
          continue;
        }
        bytes = std::move(wq_.front());
        wq_.pop_front();
      }
      wspace_cv_.notify_one();
      srv_->tel_.add<&Telemetry::bytes_out>(bytes.size());
      if (!t_->send(bytes.data(), bytes.size())) {
        std::lock_guard<std::mutex> lock(wmu_);
        closed_ = true;
        wq_.clear();
        wspace_cv_.notify_all();
        return;
      }
    }
  }

  void send_error(std::uint32_t stream, ErrorCode code,
                  const std::string& message) {
    srv_->tel_.add<&Telemetry::errors_sent>();
    enqueue(Error{stream, static_cast<std::uint16_t>(code), message});
  }

  /// Sink of every session opened on this connection; runs on a delivery
  /// lane of the StreamServer, never on the reader.
  void send_result(std::uint32_t stream, const stream::WindowResult& r) {
    WindowResult f;
    f.stream = stream;
    f.index = r.index;
    f.device = r.job.device;
    f.cycles = r.job.cost.total_cycles();
    f.pj = r.job.cost.total_pj();
    f.output = r.job.output;
    // v6 span breakdown: filled only when the pool stamped the job (spans
    // enabled at run time); all-zero fields otherwise.
    const runtime::JobResult::Timing& tm = r.job.timing;
    if (tm.stamped()) {
      const std::uint64_t now = obs::now_ns();
      f.queue_ns = tm.run_begin_ns > tm.enq_ns && tm.enq_ns != 0
                       ? tm.run_begin_ns - tm.enq_ns
                       : 0;
      f.run_ns =
          tm.run_end_ns > tm.run_begin_ns ? tm.run_end_ns - tm.run_begin_ns : 0;
      f.deliver_ns = now > tm.run_end_ns ? now - tm.run_end_ns : 0;
      f.place_cycles = tm.place_cycles;
      f.sim_begin = tm.sim_begin;
    }
    if (enqueue(std::move(f))) {
      if (srv_->journal_ != nullptr) {
        srv_->journal_->result(journal_conn_, stream, r.job.output);
      }
      srv_->tel_.add<&Telemetry::results_sent>();
    }
  }

  // --- inbound ----------------------------------------------------------------

  void reader_loop() {
    std::vector<std::uint8_t> buf(1u << 16);
    Decoder dec;
    try {
      for (;;) {
        const std::size_t n = t_->recv(buf.data(), buf.size());
        if (n == 0) break;  // EOF / shutdown
        srv_->tel_.add<&Telemetry::bytes_in>(n);
        dec.feed(buf.data(), n);
        while (auto f = dec.next()) {
          srv_->tel_.add<&Telemetry::frames_in>();
          if (srv_->journal_ != nullptr) {
            // The codec is canonical (strict framing, deterministic field
            // order), so re-encoding the decoded frame reproduces the
            // peer's bytes exactly -- and taps whole frames, never a
            // partial receive chunk.
            srv_->journal_->frame(journal_conn_, srv_->now_ns(), encode(*f));
          }
          obs::Span sp("gateway.frame", 0,
                       static_cast<std::uint64_t>(frame_type(*f)));
          handle(*f);
        }
      }
    } catch (const ProtocolError& e) {
      // Malformed bytes are connection-fatal: report and stop reading (the
      // decoder is poisoned; resynchronization is impossible).
      send_error(kConnectionStream, e.code, e.what());
    } catch (const std::exception& e) {
      send_error(kConnectionStream, ErrorCode::kShutdown, e.what());
    }
    shutdown_streams();
    if (srv_->journal_ != nullptr) {
      srv_->journal_->conn_close(journal_conn_, srv_->now_ns());
    }
    {
      std::lock_guard<std::mutex> lock(wmu_);
      finishing_ = true;  // writer exits once the queue is flushed
    }
    w_cv_.notify_all();
    done_.store(true, std::memory_order_release);
  }

  void handle(const Frame& f) {
    if (const auto* open = std::get_if<OpenSession>(&f)) {
      handle_open(*open);
    } else if (const auto* push = std::get_if<PushSamples>(&f)) {
      handle_push(*push);
    } else if (const auto* flush = std::get_if<Flush>(&f)) {
      handle_flush(*flush);
    } else if (const auto* close = std::get_if<Close>(&f)) {
      handle_close(*close);
    } else if (std::get_if<StatsRequest>(&f) != nullptr) {
      enqueue(srv_->build_stats());
    } else {
      // A structurally valid frame of a server->client type: a confused
      // peer, not a framing corruption. Report, keep the connection.
      send_error(kConnectionStream, ErrorCode::kUnknownType,
                 "gateway: client sent a server-side frame type");
    }
  }

  void handle_open(const OpenSession& o) {
    if (o.stream == kConnectionStream) {
      send_error(o.stream, ErrorCode::kBadParams,
                 "gateway: stream id 0xffffffff is reserved for "
                 "connection-level errors");
      return;
    }
    if (streams_.count(o.stream) != 0) {
      send_error(o.stream, ErrorCode::kDuplicateStream,
                 "gateway: stream id already open on this connection");
      return;
    }
    Error err;
    if (!srv_->admit_session(o.tenant, o, &err)) {
      send_error(o.stream, static_cast<ErrorCode>(err.code), err.message);
      return;
    }
    stream::SessionConfig cfg;
    cfg.window = o.window;
    cfg.hop = o.hop;
    cfg.max_inflight = o.max_inflight;
    cfg.buffer_capacity = o.buffer_capacity;
    stream::Session* session = nullptr;
    try {
      if (o.kind > static_cast<std::uint8_t>(stream::SessionKind::kPipeline)) {
        throw HostError("gateway: unknown session kind");
      }
      if (o.target > static_cast<std::uint8_t>(app::Target::kCpuVwr2a)) {
        throw HostError("gateway: unknown bio target");
      }
      cfg.kind = static_cast<stream::SessionKind>(o.kind);
      cfg.target = static_cast<app::Target>(o.target);
      const std::uint32_t sid = o.stream;
      session = &srv_->stream_.open_session(
          cfg,
          [this, sid](const stream::WindowResult& r) { send_result(sid, r); },
          [this, sid](std::uint64_t, std::uint64_t index,
                      const std::string& msg) {
            send_error(sid, ErrorCode::kJobFailed,
                       "window " + std::to_string(index) + ": " + msg);
          });
    } catch (const std::exception& e) {
      srv_->release_session(o.tenant);
      send_error(o.stream, ErrorCode::kBadParams, e.what());
      return;
    }
    streams_.emplace(o.stream, StreamState{session, o.tenant, o.lossy != 0});
    enqueue(OpenOk{o.stream, session->id(), session->device()});
  }

  void handle_push(const PushSamples& p) {
    const auto it = streams_.find(p.stream);
    if (it == streams_.end()) {
      send_error(p.stream, ErrorCode::kUnknownStream,
                 "gateway: PUSH_SAMPLES on an unopened stream");
      return;
    }
    if (!srv_->charge_rate(it->second.tenant, 4 * p.samples.size())) {
      send_error(p.stream, ErrorCode::kQuotaRate,
                 "gateway: tenant byte-rate exceeded; push dropped");
      return;
    }
    if (it->second.lossy) {
      it->second.session->try_push(p.samples);  // drops are accounted
    } else {
      it->second.session->push(p.samples);  // backpressure blocks the reader
    }
  }

  void handle_flush(const Flush& f) {
    const auto it = streams_.find(f.stream);
    if (it == streams_.end()) {
      send_error(f.stream, ErrorCode::kUnknownStream,
                 "gateway: FLUSH on an unopened stream");
      return;
    }
    // drain() returns only after every sink call has returned, so all of
    // this stream's WINDOW_RESULT frames sit in the (FIFO) writer queue
    // before FLUSH_OK is enqueued: the ack is a barrier.
    it->second.session->flush();
    it->second.session->drain();
    enqueue(FlushOk{f.stream, it->second.session->stats().windows_delivered});
  }

  void handle_close(const Close& c) {
    const auto it = streams_.find(c.stream);
    if (it == streams_.end()) {
      send_error(c.stream, ErrorCode::kUnknownStream,
                 "gateway: CLOSE on an unopened stream");
      return;
    }
    it->second.session->finish();
    const stream::SessionStats st = it->second.session->stats();
    CloseOk ok;
    ok.stream = c.stream;
    ok.windows_submitted = st.windows_submitted;
    ok.windows_delivered = st.windows_delivered;
    ok.windows_failed = st.windows_failed;
    ok.samples_in = st.samples_in;
    ok.dropped_samples = st.dropped_samples;
    ok.dropped_pushes = st.dropped_pushes;
    ok.latency_cycles_total = st.latency_cycles_total;
    ok.latency_cycles_max = st.latency_cycles_max;
    srv_->release_session(it->second.tenant);
    streams_.erase(it);
    enqueue(ok);
  }

  /// EOF/teardown: settle every live stream (deliver what was submitted;
  /// buffered-but-unsubmitted samples are discarded -- the peer is gone)
  /// and release its quota.
  void shutdown_streams() {
    for (auto& [id, st] : streams_) {
      try {
        st.session->drain();
      } catch (...) {
        // job failures were already routed to the error sink
      }
      srv_->release_session(st.tenant);
    }
    streams_.clear();
  }

  Server* srv_;
  std::unique_ptr<Transport> t_;
  std::uint32_t journal_conn_ = 0;  ///< journal connection id (0 when off)
  std::thread reader_;
  std::thread writer_;

  std::map<std::uint32_t, StreamState> streams_;  ///< reader-thread-owned

  std::mutex wmu_;
  std::condition_variable w_cv_;       ///< writer: frames queued / stop
  std::condition_variable wspace_cv_;  ///< enqueuers: space freed / closed
  std::deque<std::vector<std::uint8_t>> wq_;
  bool finishing_ = false;  ///< no more producers; flush and exit
  bool closed_ = false;     ///< transport dead; drop everything
  std::atomic<bool> done_{false};  ///< reader exited; reapable
};

// --- Server -------------------------------------------------------------------

namespace {

stream::StreamServer::Config make_stream_config(
    stream::StreamServer::Config cfg) {
  // The gateway depends on delivery lanes: results must reach connection
  // writers without any producer thread reaping them.
  if (cfg.completion_threads == 0) cfg.completion_threads = 2;
  return cfg;
}

} // namespace

Server::Server(Config cfg)
    : cfg_(std::move(cfg)), stream_(make_stream_config(cfg_.stream)) {
  if (!cfg_.journal_path.empty()) {
    journal_ = std::make_unique<obs::Journal>();
    std::string why;
    if (!journal_->open(cfg_.journal_path, kProtocolVersion, &why)) {
      throw HostError("gateway: " + why);
    }
  }
}

Server::~Server() { stop(); }

std::uint16_t Server::listen_tcp(std::uint16_t port) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) throw HostError("gateway: listen_tcp after stop");
    if (listener_ != nullptr) {
      throw HostError("gateway: listen_tcp called twice");
    }
    listener_ = gateway::listen_tcp(port);
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  return listener_->port();
}

void Server::accept_loop() {
  for (;;) {
    std::unique_ptr<Transport> t = listener_->accept();
    if (t == nullptr) return;
    serve(std::move(t));
  }
}

std::unique_ptr<Transport> Server::connect_loopback(std::size_t capacity) {
  auto [client_end, server_end] = make_loopback(capacity);
  serve(std::move(server_end));
  return std::move(client_end);
}

void Server::serve(std::unique_ptr<Transport> t) {
  // Settled connections (client closed or vanished; reader exited, quota
  // already released) are reaped here, so a tenant that crash-loops
  // through abrupt reconnects cannot grow the connection list without
  // bound. Destruction (thread joins) happens outside the lock.
  std::vector<std::unique_ptr<Connection>> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      t->shutdown();
      return;
    }
    for (auto& c : connections_) {
      if (c->done()) dead.push_back(std::move(c));
    }
    connections_.erase(
        std::remove(connections_.begin(), connections_.end(), nullptr),
        connections_.end());
    tel_.add<&Telemetry::connections>();
    const std::uint32_t journal_conn =
        journal_ != nullptr ? journal_->conn_open(now_ns()) : 0;
    connections_.push_back(
        std::make_unique<Connection>(*this, std::move(t), journal_conn));
    connections_.back()->start();
  }
  dead.clear();
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  if (listener_ != nullptr) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  // Snapshot under the lock, stop/join outside it (readers draining
  // sessions call back into the server for quota release).
  std::vector<Connection*> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns.reserve(connections_.size());
    for (auto& c : connections_) conns.push_back(c.get());
  }
  for (Connection* c : conns) c->begin_stop();
  for (Connection* c : conns) c->join();
  // Delivery lanes hold sink lambdas pointing at the connections: drain
  // and join them before any Connection can be destroyed.
  if (stream_.completer() != nullptr) stream_.completer()->stop();
  stream_.pool().wait_idle();
  // Every producer (readers, delivery lanes) is quiet: seal the journal.
  if (journal_ != nullptr) journal_->finalize();
}

bool Server::admit_session(std::uint32_t tenant, const OpenSession& open,
                           Error* err) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    err->code = static_cast<std::uint16_t>(ErrorCode::kShutdown);
    err->message = "gateway: server is stopping";
    return false;
  }
  if (open.max_inflight == 0 || open.max_inflight > cfg_.quotas.max_inflight) {
    err->code = static_cast<std::uint16_t>(ErrorCode::kQuotaInflight);
    err->message = "gateway: requested max_inflight outside [1, " +
                   std::to_string(cfg_.quotas.max_inflight) + "]";
    return false;
  }
  if (tel_.get<&Telemetry::open_streams>() >= cfg_.quotas.max_sessions) {
    err->code = static_cast<std::uint16_t>(ErrorCode::kQuotaSessions);
    err->message = "gateway: server session quota exhausted";
    return false;
  }
  Tenant& t = tenants_[tenant];
  if (t.live_sessions >= cfg_.quotas.max_sessions_per_tenant) {
    err->code = static_cast<std::uint16_t>(ErrorCode::kQuotaSessions);
    err->message = "gateway: tenant session quota exhausted";
    return false;
  }
  ++t.live_sessions;
  tel_.add<&Telemetry::sessions>();
  tel_.add<&Telemetry::open_streams>();
  return true;
}

void Server::release_session(std::uint32_t tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = tenants_[tenant];
  if (t.live_sessions > 0) --t.live_sessions;
  if (tel_.get<&Telemetry::open_streams>() > 0) {
    tel_.sub<&Telemetry::open_streams>();
  }
}

std::uint64_t Server::now_ns() const {
  if (cfg_.clock_ns) return cfg_.clock_ns();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool Server::charge_rate(std::uint32_t tenant, std::size_t bytes) {
  if (cfg_.quotas.bytes_per_second <= 0.0) return true;
  const std::uint64_t now = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = tenants_[tenant];
  if (!t.bucket_init) {
    t.tokens = cfg_.quotas.burst_bytes;
    t.last_ns = now;
    t.bucket_init = true;
  }
  const double elapsed_s =
      now > t.last_ns ? static_cast<double>(now - t.last_ns) * 1e-9 : 0.0;
  t.tokens = std::min(cfg_.quotas.burst_bytes,
                      t.tokens + elapsed_s * cfg_.quotas.bytes_per_second);
  t.last_ns = now;
  if (t.tokens < static_cast<double>(bytes)) {
    tel_.add<&Telemetry::rate_limited>();
    return false;
  }
  t.tokens -= static_cast<double>(bytes);
  return true;
}

Stats Server::build_stats() const {
  const runtime::FleetStats fleet = stream_.pool().peek_stats();
  Stats s;
  s.rows.reserve(runtime::kFleetFields.size() + kTelemetryFields.size());
  obs::to_rows<runtime::kFleetFields>(fleet, s.rows);
  obs::to_rows<kTelemetryFields>(telemetry(), s.rows);
  s.devices.reserve(fleet.device_cycles.size());
  for (std::size_t d = 0; d < fleet.device_cycles.size(); ++d) {
    DeviceLoad load;
    load.cycles = fleet.device_cycles[d];
    load.jobs = d < fleet.device_jobs.size() ? fleet.device_jobs[d] : 0;
    load.dead = d < fleet.device_dead.size() ? fleet.device_dead[d] : 0;
    s.devices.push_back(load);
  }
  // StreamServer sessions are append-only (closed sessions keep their
  // final counters), so on a long-lived server the newest tail is the
  // live set -- and it bounds the frame size.
  std::vector<stream::SessionStats> sessions = stream_.peek_sessions();
  const std::size_t first = sessions.size() > Stats::kMaxSessionLoads
                                ? sessions.size() - Stats::kMaxSessionLoads
                                : 0;
  s.sessions.reserve(sessions.size() - first);
  for (std::size_t i = first; i < sessions.size(); ++i) {
    const stream::SessionStats& ss = sessions[i];
    SessionLoad l;
    l.id = ss.id;
    l.device = ss.device;
    l.windows_submitted = ss.windows_submitted;
    l.windows_delivered = ss.windows_delivered;
    l.dropped_samples = ss.dropped_samples;
    l.latency_cycles_total = ss.latency_cycles_total;
    s.sessions.push_back(l);
  }
  return s;
}

} // namespace vwr2a::gateway
