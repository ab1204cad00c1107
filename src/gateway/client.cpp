#include "gateway/client.hpp"

#include <utility>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace vwr2a::gateway {

namespace {

/// Feeds one v6 WINDOW_RESULT span breakdown into the local obs layer:
/// remote-stage histograms and synthetic "remote.*" spans keyed by
/// obs::window_id(session, index) -- the same key the server's own spans
/// use, which is what lets vwr2a_trace merge the two captures with
/// cross-process flow arrows. The client has no clock sync with the
/// server, so the span chain is anchored at the frame's receive time and
/// laid out backward by the reported durations.
void feed_remote_spans(const WindowResult& wr, std::uint64_t session) {
  if (wr.queue_ns == 0 && wr.run_ns == 0 && wr.deliver_ns == 0) {
    return;  // server ran with spans off; nothing to file
  }
  if (obs::metrics_enabled()) {
    static obs::Histogram& queue =
        obs::Registry::get().histogram("client.remote_queue_ns");
    static obs::Histogram& run =
        obs::Registry::get().histogram("client.remote_run_ns");
    static obs::Histogram& deliver =
        obs::Registry::get().histogram("client.remote_deliver_ns");
    queue.record(wr.queue_ns);
    run.record(wr.run_ns);
    deliver.record(wr.deliver_ns);
  }
  if (!obs::tracing_enabled()) return;
  const std::uint64_t window = obs::window_id(session, wr.index);
  const std::uint64_t end = obs::now_ns();
  const std::uint64_t deliver_b = end - wr.deliver_ns;
  const std::uint64_t run_b = deliver_b - wr.run_ns;
  const std::uint64_t queue_b = run_b - wr.queue_ns;
  obs::complete("remote.queue", window, queue_b, wr.queue_ns, wr.device,
                wr.place_cycles);
  obs::TraceEvent run_ev;
  run_ev.name = "remote.run";
  run_ev.window = window;
  run_ev.ts_ns = run_b;
  run_ev.dur_ns = wr.run_ns;
  run_ev.sim_begin = wr.sim_begin;
  run_ev.sim_dur = wr.cycles;
  run_ev.a1 = wr.device;
  obs::Tracer::get().emit(run_ev);
  obs::complete("remote.deliver", window, deliver_b, wr.deliver_ns,
                wr.device);
}

} // namespace

Client::Client(std::unique_ptr<Transport> t) : t_(std::move(t)) {
  if (t_ == nullptr) throw HostError("gateway: client needs a transport");
  reader_ = std::thread([this] { reader_loop(); });
}

Client::~Client() { close(); }

void Client::send_frame(const Frame& f) {
  const std::vector<std::uint8_t> bytes = encode(f);
  std::lock_guard<std::mutex> lock(send_mu_);
  if (!t_->send(bytes.data(), bytes.size())) {
    throw HostError("gateway: connection closed while sending");
  }
}

Frame Client::request(Frame f, std::uint32_t key) {
  // One control round trip at a time: the ack routing key is the stream
  // id (kConnectionStream for STATS), so overlapping requests on one
  // stream would be ambiguous.
  std::lock_guard<std::mutex> req_lock(req_mu_);
  std::future<Frame> ack;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) throw HostError("gateway: client is closed");
    if (pending_.count(key) != 0) {
      throw HostError("gateway: overlapping request on one stream");
    }
    ack = pending_[key].get_future();
  }
  try {
    send_frame(f);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(key);
    throw;
  }
  Frame reply = ack.get();
  if (auto* err = std::get_if<Error>(&reply)) {
    throw GatewayError(std::move(*err));
  }
  return reply;
}

std::uint32_t Client::open(const StreamOpts& opts, ResultFn on_result,
                           ErrorFn on_error) {
  OpenSession o;
  {
    std::lock_guard<std::mutex> lock(mu_);
    o.stream = next_stream_++;
    // Register callbacks before OPEN_OK can possibly arrive.
    streams_[o.stream] =
        StreamCbs{std::move(on_result), std::move(on_error), 0};
  }
  o.tenant = opts.tenant;
  o.kind = opts.kind;
  o.target = opts.target;
  o.lossy = opts.lossy ? 1 : 0;
  o.window = opts.window;
  o.hop = opts.hop;
  o.max_inflight = opts.max_inflight;
  o.buffer_capacity = opts.buffer_capacity;
  try {
    const Frame reply = request(o, o.stream);
    const auto& ok = std::get<OpenOk>(reply);
    std::lock_guard<std::mutex> lock(mu_);
    streams_[o.stream].device = ok.device;
    streams_[o.stream].session = ok.session;
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    streams_.erase(o.stream);
    throw;
  }
  return o.stream;
}

std::uint32_t Client::device_of(std::uint32_t stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = streams_.find(stream);
  if (it == streams_.end()) throw HostError("gateway: unknown stream");
  return it->second.device;
}

std::uint64_t Client::session_of(std::uint32_t stream) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = streams_.find(stream);
  if (it == streams_.end()) throw HostError("gateway: unknown stream");
  return it->second.session;
}

void Client::push(std::uint32_t stream,
                  std::span<const std::int32_t> samples) {
  PushSamples p;
  p.stream = stream;
  p.samples.assign(samples.begin(), samples.end());
  send_frame(p);
}

FlushOk Client::flush(std::uint32_t stream) {
  return std::get<FlushOk>(request(Flush{stream}, stream));
}

CloseOk Client::close_stream(std::uint32_t stream) {
  auto ok = std::get<CloseOk>(request(Close{stream}, stream));
  std::lock_guard<std::mutex> lock(mu_);
  streams_.erase(stream);
  return ok;
}

Stats Client::stats() {
  return std::get<Stats>(request(StatsRequest{}, kConnectionStream));
}

void Client::fail_all_pending() {
  std::map<std::uint32_t, std::promise<Frame>> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    pending.swap(pending_);
  }
  for (auto& [key, promise] : pending) {
    Error e;
    e.stream = key;
    e.code = static_cast<std::uint16_t>(ErrorCode::kShutdown);
    e.message = "gateway: connection closed";
    promise.set_value(e);
  }
}

void Client::reader_loop() {
  std::vector<std::uint8_t> buf(1u << 16);
  Decoder dec;
  try {
    for (;;) {
      const std::size_t n = t_->recv(buf.data(), buf.size());
      if (n == 0) break;
      dec.feed(buf.data(), n);
      while (auto f = dec.next()) {
        if (auto* wr = std::get_if<WindowResult>(&*f)) {
          ResultFn cb;
          std::uint64_t session = 0;
          bool known = false;
          {
            std::lock_guard<std::mutex> lock(mu_);
            const auto it = streams_.find(wr->stream);
            if (it != streams_.end()) {
              cb = it->second.on_result;
              session = it->second.session;
              known = true;
            }
          }
          if (known) feed_remote_spans(*wr, session);
          if (cb) cb(*wr);
          continue;
        }
        if (auto* err = std::get_if<Error>(&*f)) {
          // An ERROR answers the stream's pending request when one is
          // blocked -- except the inherently asynchronous codes (a window
          // job failing, a rate-limited push), which always go to the
          // stream's error callback: they may arrive while an unrelated
          // FLUSH/CLOSE on the same stream is in flight.
          const bool async_error =
              err->code == static_cast<std::uint16_t>(ErrorCode::kJobFailed) ||
              err->code == static_cast<std::uint16_t>(ErrorCode::kQuotaRate);
          std::promise<Frame> p;
          ErrorFn cb;
          bool have_promise = false;
          {
            std::lock_guard<std::mutex> lock(mu_);
            const auto pit =
                async_error ? pending_.end() : pending_.find(err->stream);
            if (pit != pending_.end()) {
              p = std::move(pit->second);
              pending_.erase(pit);
              have_promise = true;
            } else {
              const auto sit = streams_.find(err->stream);
              if (sit != streams_.end()) cb = sit->second.on_error;
            }
          }
          if (have_promise) {
            p.set_value(std::move(*f));
          } else if (cb) {
            cb(*err);
          }
          continue;
        }
        // Ack frames: route by stream key.
        std::uint32_t key = kConnectionStream;
        if (auto* ok = std::get_if<OpenOk>(&*f)) key = ok->stream;
        else if (auto* fk = std::get_if<FlushOk>(&*f)) key = fk->stream;
        else if (auto* ck = std::get_if<CloseOk>(&*f)) key = ck->stream;
        std::promise<Frame> p;
        bool have_promise = false;
        {
          std::lock_guard<std::mutex> lock(mu_);
          const auto pit = pending_.find(key);
          if (pit != pending_.end()) {
            p = std::move(pit->second);
            pending_.erase(pit);
            have_promise = true;
          }
        }
        if (have_promise) p.set_value(std::move(*f));
        // Unsolicited acks are dropped (the server never sends them).
      }
    }
  } catch (const std::exception&) {
    // Malformed server bytes: treat as connection loss.
  }
  fail_all_pending();
}

void Client::close() {
  t_->shutdown();
  if (reader_.joinable()) reader_.join();
  fail_all_pending();
}

} // namespace vwr2a::gateway
