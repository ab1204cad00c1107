#include "stream/session.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/status.hpp"
#include "dsp/signal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stream/completer.hpp"

namespace vwr2a::stream {

namespace {

SessionConfig validate(SessionConfig cfg) {
  if (cfg.kind == SessionKind::kBioTracker && cfg.window != app::kWindow) {
    throw HostError("Session: bio-tracker sessions need window == 512");
  }
  if (cfg.kind == SessionKind::kPipeline && cfg.window != 512 &&
      cfg.window != 1024) {
    throw HostError("Session: pipeline sessions need window 512 or 1024");
  }
  if (cfg.hop == 0 || cfg.hop > cfg.window) {
    throw HostError("Session: need 1 <= hop <= window");
  }
  if (cfg.max_inflight == 0) {
    throw HostError("Session: max_inflight must be positive");
  }
  if (cfg.buffer_capacity == 0) cfg.buffer_capacity = 4ull * cfg.window;
  if (cfg.kind == SessionKind::kPipeline && cfg.taps == nullptr) {
    cfg.taps = runtime::make_buffer(dsp::fir11_lowpass_q15());
  }
  return cfg;
}

} // namespace

Session::Session(std::uint64_t id, runtime::DevicePool& pool, unsigned device,
                 SessionConfig cfg, Sink sink, Completer* completer,
                 ErrorSink on_error)
    : id_(id),
      pool_(&pool),
      device_(device),
      cfg_(validate(std::move(cfg))),
      sink_(std::move(sink)),
      error_sink_(std::move(on_error)),
      completer_(completer),
      win_(cfg_.window, cfg_.hop, cfg_.buffer_capacity) {
  stats_.id = id_;
  stats_.device = device_;
}

runtime::Job Session::window_job(const SessionConfig& cfg) {
  runtime::Job job;
  if (cfg.kind == SessionKind::kPipeline) {
    job.work = runtime::PipelineJob{cfg.window, nullptr, nullptr};
  } else {
    job.work = runtime::BioTrackerJob{cfg.target, nullptr};
  }
  return job;
}

Cycle Session::window_estimate(const SessionConfig& cfg) {
  return runtime::DevicePool::estimate_cost(window_job(cfg));
}

runtime::Job Session::make_job(WindowView window) {
  runtime::Job job;
  if (cfg_.kind == SessionKind::kPipeline) {
    job.work = runtime::PipelineJob{cfg_.window, cfg_.taps,
                                    std::move(window.segment), window.offset};
  } else {
    job.work = runtime::BioTrackerJob{cfg_.target, std::move(window.segment),
                                      window.offset};
  }
  // Appended piecewise: GCC 12 flags a literal + std::string&& concatenation
  // with a spurious -Wrestrict.
  std::string tag(1, 's');
  tag += std::to_string(id_);
  tag += "/w";
  tag += std::to_string(stats_.windows_submitted);
  job.tag = std::move(tag);
  job.pin = static_cast<int>(device_);
  // Flight-recorder correlation id: stable across the window's whole life
  // (placement, queue, device run, completion, delivery). windows_submitted
  // is producer-owned, so this unlocked read matches the tag above.
  if (obs::tracing_enabled()) {
    job.trace_id = obs::window_id(id_, stats_.windows_submitted);
  }
  return job;
}

void Session::submit_window(WindowView window) {
  runtime::Job job = make_job(std::move(window));
  const std::uint64_t wid = job.trace_id;
  runtime::JobHandle h = [&] {
    obs::Span slice("window.slice", wid, id_, stats_.windows_submitted);
    return pool_->submit(std::move(job));
  }();
  // The slot is claimed before the handle can reach its deliverer, so a
  // drain can never observe zero in-flight while a window sits queued. If
  // the hand-off itself fails (completer stopping), no delivery will ever
  // release the slot -- roll it back or a later drain() hangs.
  {
    std::lock_guard<std::mutex> lock(smu_);
    ++inflight_n_;
    ++stats_.windows_submitted;
  }
  try {
    if (completer_ != nullptr) {
      completer_->enqueue(this, std::move(h));
    } else {
      inflight_.push_back(std::move(h));
    }
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(smu_);
      --inflight_n_;
      --stats_.windows_submitted;
    }
    // The failed slot may be the one a concurrent drain()/make_room() is
    // blocked on; no delivery will ever come to wake it.
    slot_cv_.notify_all();
    throw;
  }
}

void Session::settle(const runtime::JobResult& job,
                     const std::optional<std::string>& err) {
  {
    std::lock_guard<std::mutex> lock(smu_);
    --inflight_n_;
    if (err) {
      ++stats_.windows_failed;
      if (!error_sink_ && !unreported_error_) unreported_error_ = *err;
    } else {
      const Cycle lat = job.cost.total_cycles();
      stats_.latency_cycles_total += lat;
      stats_.latency_cycles_max = std::max(stats_.latency_cycles_max, lat);
      if (stats_.windows_delivered > 0 && job.device != stats_.device) {
        ++stats_.windows_migrated;  // the pin's failover chain moved us
      }
      stats_.device = job.device;
      ++stats_.windows_delivered;
      if (obs::metrics_enabled()) {
        static obs::Counter& delivered =
            obs::Registry::get().counter("session.windows_delivered");
        delivered.add(1);
        static obs::Histogram& latency =
            obs::Registry::get().histogram("session.latency_cycles");
        latency.record(lat);
      }
    }
  }
  slot_cv_.notify_all();
}

void Session::deliver(runtime::JobHandle h) {
  WindowResult r;
  r.session = id_;
  // Windows are delivered in submission order, so the delivery count is
  // the window's index; a failed window uses its index up too.
  r.index = next_index_++;
  const std::uint64_t wid =
      obs::tracing_enabled() ? obs::window_id(id_, r.index) : 0;
  std::optional<std::string> err;
  {
    obs::Span sp("window.complete", wid, id_);
    err = h.get_or_error(r.job);
  }
  // The sink runs before the slot is released: a producer blocked on
  // backpressure resumes only once the delivery fully happened, and
  // drain() returning means every sink call has returned. A throwing sink
  // still settles its window before the exception leaves.
  try {
    obs::Span sp("window.deliver", wid, id_, err ? 0 : 1);
    if (!err && sink_) sink_(r);
    if (err && error_sink_) error_sink_(id_, r.index, *err);
  } catch (...) {
    settle(r.job, err);
    throw;
  }
  settle(r.job, err);
}

void Session::reap_front() {
  if (inflight_.empty()) throw HostError("Session: nothing in flight");
  runtime::JobHandle h = std::move(inflight_.front());
  inflight_.pop_front();
  deliver(std::move(h));
}

void Session::reap_ready() {
  using namespace std::chrono_literals;
  while (!inflight_.empty() &&
         inflight_.front().wait_for(0s) == std::future_status::ready) {
    reap_front();
  }
}

bool Session::at_inflight_limit() const {
  std::lock_guard<std::mutex> lock(smu_);
  return inflight_n_ >= cfg_.max_inflight;
}

void Session::make_room() {
  if (completer_ == nullptr) {
    if (at_inflight_limit()) reap_front();
    return;
  }
  std::unique_lock<std::mutex> lock(smu_);
  slot_cv_.wait(lock, [this] { return inflight_n_ < cfg_.max_inflight; });
}

bool Session::pump(bool may_block) {
  while (win_.has_window()) {
    if (at_inflight_limit()) {
      if (!may_block) return false;
      make_room();  // backpressure: the oldest window delivers first
    }
    submit_window(win_.pop_window_view());
  }
  return true;
}

void Session::push(std::span<const std::int32_t> samples) {
  obs::Span sp("session.push", 0, id_, samples.size());
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::Registry::get().counter("session.samples_in");
    c.add(samples.size());
  }
  std::size_t off = 0;
  while (off < samples.size()) {
    reap_ready();
    pump(/*may_block=*/true);  // frees at least `hop` staged samples per window
    const std::size_t take =
        std::min(samples.size() - off, win_.free_space());
    win_.push(samples.subspan(off, take));
    {
      std::lock_guard<std::mutex> lock(smu_);
      stats_.samples_in += take;
    }
    off += take;
  }
  pump(/*may_block=*/true);
  reap_ready();
}

bool Session::try_push(std::span<const std::int32_t> samples) {
  obs::Span sp("session.push", 0, id_, samples.size());
  reap_ready();
  pump(/*may_block=*/false);
  if (win_.free_space() < samples.size()) {
    if (obs::metrics_enabled()) {
      static obs::Counter& c =
          obs::Registry::get().counter("session.dropped_samples");
      c.add(samples.size());
    }
    std::lock_guard<std::mutex> lock(smu_);
    stats_.dropped_samples += samples.size();
    ++stats_.dropped_pushes;
    return false;
  }
  if (obs::metrics_enabled()) {
    static obs::Counter& c = obs::Registry::get().counter("session.samples_in");
    c.add(samples.size());
  }
  win_.push(samples);
  {
    std::lock_guard<std::mutex> lock(smu_);
    stats_.samples_in += samples.size();
  }
  pump(/*may_block=*/false);
  return true;
}

void Session::flush() {
  obs::Span sp("session.flush", 0, id_);
  pump(/*may_block=*/true);
  if (win_.has_tail()) {
    make_room();
    submit_window(win_.pop_tail_view());
  }
}

void Session::drain() {
  while (!inflight_.empty()) reap_front();  // the producer FIFO; lanes: empty
  std::unique_lock<std::mutex> lock(smu_);
  slot_cv_.wait(lock, [this] { return inflight_n_ == 0; });
  if (unreported_error_) {
    const std::string err = std::move(*unreported_error_);
    unreported_error_.reset();
    throw HostError("Session: window job failed: " + err);
  }
}

void Session::finish() {
  flush();
  drain();
}

std::size_t Session::inflight() const {
  std::lock_guard<std::mutex> lock(smu_);
  return inflight_n_;
}

SessionStats Session::stats() const {
  std::lock_guard<std::mutex> lock(smu_);
  return stats_;
}

} // namespace vwr2a::stream
