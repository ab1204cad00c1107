#include "obs/trace.hpp"

#include <memory>
#include <mutex>

#include "obs/capture.hpp"

namespace vwr2a::obs {

// One ring per emitting thread. head counts events ever emitted; the live
// window is the last min(head, cap) events, so the exact number of
// drop-oldest evictions is head - cap once the ring has wrapped. The buffer
// reserves cap events at creation but grows by push_back until full, so a
// thread that emits little commits little memory (a reserved, untouched
// buffer costs address space, not resident pages); it never reallocates.
// The per-ring mutex is only ever contended by snapshot()/reset(); an
// emitting thread otherwise takes it uncontended.
struct Tracer::Ring {
  mutable std::mutex mu;
  std::vector<TraceEvent> buf;  // capacity cap, filled lazily
  std::size_t cap = 1;
  std::uint64_t head = 0;
  std::uint32_t tid = 0;
};

struct Tracer::Impl {
  mutable std::mutex mu;  // guards rings (registration) and cap
  std::vector<std::unique_ptr<Ring>> rings;
  std::size_t cap = 32768;
};

Tracer& Tracer::get() {
  static Tracer* t = new Tracer();  // leaked: emitters may outlive main
  return *t;
}

Tracer::Impl& Tracer::impl() const {
  static Impl* i = new Impl();
  return *i;
}

Tracer::Ring& Tracer::ring() {
  thread_local Ring* r = nullptr;
  if (r == nullptr) {
    Impl& im = impl();
    auto owned = std::make_unique<Ring>();
    owned->tid = thread_slot();
    std::lock_guard<std::mutex> lock(im.mu);
    owned->cap = im.cap;
    owned->buf.reserve(im.cap);
    r = owned.get();
    im.rings.push_back(std::move(owned));
  }
  return *r;
}

void Tracer::emit(TraceEvent e) {
  if (!tracing_enabled()) return;
  Ring& r = ring();
  if (e.ts_ns == 0) e.ts_ns = now_ns();
  e.tid = r.tid;
  std::lock_guard<std::mutex> lock(r.mu);
  // Slots below buf.size() hold older events (or pre-reset ones) and are
  // overwritten; the first pass over the ring appends.
  const std::size_t slot = r.head % r.cap;
  if (slot < r.buf.size()) {
    r.buf[slot] = e;
  } else {
    r.buf.push_back(e);
  }
  ++r.head;
}

void Tracer::set_ring_capacity(std::size_t cap) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.cap = cap == 0 ? 1 : cap;
}

Tracer::Snapshot Tracer::snapshot() const {
  Impl& im = impl();
  Snapshot out;
  std::lock_guard<std::mutex> lock(im.mu);
  for (const auto& rp : im.rings) {
    const Ring& r = *rp;
    std::lock_guard<std::mutex> rlock(r.mu);
    if (r.head == 0) continue;
    ++out.threads;
    const std::size_t cap = r.cap;
    const std::uint64_t kept = r.head < cap ? r.head : cap;
    out.dropped += r.head - kept;
    // Oldest-to-newest: the oldest surviving event sits at head % cap once
    // wrapped, at 0 before.
    const std::uint64_t first = r.head - kept;
    for (std::uint64_t i = 0; i < kept; ++i) {
      out.events.push_back(r.buf[(first + i) % cap]);
    }
  }
  return out;
}

void Tracer::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (const auto& rp : im.rings) {
    Ring& r = *rp;
    std::lock_guard<std::mutex> rlock(r.mu);
    r.head = 0;
  }
}

bool Tracer::save(const std::string& path, std::string* why) const {
  return save_capture(snapshot(), path, why);
}

} // namespace vwr2a::obs
