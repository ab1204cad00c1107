#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "obs/capture.hpp"

namespace vwr2a::obs {

namespace {

constexpr std::size_t kChunkBytes = 4096;
using Chunk = std::array<std::uint8_t, kChunkBytes>;

// Record layout (varints are LEB128, 1..10 bytes):
//   varint  name index << 1 | ext   (index into the ring's name table)
//   u8      bit 0: kind (when !ext); bits 1..7: which of dur_ns, window,
//           sim_begin, sim_dur, a1, a2, a3 follow
//   ext:    varint tid, u8 kind     (tid differs from the ring's, or kind > 1)
//   varint  zigzag(ts_ns - previous record's ts_ns), wrapping
//   varint  each present field, in the order above
constexpr std::size_t kMaxVarint = 10;
constexpr std::size_t kMaxRecord = kMaxVarint + 1 + 5 + 1 + 8 * kMaxVarint;
constexpr unsigned kFields = 7;

std::uint8_t* put_varint(std::uint8_t* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<std::uint8_t>(v);
  return p;
}

std::uint64_t zigzag(std::uint64_t delta) {
  return (delta << 1) ^ (0 - (delta >> 63));
}

std::uint64_t unzigzag(std::uint64_t z) { return (z >> 1) ^ (0 - (z & 1)); }

std::array<std::uint64_t*, kFields> fields_of(TraceEvent& e) {
  return {&e.dur_ns, &e.window, &e.sim_begin, &e.sim_dur, &e.a1, &e.a2, &e.a3};
}

} // namespace

// One ring per emitting thread, plus the shared retired ring that the rings
// of exited threads fold into. Events are stored as compact records (layout
// above) appended to fixed-size chunks; head counts events recorded since
// the last reset and live the records still held, so head - live is the
// exact number of drop-oldest evictions. Evicting the oldest record moves
// rpos past it; a chunk that rpos leaves holds no live record and is kept
// as the spare for the next chunk the writer needs, so a full ring
// recycles chunks instead of allocating, and a ring's memory follows its
// live records rather than its capacity. The per-ring mutex is only ever
// contended by snapshot()/reset()/ring_bytes(); an emitting thread
// otherwise takes it uncontended.
struct Tracer::Ring {
  mutable std::mutex mu;
  std::size_t cap = 1;
  std::uint64_t head = 0;
  std::uint64_t live = 0;
  std::uint32_t tid = 0;
  std::vector<std::unique_ptr<Chunk>> chunks;  // chunks[0] starts at base
  std::unique_ptr<Chunk> spare;
  std::uint64_t base = 0;     // byte position of chunks[0][0]
  std::uint64_t rpos = 0;     // byte position of the oldest live record
  std::uint64_t wpos = 0;     // byte position one past the newest record
  std::uint64_t tail_ts = 0;  // ts the oldest record's delta is taken from
  std::uint64_t last_ts = 0;  // ts of the newest record
  std::vector<const char*> names;
  std::unordered_map<const char*, std::uint32_t> name_ids;

  std::uint32_t name_index(const char* name) {
    const auto [it, fresh] = name_ids.try_emplace(
        name, static_cast<std::uint32_t>(names.size()));
    if (fresh) names.push_back(name);
    return it->second;
  }

  /// Decodes the record at `pos` into `e` (ts_ns relative to prev) and
  /// returns the position after it. A record near a chunk end is gathered
  /// into a local buffer first, since it may straddle into the next chunk.
  std::uint64_t decode(std::uint64_t pos, std::uint64_t prev,
                       TraceEvent& e) const {
    const std::uint64_t off = pos - base;
    const std::size_t at = off % kChunkBytes;
    const std::uint8_t* p = chunks[off / kChunkBytes]->data() + at;
    std::uint8_t gathered[kMaxRecord];
    if (at + kMaxRecord > kChunkBytes) {
      const std::size_t n = std::min<std::uint64_t>(kMaxRecord, wpos - pos);
      const std::size_t first = std::min(n, kChunkBytes - at);
      std::memcpy(gathered, p, first);
      if (n > first) {
        std::memcpy(gathered + first, chunks[off / kChunkBytes + 1]->data(),
                    n - first);
      }
      p = gathered;
    }
    const std::uint8_t* const start = p;
    auto varint = [&p] {
      std::uint64_t v = 0;
      for (unsigned shift = 0;; shift += 7) {
        const std::uint8_t b = *p++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if ((b & 0x80) == 0) return v;
      }
    };
    const std::uint64_t name = varint();
    const std::uint8_t flags = *p++;
    e = TraceEvent{};
    e.name = names[name >> 1];
    e.tid = tid;
    e.kind = flags & 1;
    if ((name & 1) != 0) {
      e.tid = static_cast<std::uint32_t>(varint());
      e.kind = *p++;
    }
    e.ts_ns = prev + unzigzag(varint());
    const auto fields = fields_of(e);
    for (unsigned f = 0; f < kFields; ++f) {
      if ((flags >> (f + 1) & 1) != 0) *fields[f] = varint();
    }
    return pos + static_cast<std::uint64_t>(p - start);
  }

  /// Appends one record, evicting the oldest ones first while full.
  void append(TraceEvent e) {
    while (live >= cap) evict();
    std::uint8_t rec[kMaxRecord];
    const bool ext = e.tid != tid || e.kind > 1;
    std::uint8_t* p = put_varint(
        rec, (std::uint64_t{name_index(e.name)} << 1) | (ext ? 1 : 0));
    std::uint8_t* flags = p++;
    *flags = ext ? 0 : e.kind;
    if (ext) {
      p = put_varint(p, e.tid);
      *p++ = e.kind;
    }
    p = put_varint(p, zigzag(e.ts_ns - last_ts));
    const auto fields = fields_of(e);
    for (unsigned f = 0; f < kFields; ++f) {
      if (*fields[f] == 0) continue;
      *flags |= static_cast<std::uint8_t>(1u << (f + 1));
      p = put_varint(p, *fields[f]);
    }
    write(rec, static_cast<std::size_t>(p - rec));
    last_ts = e.ts_ns;
    ++live;
    ++head;
  }

  void write(const std::uint8_t* src, std::size_t n) {
    while (n > 0) {
      const std::uint64_t off = wpos - base;
      if (off == chunks.size() * kChunkBytes) {
        chunks.push_back(spare ? std::move(spare) : std::make_unique<Chunk>());
      }
      const std::size_t at = off % kChunkBytes;
      const std::size_t take = std::min(n, kChunkBytes - at);
      std::memcpy(chunks[off / kChunkBytes]->data() + at, src, take);
      src += take;
      n -= take;
      wpos += take;
    }
  }

  void evict() {
    TraceEvent e;
    rpos = decode(rpos, tail_ts, e);
    tail_ts = e.ts_ns;
    --live;
    while (rpos - base >= kChunkBytes) {
      spare = std::move(chunks.front());
      chunks.erase(chunks.begin());
      base += kChunkBytes;
    }
  }

  template <class F>
  void for_each(F&& f) const {
    std::uint64_t pos = rpos;
    std::uint64_t prev = tail_ts;
    TraceEvent e;
    for (std::uint64_t i = 0; i < live; ++i) {
      pos = decode(pos, prev, e);
      prev = e.ts_ns;
      f(e);
    }
  }

  void clear() {
    chunks.clear();
    spare.reset();
    head = live = 0;
    base = rpos = wpos = 0;
    tail_ts = last_ts = 0;
  }

  std::size_t bytes() const {
    return (chunks.size() + (spare ? 1 : 0)) * kChunkBytes;
  }
};

struct Tracer::Impl {
  mutable std::mutex mu;  // guards rings, cap and retired_threads
  std::vector<std::unique_ptr<Ring>> rings;
  std::size_t cap = 32768;
  // Records of exited threads, each keeping its tid. Its capacity follows
  // cap as of the latest fold.
  Ring retired;
  std::uint32_t retired_threads = 0;  // exited rings that recorded >= 1 event

  Impl() { retired.tid = ~std::uint32_t{0}; }

  /// Thread exit: moves the ring's live records and drop count into the
  /// retired ring and frees it, so memory follows the live threads. The
  /// exiting thread is the ring's only writer, and snapshot()/reset() reach
  /// it only under mu.
  void retire(Ring* r) {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = std::find_if(rings.begin(), rings.end(),
                                 [r](const auto& p) { return p.get() == r; });
    const std::unique_ptr<Ring> owned = std::move(*it);
    rings.erase(it);
    if (owned->head == 0) return;
    ++retired_threads;
    std::lock_guard<std::mutex> rlock(retired.mu);
    retired.cap = cap;
    retired.head += owned->head - owned->live;
    owned->for_each([this](const TraceEvent& e) { retired.append(e); });
  }

  /// Calls f(ring) under mu and the ring's lock: the retired ring first,
  /// then the live threads' rings in creation order.
  template <class F>
  void for_each_ring(F&& f) {
    std::lock_guard<std::mutex> lock(mu);
    auto visit = [&f](Ring& r) {
      std::lock_guard<std::mutex> rlock(r.mu);
      f(r);
    };
    visit(retired);
    for (const auto& rp : rings) visit(*rp);
  }
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
  // Retires the thread's ring when the thread exits.
  struct Handle {
    Ring* r = nullptr;
    ~Handle() {
      if (r != nullptr) Tracer::get().impl().retire(r);
      r = nullptr;
    }
  };
  thread_local Handle h;
  if (h.r == nullptr) {
    Impl& im = impl();
    auto owned = std::make_unique<Ring>();
    owned->tid = thread_slot();
    std::lock_guard<std::mutex> lock(im.mu);
    owned->cap = im.cap;
    h.r = owned.get();
    im.rings.push_back(std::move(owned));
  }
  return *h.r;
}

void Tracer::emit(TraceEvent e) {
  if (!tracing_enabled()) return;
  Ring& r = ring();
  if (e.ts_ns == 0) e.ts_ns = now_ns();
  e.tid = r.tid;
  std::lock_guard<std::mutex> lock(r.mu);
  r.append(e);
}

void Tracer::set_ring_capacity(std::size_t cap) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.cap = cap == 0 ? 1 : cap;
}

Tracer::Snapshot Tracer::snapshot() const {
  Impl& im = impl();
  Snapshot out;
  im.for_each_ring([&](const Ring& r) {
    if (&r == &im.retired) {
      out.threads += im.retired_threads;
    } else if (r.head > 0) {
      ++out.threads;
    }
    out.dropped += r.head - r.live;
    r.for_each([&out](const TraceEvent& e) { out.events.push_back(e); });
  });
  return out;
}

void Tracer::reset() {
  Impl& im = impl();
  im.for_each_ring([&im](Ring& r) {
    if (&r == &im.retired) im.retired_threads = 0;
    r.clear();
  });
}

std::size_t Tracer::ring_bytes() const {
  std::size_t total = 0;
  impl().for_each_ring([&total](const Ring& r) { total += r.bytes(); });
  return total;
}

bool Tracer::save(const std::string& path, std::string* why) const {
  return save_capture(snapshot(), path, why);
}

} // namespace vwr2a::obs
