#include "obs/capture.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <unordered_map>

#include "common/codec.hpp"

namespace vwr2a::obs {

namespace {

/// File magic: "VWR2ATRC" little-endian.
constexpr std::uint64_t kMagic = 0x4352544132525756ull;
constexpr std::uint32_t kFormatVersion = 1;

bool fail(std::string* why, const char* msg) {
  if (why != nullptr) *why = msg;
  return false;
}

// JSON string escaping for event names (names are source literals, but the
// exporter should never emit broken JSON regardless).
void put_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
             << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

} // namespace

Capture to_capture(const Tracer::Snapshot& snap) {
  Capture cap;
  cap.dropped = snap.dropped;
  cap.threads = snap.threads;
  std::unordered_map<const char*, std::uint32_t> interned;
  cap.events.reserve(snap.events.size());
  for (const TraceEvent& e : snap.events) {
    const char* name = e.name != nullptr ? e.name : "";
    auto [it, fresh] =
        interned.try_emplace(name, static_cast<std::uint32_t>(cap.names.size()));
    if (fresh) cap.names.emplace_back(name);
    cap.events.push_back({it->second, e.tid, e.kind, e.ts_ns, e.dur_ns,
                          e.window, e.sim_begin, e.sim_dur, e.a1, e.a2, e.a3});
  }
  return cap;
}

std::vector<std::uint8_t> encode_capture(const Capture& cap) {
  std::vector<std::uint8_t> out;
  codec::Writer w(out);
  w.u64(kMagic);
  w.u32(kFormatVersion);
  w.u32(cap.threads);
  w.u64(cap.dropped);
  codec::put(w, cap.names);
  w.u64(cap.events.size());  // the one u64 count of the repo's formats
  for (const Capture::Ev& e : cap.events) codec::put(w, e);
  return out;
}

bool decode_capture(std::span<const std::uint8_t> bytes, Capture* out,
                    std::string* why) {
  codec::Reader r(bytes.data(), bytes.size());
  if (r.u64() != kMagic) return fail(why, "bad magic (not a .vwr2trc capture)");
  const std::uint32_t version = r.u32();
  if (!r.ok()) return fail(why, "truncated header");
  if (version != kFormatVersion) return fail(why, "unsupported capture version");
  Capture cap;
  cap.threads = r.u32();
  cap.dropped = r.u64();
  codec::get(r, cap.names);
  if (!r.ok()) return fail(why, "truncated string table");
  cap.events.resize(r.count<std::uint64_t>(codec::wire_size<Capture::Ev>()));
  for (Capture::Ev& e : cap.events) codec::get(r, e);
  if (!r.ok()) return fail(why, "truncated event table");
  if (!r.at_end()) return fail(why, "trailing bytes after the event table");
  for (const Capture::Ev& e : cap.events) {
    if (e.name >= cap.names.size()) return fail(why, "event name out of range");
  }
  *out = std::move(cap);
  return true;
}

bool save_capture(const Tracer::Snapshot& snap, const std::string& path,
                  std::string* why) {
  const std::vector<std::uint8_t> out = encode_capture(to_capture(snap));
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return fail(why, "cannot open capture file for writing");
  f.write(reinterpret_cast<const char*>(out.data()),
          static_cast<std::streamsize>(out.size()));
  f.flush();
  if (!f) return fail(why, "short write to capture file");
  return true;
}

bool load_capture(const std::string& path, Capture* out, std::string* why) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return fail(why, "cannot open capture file");
  const std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(f)),
                                      std::istreambuf_iterator<char>());
  return decode_capture(buf, out, why);
}

namespace {

/// The Chrome trace of `procs` (see write_chrome_json_merged); `other`,
/// when non-empty, is the body of a top-level "otherData" object.
void write_chrome(
    const std::vector<std::pair<std::string, const Capture*>>& procs,
    const std::string& other, std::ostream& os) {
  // One shared timebase: all captures came from obs::now_ns on one host
  // (the loopback/TCP client and server are co-resident in this repo), so
  // the global minimum rebases every process onto the same t=0.
  std::uint64_t t0 = ~std::uint64_t{0};
  for (const auto& [label, cap] : procs) {
    for (const Capture::Ev& e : cap->events) t0 = std::min(t0, e.ts_ns);
  }
  if (t0 == ~std::uint64_t{0}) t0 = 0;
  auto us = [&](std::uint64_t ns) {
    return static_cast<double>(ns - t0) / 1000.0;
  };
  auto dus = [](std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; };

  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    const std::uint32_t pid = static_cast<std::uint32_t>(p + 1);
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":";
    put_json_string(os, procs[p].first);
    os << "}}";
    for (const Capture::Ev& e : procs[p].second->events) {
      os << ",{\"name\":";
      put_json_string(os, procs[p].second->name_of(e));
      os << ",\"ph\":\"" << (e.kind == 1 ? "i" : "X") << "\"";
      os << ",\"ts\":" << us(e.ts_ns);
      if (e.kind != 1) os << ",\"dur\":" << dus(e.dur_ns);
      if (e.kind == 1) os << ",\"s\":\"t\"";
      os << ",\"pid\":" << pid << ",\"tid\":" << e.tid;
      os << ",\"args\":{\"window\":" << e.window;
      os << ",\"a1\":" << e.a1 << ",\"a2\":" << e.a2 << ",\"a3\":" << e.a3;
      if (e.sim_dur != 0 || e.sim_begin != 0) {
        os << ",\"sim_begin\":" << e.sim_begin
           << ",\"sim_cycles\":" << e.sim_dur;
      }
      os << "}}";
    }
  }
  // Cross-process flow arrows: one chain per window id over every process'
  // window-bound complete spans, in timestamp order. A window that appears
  // in both the client and the server capture gets arrows crossing the
  // process boundary -- the merge's whole point.
  struct Site {
    std::uint32_t pid, tid;
    std::uint64_t ts_ns;
  };
  std::map<std::uint64_t, std::vector<Site>> chains;
  for (std::size_t p = 0; p < procs.size(); ++p) {
    for (const Capture::Ev& e : procs[p].second->events) {
      if (e.window != 0 && e.kind == 0) {
        chains[e.window].push_back(
            {static_cast<std::uint32_t>(p + 1), e.tid, e.ts_ns});
      }
    }
  }
  for (auto& [window, sites] : chains) {
    std::sort(sites.begin(), sites.end(),
              [](const Site& a, const Site& b) { return a.ts_ns < b.ts_ns; });
    if (sites.size() < 2) continue;
    for (std::size_t k = 0; k < sites.size(); ++k) {
      const char* ph = k == 0 ? "s" : (k + 1 == sites.size() ? "f" : "t");
      os << ",{\"name\":\"window\",\"cat\":\"window\",\"ph\":\"" << ph
         << "\",\"id\":" << window << ",\"ts\":" << us(sites[k].ts_ns)
         << ",\"pid\":" << sites[k].pid << ",\"tid\":" << sites[k].tid;
      if (*ph == 'f') os << ",\"bp\":\"e\"";
      os << "}";
    }
  }
  os << "],\"displayTimeUnit\":\"ms\"";
  if (!other.empty()) os << ",\"otherData\":{" << other << "}";
  os << "}\n";
}

} // namespace

void write_chrome_json(const Capture& cap, std::ostream& os) {
  write_chrome({{"vwr2a", &cap}},
               "\"dropped\":" + std::to_string(cap.dropped) +
                   ",\"threads\":" + std::to_string(cap.threads),
               os);
}

void write_chrome_json_merged(
    const std::vector<std::pair<std::string, const Capture*>>& procs,
    std::ostream& os) {
  write_chrome(procs, "", os);
}

std::vector<WindowChain> analyze_windows(const Capture& cap) {
  std::map<std::uint64_t, WindowChain> by_window;
  for (std::size_t i = 0; i < cap.events.size(); ++i) {
    const Capture::Ev& e = cap.events[i];
    if (e.window == 0) continue;
    WindowChain& c = by_window[e.window];
    c.window = e.window;
    c.events.push_back(i);
    const std::string& n = cap.name_of(e);
    if (n == "window.slice") c.has_slice = true;
    else if (n == "window.place") { c.has_place = true; c.place_ns += e.dur_ns; }
    else if (n == "window.queue" || n == "remote.queue") {
      c.has_queue = true;
      c.queue_ns += e.dur_ns;
    } else if (n == "device.run" || n == "remote.run") {
      c.has_run = true;
      c.run_ns += e.dur_ns;
      c.run_cycles += e.sim_dur;
    } else if (n == "window.complete") c.has_complete = true;
    else if (n == "window.deliver" || n == "remote.deliver") {
      c.has_deliver = true;
      c.deliver_ns += e.dur_ns;
    }
  }
  // "push" is not window-bound (one push feeds many windows): credit a
  // chain when a session.push/session.flush span on the slice's thread
  // encloses the slice's begin timestamp.
  struct PushSpan { std::uint32_t tid; std::uint64_t b, e; };
  std::vector<PushSpan> pushes;
  for (const Capture::Ev& e : cap.events) {
    const std::string& n = cap.name_of(e);
    if (n == "session.push" || n == "session.flush") {
      pushes.push_back({e.tid, e.ts_ns, e.ts_ns + e.dur_ns});
    }
  }
  std::vector<WindowChain> out;
  out.reserve(by_window.size());
  for (auto& [window, c] : by_window) {
    std::sort(c.events.begin(), c.events.end(),
              [&](std::size_t a, std::size_t b) {
                return cap.events[a].ts_ns < cap.events[b].ts_ns;
              });
    std::set<std::uint32_t> tids;
    for (std::size_t i : c.events) tids.insert(cap.events[i].tid);
    c.distinct_tids = static_cast<std::uint32_t>(tids.size());
    for (std::size_t i : c.events) {
      const Capture::Ev& e = cap.events[i];
      if (cap.name_of(e) != "window.slice") continue;
      for (const PushSpan& p : pushes) {
        if (p.tid == e.tid && p.b <= e.ts_ns && e.ts_ns <= p.e) {
          c.has_push = true;
          break;
        }
      }
    }
    out.push_back(std::move(c));
  }
  return out;
}

} // namespace vwr2a::obs
