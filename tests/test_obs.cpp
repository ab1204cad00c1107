// Flight recorder and metrics registry: counter exactness under concurrent
// recorders, histogram quantile bounds, Prometheus exposition, the
// disabled-mode no-op guarantees, ring-buffer drop-oldest semantics with
// exact drop accounting, capture save/load round-trips, byte layout and
// truncation rejection, Chrome JSON export, and -- the end-to-end gate --
// cross-thread window-chain reconstruction under 8 concurrent gateway-style
// sessions.
//
// Tests here mutate the process-wide obs flags; each one that enables
// metrics/tracing restores the disabled default and resets the singletons
// on exit so test order never matters.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "dsp/signal.hpp"
#include "fuzz_util.hpp"
#include "obs/capture.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "stream/server.hpp"

namespace vwr2a::obs {
namespace {

/// Enables the requested features for one test and restores the disabled
/// default (plus clean singletons) afterwards.
struct ObsScope {
  explicit ObsScope(bool metrics, bool tracing) {
    Registry::get().reset();
    Tracer::get().reset();
    set_metrics(metrics);
    set_tracing(tracing);
  }
  ~ObsScope() {
    set_metrics(false);
    set_tracing(false);
    Registry::get().reset();
    Tracer::get().reset();
  }
};

TEST(ObsMetrics, CounterIsExactAcrossEightThreads) {
  ObsScope scope(true, false);
  Counter& c = Registry::get().counter("test.exact");
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kAddsPerThread = 50000;
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < kThreads; ++t) {
    ts.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kAddsPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.value(), kThreads * kAddsPerThread);
}

TEST(ObsMetrics, HistogramQuantileNeverUnderstates) {
  ObsScope scope(true, false);
  Histogram& h = Registry::get().histogram("test.quantile");
  // 1..1000 uniformly: p50's true value is 500, p99's is 990. The
  // log-bucketed estimate reports the bucket's inclusive upper bound, so
  // it must be >= the true value and within the 12.5% bucket resolution.
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.sum(), 500500u);
  const std::uint64_t p50 = h.quantile(0.50);
  const std::uint64_t p99 = h.quantile(0.99);
  EXPECT_GE(p50, 500u);
  EXPECT_LE(p50, 500u + 500u / 8 + 1);
  EXPECT_GE(p99, 990u);
  EXPECT_LE(p99, 990u + 990u / 8 + 1);
  // Exact small-value buckets: a histogram of {0..7} reports exactly.
  Histogram& small = Registry::get().histogram("test.quantile_small");
  for (std::uint64_t v = 0; v < 8; ++v) small.record(v);
  EXPECT_EQ(small.quantile(0.0), 0u);
  EXPECT_EQ(small.quantile(1.0), 7u);
}

TEST(ObsMetrics, HistogramBucketBoundsArePerBucketInvariants) {
  // Every value lands in a bucket whose inclusive upper bound is >= the
  // value and less than 25% above it (exact below 8; the worst case is a
  // value just past a power of two, where the bucket spans value/4).
  for (std::uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull, 1000ull,
                          (1ull << 32) + 12345ull, ~0ull}) {
    const std::size_t b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kBuckets);
    const std::uint64_t hi = Histogram::bucket_upper(b);
    EXPECT_GE(hi, v);
    if (v >= 8 && hi != ~0ull) {
      EXPECT_LT(static_cast<double>(hi - v), static_cast<double>(v) * 0.25);
    }
  }
}

TEST(ObsMetrics, PrometheusDumpSanitizesAndSummarizes) {
  ObsScope scope(true, false);
  Registry::get().counter("session.3.windows_delivered").add(7);
  Registry::get().gauge("completer.queue_depth").set(-2);
  Histogram& h = Registry::get().histogram("session.latency_cycles");
  h.record(100);
  h.record(200);
  const std::string dump = Registry::get().dump_prometheus();
  EXPECT_NE(dump.find("session_3_windows_delivered 7"), std::string::npos);
  EXPECT_NE(dump.find("completer_queue_depth -2"), std::string::npos);
  EXPECT_NE(dump.find("session_latency_cycles_count 2"), std::string::npos);
  EXPECT_NE(dump.find("session_latency_cycles_sum 300"), std::string::npos);
  EXPECT_NE(dump.find("quantile=\"0.5\""), std::string::npos);
  EXPECT_EQ(dump.find("session.3"), std::string::npos);  // dots sanitized
}

TEST(ObsMetrics, HistogramQuantileEdgeCases) {
  ObsScope scope(true, false);
  // Empty histogram: every quantile is the documented 0, not a crash or a
  // bucket bound.
  Histogram& empty = Registry::get().histogram("test.empty");
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.quantile(0.0), 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_EQ(empty.quantile(1.0), 0u);
  // Single sample: every quantile collapses to that sample's bucket bound
  // (exact for small values, never understating for large ones).
  Histogram& one = Registry::get().histogram("test.single");
  one.record(5);
  for (double p : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(one.quantile(p), 5u) << "p=" << p;
  }
  Histogram& big = Registry::get().histogram("test.single_big");
  big.record(1000);
  EXPECT_GE(big.quantile(0.5), 1000u);
  // Reset brings the quantiles back to the empty answer.
  one.reset();
  EXPECT_EQ(one.count(), 0u);
  EXPECT_EQ(one.quantile(0.5), 0u);
}

TEST(ObsMetrics, PrometheusDumpSurvivesHostileNames) {
  ObsScope scope(true, false);
  // Metric names flow in from wire-visible strings (tenant tags, session
  // labels); everything outside [a-zA-Z0-9_:] must be sanitized and the
  // dump must stay line-structured (no injected newlines or HELP forgery).
  Registry::get().counter("evil\nfake_metric 999").add(1);
  Registry::get().counter("spaced name{label=\"x\"}").add(2);
  Registry::get().counter("dash-dot.mix-9").add(3);
  const std::string dump = Registry::get().dump_prometheus();
  // No raw hostile bytes survive.
  EXPECT_EQ(dump.find("evil\nfake"), std::string::npos);
  EXPECT_EQ(dump.find("fake_metric 999 1"), std::string::npos);
  EXPECT_EQ(dump.find("spaced name"), std::string::npos);
  EXPECT_EQ(dump.find("{label"), std::string::npos);
  EXPECT_NE(dump.find("dash_dot_mix_9 3"), std::string::npos);
  // Every non-comment line is exactly "name[ {...}] value".
  std::size_t start = 0;
  while (start < dump.size()) {
    std::size_t end = dump.find('\n', start);
    if (end == std::string::npos) end = dump.size();
    const std::string line = dump.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t sp = line.find(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    for (char ch : line.substr(0, sp)) {
      const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                      (ch >= '0' && ch <= '9') || ch == '_' || ch == ':' ||
                      ch == '{' || ch == '}' || ch == '=' || ch == '"' ||
                      ch == '.' || ch == ',';
      EXPECT_TRUE(ok) << "hostile char '" << ch << "' in: " << line;
    }
  }
}

TEST(ObsMetrics, ResetRacingAddStaysInBounds) {
  ObsScope scope(true, false);
  // reset() may race concurrent add()s: the contract is no torn counts and
  // a final value that only reflects post-reset adds that the reset did
  // not consume -- i.e. somewhere in [0, kAdds]. TSan builds of this test
  // are the data-race gate; the bounds check is meaningful everywhere.
  Counter& c = Registry::get().counter("test.reset_race");
  Histogram& h = Registry::get().histogram("test.reset_race_hist");
  constexpr std::uint64_t kAdds = 20000;
  std::thread adder([&c, &h] {
    for (std::uint64_t i = 0; i < kAdds; ++i) {
      c.add(1);
      h.record(i & 1023);
    }
  });
  for (int r = 0; r < 50; ++r) {
    c.reset();
    h.reset();
    EXPECT_LE(c.value(), kAdds);
    EXPECT_LE(h.count(), kAdds);
  }
  adder.join();
  EXPECT_LE(c.value(), kAdds);
  EXPECT_LE(h.count(), kAdds);
  // Quantile on a histogram that was reset mid-stream still answers from
  // whatever landed after the last reset.
  const std::uint64_t q = h.quantile(0.5);
  EXPECT_LE(q, 1023u + 1023u / 8 + 1);
}

TEST(ObsMetrics, DisabledModeRecordsNothingThroughTheSitePattern) {
  ObsScope scope(false, false);
  // The instrumentation-site pattern: guard, then record. With the guard
  // off the counter is never even registered.
  if (metrics_enabled()) {
    Registry::get().counter("test.should_not_exist").add(1);
  }
  for (const auto& e : Registry::get().entries()) {
    EXPECT_EQ(e.name.find("should_not_exist"), std::string::npos);
  }
  // Spans and instants are inert: nothing lands in any ring.
  const std::uint64_t before = Tracer::get().snapshot().events.size();
  {
    Span s("test.span", 42);
    instant("test.instant", 42);
  }
  EXPECT_EQ(Tracer::get().snapshot().events.size(), before);
}

TEST(ObsTrace, RingOverflowKeepsNewestAndCountsDropsExactly) {
  ObsScope scope(false, true);
  Tracer::get().set_ring_capacity(64);
  // A fresh thread gets the 64-slot ring; emit 200 events: the ring must
  // hold the newest 64 in order and report exactly 136 drops.
  std::thread t([] {
    for (std::uint64_t i = 0; i < 200; ++i) {
      instant("test.overflow", 0, i);
    }
  });
  t.join();
  const Tracer::Snapshot snap = Tracer::get().snapshot();
  std::vector<std::uint64_t> kept;
  for (const TraceEvent& e : snap.events) {
    if (std::string(e.name) == "test.overflow") kept.push_back(e.a1);
  }
  ASSERT_EQ(kept.size(), 64u);
  EXPECT_EQ(snap.dropped, 136u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i], 136 + i);  // oldest-to-newest, newest 64 survive
  }
  Tracer::get().set_ring_capacity(32768);  // restore the default
}

/// Rings fill lazily: the same ring snapshotted part-full, after it wraps,
/// and refilled after a reset must keep drop-oldest order and exact drops.
TEST(ObsTrace, LazyRingSnapshotsBeforeFillAndAfterWrap) {
  ObsScope scope(false, true);
  Tracer::get().set_ring_capacity(64);
  auto overflow_values = [](const Tracer::Snapshot& snap) {
    std::vector<std::uint64_t> v;
    for (const TraceEvent& e : snap.events) {
      if (std::string(e.name) == "test.lazy") v.push_back(e.a1);
    }
    return v;
  };
  Tracer::Snapshot part, wrapped, refilled;
  std::thread t([&] {
    for (std::uint64_t i = 0; i < 40; ++i) instant("test.lazy", 0, i);
    part = Tracer::get().snapshot();
    for (std::uint64_t i = 40; i < 100; ++i) instant("test.lazy", 0, i);
    wrapped = Tracer::get().snapshot();
    Tracer::get().reset();
    for (std::uint64_t i = 0; i < 10; ++i) instant("test.lazy", 0, 1000 + i);
    refilled = Tracer::get().snapshot();
  });
  t.join();

  const std::vector<std::uint64_t> p = overflow_values(part);
  ASSERT_EQ(p.size(), 40u);
  EXPECT_EQ(part.dropped, 0u);
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], i);

  const std::vector<std::uint64_t> w = overflow_values(wrapped);
  ASSERT_EQ(w.size(), 64u);
  EXPECT_EQ(wrapped.dropped, 36u);
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(w[i], 36 + i);

  // After a reset the full-size buffer is overwritten from slot 0 again.
  const std::vector<std::uint64_t> r = overflow_values(refilled);
  ASSERT_EQ(r.size(), 10u);
  EXPECT_EQ(refilled.dropped, 0u);
  for (std::size_t i = 0; i < r.size(); ++i) EXPECT_EQ(r[i], 1000 + i);
  Tracer::get().set_ring_capacity(32768);  // restore the default
}

/// Rings of exited threads fold into one retired ring of the same event
/// capacity: drop-oldest across the threads, exact drops, tids kept, and
/// the dead threads' chunks freed.
TEST(ObsTrace, ExitedThreadRingsFoldIntoOneBoundedRetiredRing) {
  ObsScope scope(false, true);
  Tracer::get().set_ring_capacity(64);
  constexpr unsigned kThreads = 16;
  using TidSeq = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  for (const std::uint64_t per_thread : {std::uint64_t{100}, std::uint64_t{10}}) {
    Tracer::get().reset();
    // Each thread emits per_thread events (a1 = its sequence number) and
    // exits before the next one starts, so fold order is thread order.
    TidSeq emitted;
    for (unsigned t = 0; t < kThreads; ++t) {
      std::thread th([&emitted, per_thread] {
        for (std::uint64_t i = 0; i < per_thread; ++i) {
          instant("test.retired", 0, i);
          emitted.emplace_back(thread_slot(), i);
        }
      });
      th.join();
    }
    const Tracer::Snapshot snap = Tracer::get().snapshot();
    TidSeq kept;
    for (const TraceEvent& e : snap.events) kept.emplace_back(e.tid, e.a1);
    EXPECT_EQ(kept, TidSeq(emitted.end() - 64, emitted.end()))
        << per_thread << " events per thread";
    EXPECT_EQ(snap.dropped, kThreads * per_thread - 64);
    EXPECT_EQ(snap.threads, kThreads);
    // Only the retired ring holds chunks: 64 records fit one 4 KiB chunk,
    // plus at most one it is writing into and one spare.
    EXPECT_LE(Tracer::get().ring_bytes(), 3u * 4096);
  }
  Tracer::get().set_ring_capacity(32768);  // restore the default
}

/// Sizes the compact records on one gateway window's span mix (the
/// taxonomy in docs/observability.md plus the in-process client's remote.*
/// spans, argument values shaped like the real sites) for 10,000 windows:
/// the ring wraps, and its chunk bytes per retained event stay within the
/// recorder's memory budget (a real gateway run averages 13.7 B).
TEST(ObsTrace, GatewayWindowMixStaysWithinTwentyFourBytesPerEvent) {
  ObsScope scope(false, true);
  constexpr std::uint64_t kWindows = 10000;
  std::size_t bytes = 0;
  std::size_t retained = 0;
  std::thread t([&] {
    Rng rng(2301);
    std::uint64_t sim_clock[16] = {};
    for (std::uint64_t w = 0; w < kWindows; ++w) {
      const std::uint64_t session = w % 64;
      const std::uint64_t wid = window_id(session, w / 64);
      const std::uint64_t dev = rng.next_below(16);
      const std::uint64_t cycles = 20000 + rng.next_below(30000);
      const std::uint64_t ts = now_ns();
      for (int chunk = 0; chunk < 2; ++chunk) {
        complete("gateway.frame", 0, ts + 1000 * chunk,
                 2000 + rng.next_below(8000), 3);
        complete("session.push", 0, ts + 1000 * chunk + 300,
                 1000 + rng.next_below(4000), session, 256);
      }
      complete("window.slice", wid, ts + 2500, 3000 + rng.next_below(6000),
               session, w / 64);
      instant("window.place", wid, dev, cycles, sim_clock[dev] + cycles);
      complete("window.queue", wid, ts + 6000, 5000 + rng.next_below(60000),
               dev);
      complete("device.stage", 0, ts + 70000, 2000 + rng.next_below(3000),
               dev, 512);
      TraceEvent run;
      run.name = "device.run";
      run.window = wid;
      run.ts_ns = ts + 70000;
      run.dur_ns = 40000 + rng.next_below(80000);
      run.sim_begin = sim_clock[dev];
      run.sim_dur = cycles;
      run.a1 = dev;
      run.a3 = 1;
      Tracer::get().emit(run);
      sim_clock[dev] += cycles;
      complete("window.complete", wid, ts + 150000, 500 + rng.next_below(2000),
               session);
      complete("window.deliver", wid, ts + 152000, 1000 + rng.next_below(5000),
               session, 1);
      // The in-process client's spans rebuilt from the WINDOW_RESULT
      // breakdown (gateway/client.cpp).
      complete("remote.queue", wid, ts + 6000, 5000 + rng.next_below(60000),
               dev, cycles);
      TraceEvent remote = run;
      remote.name = "remote.run";
      remote.a3 = 0;
      Tracer::get().emit(remote);
      complete("remote.deliver", wid, ts + 152000, 1000 + rng.next_below(5000),
               dev);
    }
    bytes = Tracer::get().ring_bytes();
    retained = Tracer::get().snapshot().events.size();
  });
  t.join();
  ASSERT_EQ(retained, 32768u);  // the default capacity, wrapped
  const double per_event =
      static_cast<double>(bytes) / static_cast<double>(retained);
  RecordProperty("bytes_per_event", std::to_string(per_event));
  EXPECT_LE(per_event, 24.0);
  Tracer::get().reset();
  EXPECT_EQ(Tracer::get().ring_bytes(), 0u);
}

void expect_same_event(const TraceEvent& got, const TraceEvent& want,
                       std::size_t i) {
  EXPECT_EQ(got.name, want.name) << "event " << i;
  EXPECT_EQ(got.ts_ns, want.ts_ns) << "event " << i;
  EXPECT_EQ(got.dur_ns, want.dur_ns) << "event " << i;
  EXPECT_EQ(got.window, want.window) << "event " << i;
  EXPECT_EQ(got.sim_begin, want.sim_begin) << "event " << i;
  EXPECT_EQ(got.sim_dur, want.sim_dur) << "event " << i;
  EXPECT_EQ(got.a1, want.a1) << "event " << i;
  EXPECT_EQ(got.a2, want.a2) << "event " << i;
  EXPECT_EQ(got.a3, want.a3) << "event " << i;
  EXPECT_EQ(got.tid, want.tid) << "event " << i;
  EXPECT_EQ(got.kind, want.kind) << "event " << i;
}

void expect_same_events(const std::vector<TraceEvent>& got,
                        const std::vector<TraceEvent>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_same_event(got[i], want[i], i);
  }
}

/// Seeded random events through the compact records: every field at 0,
/// small and 2^64-1, ts_ns going backwards, kinds beyond 0/1, 320 names
/// (multi-byte name indices), records of 3 to ~90 bytes so many straddle
/// chunk ends, a ring that wraps, a reset, and the retired ring after the
/// thread exits. The snapshot must equal what was emitted, and a capture
/// of it must round-trip through disk.
TEST(ObsTrace, CompactRecordsRoundTripLosslessly) {
  ObsScope scope(false, true);
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (int i = 0; i < 320; ++i) v.push_back("test.lossless." + std::to_string(i));
    return v;
  }();
  constexpr std::size_t kCap = 1000;
  Tracer::get().set_ring_capacity(kCap);
  Rng rng(23);
  auto value = [&rng]() -> std::uint64_t {
    switch (rng.next_below(5)) {
      case 0: return 0;
      case 1: return rng.next_below(200);
      case 2: return ~std::uint64_t{0};
      case 3: return rng.next_u64() >> rng.next_below(64);
      default: return rng.next_u64();
    }
  };
  std::uint64_t ts = 1'000'000'000;
  auto random_event = [&](std::uint32_t tid) {
    TraceEvent e;
    e.name = names[rng.next_below(names.size())].c_str();
    // Mostly forward, sometimes backwards (complete() stamps begin times
    // that predate the previous event), sometimes a far jump.
    const std::uint32_t step = rng.next_below(10);
    if (step < 6) ts += rng.next_below(100000);
    else if (step < 9) ts -= rng.next_below(100000);
    else ts = value() | 1;  // emit() stamps a 0 ts with now
    e.ts_ns = ts;
    for (std::uint64_t* f : {&e.dur_ns, &e.window, &e.sim_begin, &e.sim_dur,
                             &e.a1, &e.a2, &e.a3}) {
      *f = value();
    }
    const std::uint8_t kinds[] = {0, 1, 2, 255};
    e.kind = kinds[rng.next_below(4)];
    e.tid = tid;
    return e;
  };

  std::vector<TraceEvent> wrapped_want, refilled_want;
  Tracer::Snapshot wrapped, refilled;
  std::thread t([&] {
    const std::uint32_t tid = thread_slot();
    std::vector<TraceEvent> emitted;
    for (int i = 0; i < 5000; ++i) {
      emitted.push_back(random_event(tid));
      Tracer::get().emit(emitted.back());
    }
    wrapped_want.assign(emitted.end() - kCap, emitted.end());
    wrapped = Tracer::get().snapshot();
    Tracer::get().reset();
    for (int i = 0; i < 700; ++i) {
      refilled_want.push_back(random_event(tid));
      Tracer::get().emit(refilled_want.back());
    }
    refilled = Tracer::get().snapshot();
  });
  t.join();
  expect_same_events(wrapped.events, wrapped_want);
  EXPECT_EQ(wrapped.dropped, 5000u - kCap);
  expect_same_events(refilled.events, refilled_want);
  EXPECT_EQ(refilled.dropped, 0u);

  // The exited thread's records now live in the retired ring, which
  // carries each record's tid.
  const Tracer::Snapshot retired = Tracer::get().snapshot();
  expect_same_events(retired.events, refilled_want);
  EXPECT_EQ(retired.threads, 1u);

  const std::string path = ::testing::TempDir() + "obs_lossless.vwr2trc";
  std::string why;
  ASSERT_TRUE(save_capture(wrapped, path, &why)) << why;
  Capture cap;
  ASSERT_TRUE(load_capture(path, &cap, &why)) << why;
  std::remove(path.c_str());
  const Capture want = to_capture(wrapped);
  EXPECT_EQ(cap.names, want.names);
  EXPECT_EQ(cap.dropped, want.dropped);
  ASSERT_EQ(cap.events.size(), want.events.size());
  for (std::size_t i = 0; i < cap.events.size(); ++i) {
    const Capture::Ev& a = cap.events[i];
    const Capture::Ev& b = want.events[i];
    EXPECT_TRUE(a.name == b.name && a.tid == b.tid && a.kind == b.kind &&
                a.ts_ns == b.ts_ns && a.dur_ns == b.dur_ns &&
                a.window == b.window && a.sim_begin == b.sim_begin &&
                a.sim_dur == b.sim_dur && a.a1 == b.a1 && a.a2 == b.a2 &&
                a.a3 == b.a3)
        << "capture event " << i;
  }
  Tracer::get().set_ring_capacity(32768);  // restore the default
}

/// A snapshot loop races four threads emitting past capacity: every
/// snapshot sees each thread's newest events as one consecutive run, never
/// more than the capacity, and the final snapshot accounts for every event.
TEST(ObsTrace, SnapshotsRaceEmittersPastCapacity) {
  ObsScope scope(false, true);
  constexpr std::size_t kCap = 256;
  constexpr unsigned kEmitters = 4;
  constexpr std::uint64_t kEach = 20000;
  Tracer::get().set_ring_capacity(kCap);
  std::atomic<unsigned> done{0};
  std::vector<std::thread> emitters;
  for (unsigned t = 0; t < kEmitters; ++t) {
    emitters.emplace_back([&done] {
      for (std::uint64_t i = 0; i < kEach; ++i) {
        complete("test.race", 0, 1 + i * 3, i & 7, i);
      }
      done.fetch_add(1);
    });
  }
  unsigned snapshots = 0;
  do {
    const Tracer::Snapshot snap = Tracer::get().snapshot();
    ++snapshots;
    std::map<std::uint32_t, std::vector<std::uint64_t>> by_tid;
    for (const TraceEvent& e : snap.events) {
      if (std::string(e.name) == "test.race") by_tid[e.tid].push_back(e.a1);
    }
    for (const auto& [tid, seq] : by_tid) {
      ASSERT_LE(seq.size(), kCap);
      for (std::size_t i = 1; i < seq.size(); ++i) {
        ASSERT_EQ(seq[i], seq[i - 1] + 1) << "tid " << tid;
      }
    }
    EXPECT_LE(snap.events.size() + snap.dropped, kEmitters * kEach);
  } while (done.load() < kEmitters);
  for (auto& t : emitters) t.join();
  EXPECT_GT(snapshots, 0u);
  const Tracer::Snapshot end = Tracer::get().snapshot();
  EXPECT_EQ(end.events.size(), kCap);  // all four folded into the retired ring
  EXPECT_EQ(end.events.size() + end.dropped, kEmitters * kEach);
  Tracer::get().set_ring_capacity(32768);  // restore the default
}

TEST(ObsTrace, CaptureRoundTripsThroughDisk) {
  ObsScope scope(false, true);
  std::thread t([] {
    instant("test.rt_a", window_id(1, 2), 11, 22, 33);
    Span s("test.rt_b", window_id(1, 3));
    s.set_sim(1000, 250);
  });
  t.join();
  const std::string path = ::testing::TempDir() + "obs_roundtrip.vwr2trc";
  std::string why;
  ASSERT_TRUE(Tracer::get().save(path, &why)) << why;
  Capture cap;
  ASSERT_TRUE(load_capture(path, &cap, &why)) << why;
  std::remove(path.c_str());
  ASSERT_EQ(cap.events.size(), 2u);
  const auto& a = cap.events[0];
  const auto& b = cap.events[1];
  EXPECT_EQ(cap.name_of(a), "test.rt_a");
  EXPECT_EQ(a.kind, 1);
  EXPECT_EQ(a.window, window_id(1, 2));
  EXPECT_EQ(a.a1, 11u);
  EXPECT_EQ(a.a3, 33u);
  EXPECT_EQ(cap.name_of(b), "test.rt_b");
  EXPECT_EQ(b.kind, 0);
  EXPECT_EQ(b.sim_begin, 1000u);
  EXPECT_EQ(b.sim_dur, 250u);
  EXPECT_EQ(a.tid, b.tid);

  // Truncated files are rejected, not crashed on.
  const std::string trunc = ::testing::TempDir() + "obs_trunc.vwr2trc";
  ASSERT_TRUE(Tracer::get().save(trunc, &why)) << why;
  {
    std::FILE* f = std::fopen(trunc.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    ASSERT_EQ(std::fclose(f), 0);
    ASSERT_EQ(truncate(trunc.c_str(), size - 7), 0);
  }
  Capture bad;
  EXPECT_FALSE(load_capture(trunc, &bad, &why));
  std::remove(trunc.c_str());
}

/// A hand-built snapshot with deterministic bytes: two names, two spans and
/// an instant, every field distinct.
Tracer::Snapshot tiny_snapshot() {
  Tracer::Snapshot snap;
  snap.dropped = 5;
  snap.threads = 2;
  TraceEvent span;
  span.name = "test.span";
  span.ts_ns = 100;
  span.dur_ns = 20;
  span.window = window_id(3, 4);
  span.sim_begin = 7000;
  span.sim_dur = 250;
  span.a1 = 11;
  span.a2 = 12;
  span.a3 = 13;
  span.tid = 1;
  TraceEvent inst;
  inst.name = "test.instant";
  inst.ts_ns = 130;
  inst.a1 = 0xFFFFFFFFFFFFFFFFull;
  inst.tid = 2;
  inst.kind = 1;
  TraceEvent later = span;
  later.ts_ns = 160;
  snap.events = {span, inst, later};
  return snap;
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

TEST(ObsTrace, CaptureBytesFollowTheDocumentedLayout) {
  const std::string path = ::testing::TempDir() + "obs_layout.vwr2trc";
  const Tracer::Snapshot snap = tiny_snapshot();
  std::string why;
  ASSERT_TRUE(save_capture(snap, path, &why)) << why;
  const std::vector<std::uint8_t> got = read_bytes(path);
  std::remove(path.c_str());

  // Expected bytes, spelled out from the format comment in obs/capture.hpp
  // without going through the codec the writer uses.
  std::vector<std::uint8_t> want;
  auto le = [&want](std::uint64_t v, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      want.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  for (char c : std::string("VWR2ATRC")) {
    want.push_back(static_cast<std::uint8_t>(c));
  }
  le(1, 4);  // format version
  le(snap.threads, 4);
  le(snap.dropped, 8);
  le(2, 4);  // names, in first-use order
  for (const char* n : {"test.span", "test.instant"}) {
    le(std::strlen(n), 4);
    want.insert(want.end(), n, n + std::strlen(n));
  }
  le(snap.events.size(), 8);
  const std::uint32_t name_index[] = {0, 1, 0};
  for (std::size_t i = 0; i < snap.events.size(); ++i) {
    const TraceEvent& e = snap.events[i];
    le(name_index[i], 4);
    le(e.tid, 4);
    le(e.kind, 1);
    for (std::uint64_t v : {e.ts_ns, e.dur_ns, e.window, e.sim_begin,
                            e.sim_dur, e.a1, e.a2, e.a3}) {
      le(v, 8);
    }
  }
  EXPECT_EQ(got, want);
}

/// Every proper prefix of a capture, and the capture plus one trailing
/// byte, fails decode_capture with a reason -- never an accept, an
/// exception or an over-read -- and the full file still loads.
TEST(ObsTrace, EveryCaptureTruncationRejectsCleanly) {
  const std::string path = ::testing::TempDir() + "obs_sweep.vwr2trc";
  std::string why;
  ASSERT_TRUE(save_capture(tiny_snapshot(), path, &why)) << why;
  const std::vector<std::uint8_t> good = read_bytes(path);
  ASSERT_GT(good.size(), 0u);

  fuzz::truncations(good, {.head = good.size()},
                    [](const fuzz::Bytes& bad, const std::string& label) {
                      fuzz::check(fuzz::capture, fuzz::Policy::kRejectAll,
                                  bad, label);
                    });

  Capture cap;
  ASSERT_TRUE(load_capture(path, &cap, &why)) << why;
  std::remove(path.c_str());
  ASSERT_EQ(cap.events.size(), 3u);
  EXPECT_EQ(cap.name_of(cap.events[1]), "test.instant");
  EXPECT_EQ(cap.events[1].a1, 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(cap.events[2].ts_ns, 160u);
  EXPECT_EQ(cap.dropped, 5u);
  EXPECT_EQ(cap.threads, 2u);
}

TEST(ObsTrace, ChromeJsonCarriesSpansInstantsAndFlows) {
  ObsScope scope(false, true);
  std::thread t([] {
    complete("test.cj_span", window_id(2, 0), now_ns() - 1000, 1000, 5);
    instant("test.cj_instant", window_id(2, 0));
    complete("test.cj_span", window_id(2, 0), now_ns(), 500);
  });
  t.join();
  const Capture cap = to_capture(Tracer::get().snapshot());
  std::ostringstream os;
  write_chrome_json(cap, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);  // flow start
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);  // flow finish
  EXPECT_NE(json.find("test.cj_span"), std::string::npos);
}

TEST(ObsTrace, WindowIdPacksSessionAndIndex) {
  EXPECT_EQ(window_session(window_id(0, 0)), 0u);
  EXPECT_EQ(window_index(window_id(0, 0)), 0u);
  EXPECT_EQ(window_session(window_id(41, 1234)), 41u);
  EXPECT_EQ(window_index(window_id(41, 1234)), 1234u);
  EXPECT_NE(window_id(0, 1), window_id(1, 0));
}

TEST(ObsTrace, EightConcurrentSessionsChainAcrossThreads) {
  // The tentpole gate at test scale: 8 producer threads stream windows
  // through a StreamServer with completion lanes while tracing records.
  // Every window's chain must reconstruct completely (push -> slice ->
  // place -> queue -> run -> complete -> deliver), cross >= 3 distinct
  // threads (producer, pool worker, delivery lane), and the summed
  // device.run simulated cycles must equal the sessions' accounted
  // latency_cycles_total -- the tracer and the session counters observe
  // the same simulation.
  ObsScope scope(false, true);
  constexpr unsigned kSessions = 8;
  constexpr unsigned kWindowsPerSession = 3;

  std::vector<stream::SessionStats> session_stats;
  {
    stream::StreamServer::Config cfg;
    cfg.pool.devices = 4;
    cfg.completion_threads = 2;
    for (unsigned d = 0; d < 4; ++d) {
      cfg.pool.device_arch.push_back(
          soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache});
    }
    stream::StreamServer server(cfg);
    std::vector<stream::Session*> sessions;
    for (unsigned i = 0; i < kSessions; ++i) {
      stream::SessionConfig scfg;
      if (i % 2 == 1) scfg.kind = stream::SessionKind::kPipeline;
      sessions.push_back(
          &server.open_session(scfg, [](const stream::WindowResult&) {}));
    }
    std::vector<std::thread> producers;
    for (unsigned i = 0; i < kSessions; ++i) {
      producers.emplace_back([&sessions, i] {
        dsp::RespirationParams p;
        p.breath_hz = 0.2 + 0.03 * i;
        Rng rng(7100 + i);
        const auto signal = dsp::respiration_q16_15(
            kWindowsPerSession * app::kWindow, p, rng);
        for (std::size_t off = 0; off < signal.size(); off += 256) {
          const std::size_t take =
              std::min<std::size_t>(256, signal.size() - off);
          sessions[i]->push(
              std::span<const std::int32_t>(signal).subspan(off, take));
        }
      });
    }
    for (auto& t : producers) t.join();
    server.finish();
    session_stats = server.peek_sessions();
  }

  const Capture cap = to_capture(Tracer::get().snapshot());
  EXPECT_EQ(cap.dropped, 0u);
  const std::vector<WindowChain> chains = analyze_windows(cap);
  ASSERT_EQ(chains.size(),
            std::size_t{kSessions} * kWindowsPerSession);

  std::set<std::uint64_t> sessions_seen;
  std::uint64_t traced_run_cycles = 0;
  for (const WindowChain& c : chains) {
    EXPECT_TRUE(c.complete())
        << "window " << c.window << ": push=" << c.has_push
        << " slice=" << c.has_slice << " place=" << c.has_place
        << " queue=" << c.has_queue << " run=" << c.has_run
        << " complete=" << c.has_complete << " deliver=" << c.has_deliver;
    EXPECT_GE(c.distinct_tids, 3u) << "window " << c.window;
    sessions_seen.insert(window_session(c.window));
    traced_run_cycles += c.run_cycles;
  }
  EXPECT_EQ(sessions_seen.size(), kSessions);

  std::uint64_t accounted_cycles = 0;
  for (const auto& s : session_stats) {
    accounted_cycles += s.latency_cycles_total;
  }
  EXPECT_EQ(traced_run_cycles, accounted_cycles);
}

} // namespace
} // namespace vwr2a::obs
