// Streaming session layer: windowing edge cases, per-session outputs
// bit-identical to an offline app::MBioTracker / dsp::reference run over
// the same samples, ordered delivery, fleet-shape invariance, and
// backpressure drop accounting.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "app/mbiotracker.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "stream/completer.hpp"
#include "stream/server.hpp"

namespace vwr2a::stream {
namespace {

/// A reproducible synthetic respiration stream in 16.15.
std::vector<std::int32_t> make_stream(std::size_t n, double breath_hz,
                                      unsigned seed) {
  dsp::RespirationParams p;
  p.breath_hz = breath_hz;
  Rng rng(seed);
  return dsp::respiration_q16_15(static_cast<unsigned>(n), p, rng);
}

/// The windows the stream layer must emit for `samples`: full windows every
/// `hop` samples, then the zero-padded tail (when flushed).
std::vector<std::vector<std::int32_t>> slice_windows(
    const std::vector<std::int32_t>& samples, unsigned window, unsigned hop,
    bool flush_tail) {
  std::vector<std::vector<std::int32_t>> out;
  std::size_t start = 0;
  while (start + window <= samples.size()) {
    out.emplace_back(samples.begin() + start, samples.begin() + start + window);
    start += hop;
  }
  if (flush_tail && start < samples.size()) {
    std::vector<std::int32_t> tail(samples.begin() + start, samples.end());
    tail.resize(window, 0);
    out.push_back(std::move(tail));
  }
  return out;
}

/// Offline golden for one BioTrackerJob window: a fresh platform + app,
/// exactly Device::run_bio's output word format.
std::vector<std::int32_t> offline_bio(const std::vector<std::int32_t>& wq) {
  soc::Platform plat;
  app::MBioTracker tracker(plat);
  tracker.init();
  std::vector<double> x(app::kWindow);
  for (unsigned i = 0; i < app::kWindow; ++i) x[i] = fx::from_q16_15(wq[i]);
  const app::AppResult a = tracker.run(app::Target::kCpuVwr2a, x);
  std::vector<std::int32_t> out;
  out.push_back(a.svm_class);
  out.push_back(static_cast<std::int32_t>(a.extrema));
  for (double f : a.feat.as_vector()) out.push_back(fx::to_q16_15(f));
  return out;
}

/// Offline golden for one PipelineJob window.
std::vector<std::int32_t> offline_pipeline(
    const std::vector<std::int32_t>& wq,
    const std::vector<std::int32_t>& taps) {
  const auto filt = dsp::fir_fx(wq, taps);
  std::vector<std::int32_t> out;
  out.push_back(dsp::energy_fx(filt));
  for (const dsp::CplxFx& b : dsp::rfft_fx(filt)) {
    out.push_back(b.re);
    out.push_back(b.im);
  }
  return out;
}

TEST(Windower, SlicesOverlappingWindowsAndTail) {
  Windower w(8, 4, 32);  // window 8, hop 4
  std::vector<std::int32_t> stream(19);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::int32_t>(i + 1);
  }
  // Push in awkward chunks: 5, 7, 7.
  w.push(std::span<const std::int32_t>(stream).subspan(0, 5));
  EXPECT_FALSE(w.has_window());
  w.push(std::span<const std::int32_t>(stream).subspan(5, 7));
  ASSERT_TRUE(w.has_window());
  w.push(std::span<const std::int32_t>(stream).subspan(12, 7));

  const auto want = slice_windows(stream, 8, 4, /*flush_tail=*/true);
  ASSERT_EQ(want.size(), 4u);  // starts 0, 4, 8, then tail at 12
  std::vector<std::vector<std::int32_t>> got;
  while (w.has_window()) got.push_back(w.pop_window());
  ASSERT_TRUE(w.has_tail());  // samples 16..18 were never covered
  got.push_back(w.pop_tail());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(w.has_tail());
  EXPECT_EQ(w.size(), 0u);
}

TEST(Windower, NoTailWhenHopLeftoversOnlyOverlap) {
  Windower w(8, 4, 32);
  std::vector<std::int32_t> stream(12);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::int32_t>(i);
  }
  w.push(stream);
  (void)w.pop_window();  // covers 0..7
  (void)w.pop_window();  // covers 4..11: everything is covered now
  EXPECT_EQ(w.size(), 4u);  // samples 8..11 buffered, but already emitted
  EXPECT_FALSE(w.has_tail());
}

TEST(Windower, SamplesAfterMidStreamFlushAreNotLost) {
  // A tail flush empties the ring; with hop < window the next segment must
  // NOT inherit the old window-hop overlap credit, or small late pushes
  // would never flush.
  Windower w(8, 4, 32);
  std::vector<std::int32_t> first(10, 1);
  w.push(first);
  (void)w.pop_window();        // covers 0..7
  ASSERT_TRUE(w.has_tail());   // samples 8..9
  (void)w.pop_tail();
  std::vector<std::int32_t> late(3, 2);  // fewer than window - hop samples
  w.push(late);
  ASSERT_TRUE(w.has_tail());   // nothing ever covered these
  const auto tail = w.pop_tail();
  const std::vector<std::int32_t> want = {2, 2, 2, 0, 0, 0, 0, 0};
  EXPECT_EQ(tail, want);
}

TEST(Windower, OverlappingViewsAliasOneSegment) {
  // The double-copy fix: with hop < window, consecutive windows are views
  // into ONE shared staging segment -- same allocation, offsets hop apart --
  // so the overlap region is staged once per segment, not once per window.
  Windower w(8, 4, 64);
  std::vector<std::int32_t> stream(24);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::int32_t>(100 + i);
  }
  w.push(stream);
  const WindowView v0 = w.pop_window_view();
  const WindowView v1 = w.pop_window_view();
  const WindowView v2 = w.pop_window_view();
  EXPECT_EQ(v0.segment.get(), v1.segment.get());
  EXPECT_EQ(v1.segment.get(), v2.segment.get());
  EXPECT_EQ(v1.offset, v0.offset + 4);
  EXPECT_EQ(v2.offset, v1.offset + 4);
  EXPECT_EQ(w.segments_staged(), 1u);
  // Views match the offline slicing bit for bit.
  const auto want = slice_windows(stream, 8, 4, /*flush_tail=*/false);
  EXPECT_EQ(v0.to_vector(8), want[0]);
  EXPECT_EQ(v1.to_vector(8), want[1]);
  EXPECT_EQ(v2.to_vector(8), want[2]);
}

TEST(Windower, SegmentRolloverRestagesLiveRegionOnce) {
  // Capacity 16, window 8, hop 4: after a few pops the fill index reaches
  // the end and the next push must start a new segment, carrying only the
  // live (unconsumed) region over. Emitted views keep the old segment
  // alive and unchanged.
  Windower w(8, 4, 16);
  std::vector<std::int32_t> stream(40);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::int32_t>(i);
  }
  const auto want = slice_windows(stream, 8, 4, /*flush_tail=*/false);
  std::vector<WindowView> views;
  std::size_t off = 0;
  while (off < stream.size()) {
    const std::size_t take =
        std::min<std::size_t>(w.free_space(), stream.size() - off);
    w.push(std::span<const std::int32_t>(stream).subspan(off, take));
    off += take;
    while (w.has_window()) views.push_back(w.pop_window_view());
  }
  EXPECT_GT(w.segments_staged(), 1u);
  ASSERT_GE(views.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(views[i].to_vector(8), want[i]) << "window " << i;
  }
}

TEST(StreamSession, OffsetJobsMatchExactBufferJobs) {
  // A PipelineJob reading at an offset of a larger shared segment must be
  // indistinguishable from the same window in its own exact-size buffer.
  Rng rng(606);
  std::vector<std::int32_t> big(1024 + 512);
  for (auto& v : big) v = fx::to_q16_15(rng.next_range(-0.4, 0.4));
  const auto taps = runtime::make_buffer(dsp::fir11_lowpass_q15());
  const unsigned off = 256;
  const auto seg = runtime::make_buffer(big);
  const auto exact = runtime::make_buffer(std::vector<std::int32_t>(
      big.begin() + off, big.begin() + off + 512));

  runtime::DevicePool pool;
  auto a = pool.submit({runtime::PipelineJob{512, taps, seg, off}, "view"}).get();
  auto b = pool.submit({runtime::PipelineJob{512, taps, exact, 0}, "copy"}).get();
  EXPECT_EQ(a.output, b.output);

  std::vector<std::int32_t> win(big.begin() + off,
                                big.begin() + off + app::kWindow);
  auto c = pool.submit({runtime::BioTrackerJob{app::Target::kCpuVwr2a, seg, off},
                        "bview"}).get();
  auto d = pool.submit({runtime::BioTrackerJob{app::Target::kCpuVwr2a,
                                               runtime::make_buffer(win), 0},
                        "bcopy"}).get();
  EXPECT_EQ(c.output, d.output);

  // Undersized views are rejected, not misread.
  EXPECT_THROW(
      pool.submit({runtime::PipelineJob{512, taps, exact, 256}, ""}).get(),
      HostError);
}

TEST(Windower, RejectsBadGeometry) {
  EXPECT_THROW(Windower(0, 1, 8), HostError);
  EXPECT_THROW(Windower(8, 0, 8), HostError);
  EXPECT_THROW(Windower(8, 9, 32), HostError);   // hop > window
  EXPECT_THROW(Windower(8, 4, 4), HostError);    // capacity < window
  Windower w(8, 8, 8);
  std::vector<std::int32_t> nine(9, 0);
  EXPECT_THROW(w.push(nine), HostError);
}

TEST(StreamSession, BioOutputsBitIdenticalToOfflineRun) {
  // One tenant on a 2-device server; the stream arrives in awkward chunk
  // sizes. Every delivered window must match an offline MBioTracker run on
  // the identical sample slice, in order.
  const auto samples = make_stream(3 * app::kWindow + 137, 0.25, 901);
  StreamServer::Config scfg;
  scfg.pool.devices = 2;
  StreamServer server(scfg);

  std::vector<WindowResult> delivered;
  Session& s = server.open_session(
      SessionConfig{}, [&](const WindowResult& r) { delivered.push_back(r); });

  std::size_t off = 0;
  unsigned chunk = 61;
  while (off < samples.size()) {
    const std::size_t take = std::min<std::size_t>(chunk, samples.size() - off);
    s.push(std::span<const std::int32_t>(samples).subspan(off, take));
    off += take;
    chunk = 37 + (chunk * 7) % 211;  // deterministic odd sizes
  }
  server.finish();

  const auto want =
      slice_windows(samples, app::kWindow, app::kWindow, /*flush_tail=*/true);
  ASSERT_EQ(delivered.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(delivered[i].index, i);  // ordered delivery
    EXPECT_EQ(delivered[i].job.output, offline_bio(want[i]));
  }
  const SessionStats st = s.stats();
  EXPECT_EQ(st.samples_in, samples.size());
  EXPECT_EQ(st.dropped_samples, 0u);
  EXPECT_EQ(st.windows_submitted, want.size());
  EXPECT_EQ(st.windows_delivered, want.size());
  EXPECT_GT(st.latency_cycles_max, 0u);
}

TEST(StreamSession, OverlappingWindowsMatchOfflineSlicing) {
  // hop < window: 50%-overlapped pipeline windows against the dsp golden.
  const unsigned kWin = 512, kHop = 256;
  const auto samples = make_stream(5 * kHop + 100, 0.4, 902);
  const auto taps = dsp::fir11_lowpass_q15();

  StreamServer server;
  SessionConfig cfg;
  cfg.kind = SessionKind::kPipeline;
  cfg.window = kWin;
  cfg.hop = kHop;
  std::vector<WindowResult> delivered;
  Session& s = server.open_session(
      cfg, [&](const WindowResult& r) { delivered.push_back(r); });
  s.push(samples);
  server.finish();

  const auto want = slice_windows(samples, kWin, kHop, /*flush_tail=*/true);
  ASSERT_EQ(delivered.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(delivered[i].index, i);
    EXPECT_EQ(delivered[i].job.output, offline_pipeline(want[i], taps));
  }
}

TEST(StreamServer, MultiTenantOrderedAndBitIdentical) {
  // 8 tenants (bio and pipeline mixed) on a 4-device heterogeneous fleet,
  // fed round-robin from one thread: per-session delivery must stay
  // ordered and every window must match its offline golden.
  constexpr unsigned kSessions = 8;
  const auto taps = dsp::fir11_lowpass_q15();

  StreamServer::Config scfg;
  scfg.pool.devices = 4;
  scfg.pool.device_arch = {soc::ArchConfig{},
                           soc::ArchConfig{.vwr_count = 2},
                           soc::ArchConfig{.vwr_count = 4},
                           soc::ArchConfig{.simd_width = 16}};
  StreamServer server(scfg);

  std::vector<std::vector<std::int32_t>> streams;
  std::map<std::uint64_t, std::vector<WindowResult>> delivered;
  std::vector<Session*> sessions;
  for (unsigned i = 0; i < kSessions; ++i) {
    streams.push_back(
        make_stream(2 * app::kWindow + 31 * i, 0.15 + 0.06 * i, 910 + i));
    SessionConfig cfg;
    if (i % 2 == 1) cfg.kind = SessionKind::kPipeline;
    sessions.push_back(&server.open_session(
        cfg, [&](const WindowResult& r) { delivered[r.session].push_back(r); }));
  }

  // Interleave pushes across tenants in fixed chunks.
  for (std::size_t off = 0; ; off += 97) {
    bool any = false;
    for (unsigned i = 0; i < kSessions; ++i) {
      if (off >= streams[i].size()) continue;
      const std::size_t take = std::min<std::size_t>(97, streams[i].size() - off);
      sessions[i]->push(
          std::span<const std::int32_t>(streams[i]).subspan(off, take));
      any = true;
    }
    if (!any) break;
  }
  server.finish();

  for (unsigned i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const auto want = slice_windows(streams[i], app::kWindow, app::kWindow,
                                    /*flush_tail=*/true);
    const auto& got = delivered[i];
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t w = 0; w < want.size(); ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      EXPECT_EQ(got[w].index, w);
      EXPECT_EQ(got[w].job.output, i % 2 == 1 ? offline_pipeline(want[w], taps)
                                              : offline_bio(want[w]));
      // Soft-pinning: every window of a session ran on its device.
      EXPECT_EQ(got[w].job.device, sessions[i]->device());
    }
  }
  const ServerStats st = server.stats();
  EXPECT_EQ(st.fleet.jobs_failed, 0u);
  EXPECT_GT(st.windows_per_sim_second(), 0.0);
  EXPECT_GT(st.fleet_occupancy(), 0.0);
}

TEST(StreamServer, DeliveredResultsInvariantToFleetShape) {
  // The same tenant streams on every fleet shape must deliver bit-identical
  // windows: worker threads, the replay engine and the device count change
  // where and how fast windows run, never what they compute. The reference
  // is one worker driving a 4-device mixed-architecture fleet with the
  // tuned runtime (shortest-local-clock placement, SPM residency, staging
  // dedup); each variant adds the identities its shape must keep.
  enum class Check {
    kPerWindow,     ///< same device and cost for every window
    kFleetTotals,   ///< same makespan, stagings and fleet energy
    kOutputsOnly,   ///< a different fleet: only the outputs must agree
    kSlowerBaseline ///< untuned runtime: strictly worse makespan/stagings
  };
  struct Shape {
    const char* name;
    Check check;
    unsigned workers = 1;
    unsigned devices = 4;
    cgra::ExecMode mode = cgra::ExecMode::kInterpret;
    bool tuned = true;
  };
  struct Run {
    std::map<std::uint64_t, std::vector<WindowResult>> delivered;
    runtime::FleetStats fleet;
  };
  auto run_shape = [](const Shape& shape) {
    StreamServer::Config scfg;
    scfg.pool.devices = shape.devices;
    scfg.pool.workers = shape.workers;
    if (!shape.tuned) {
      scfg.pool.schedule = runtime::Schedule::kRoundRobin;
      scfg.pool.device_opts.residency = false;
      scfg.pool.device_opts.dedup = false;
    }
    const soc::ArchConfig mix[] = {
        soc::ArchConfig{.exec_mode = shape.mode},
        soc::ArchConfig{.vwr_count = 2, .exec_mode = shape.mode},
        soc::ArchConfig{.vwr_count = 4, .exec_mode = shape.mode},
        soc::ArchConfig{.simd_width = 16, .exec_mode = shape.mode}};
    for (unsigned d = 0; d < shape.devices; ++d) {
      scfg.pool.device_arch.push_back(mix[d % 4]);
    }
    StreamServer server(scfg);
    Run run;
    std::vector<Session*> sessions;
    std::vector<std::vector<std::int32_t>> streams;
    for (unsigned i = 0; i < 6; ++i) {
      streams.push_back(make_stream(2 * app::kWindow + 101 * i,
                                    0.2 + 0.05 * i, 950 + i));
      SessionConfig cfg;
      if (i >= 4) cfg.kind = SessionKind::kPipeline;
      sessions.push_back(&server.open_session(cfg, [&](const WindowResult& r) {
        run.delivered[r.session].push_back(r);
      }));
    }
    for (unsigned i = 0; i < 6; ++i) sessions[i]->push(streams[i]);
    server.finish();
    run.fleet = server.stats().fleet;
    return run;
  };

  const Run base = run_shape({.name = "reference", .check = Check::kPerWindow});
  for (const Shape& shape :
       {Shape{.name = "4 workers", .check = Check::kPerWindow, .workers = 4},
        Shape{.name = "trace engine",
              .check = Check::kFleetTotals,
              .mode = cgra::ExecMode::kTraceCache},
        Shape{.name = "16 devices",
              .check = Check::kOutputsOnly,
              .devices = 16,
              .mode = cgra::ExecMode::kTraceCache},
        Shape{.name = "round-robin, no residency/dedup",
              .check = Check::kSlowerBaseline,
              .tuned = false}}) {
    SCOPED_TRACE(shape.name);
    const Run got = run_shape(shape);
    ASSERT_EQ(got.delivered.size(), base.delivered.size());
    for (const auto& [sid, results] : base.delivered) {
      SCOPED_TRACE("session " + std::to_string(sid));
      const auto& g = got.delivered.at(sid);
      ASSERT_EQ(g.size(), results.size());
      for (std::size_t w = 0; w < results.size(); ++w) {
        SCOPED_TRACE("window " + std::to_string(w));
        EXPECT_EQ(g[w].job.output, results[w].job.output);
        if (shape.check != Check::kPerWindow) continue;
        EXPECT_EQ(g[w].job.device, results[w].job.device);
        EXPECT_EQ(g[w].job.cost.cpu_cycles, results[w].job.cost.cpu_cycles);
        EXPECT_EQ(g[w].job.cost.vwr2a_cycles,
                  results[w].job.cost.vwr2a_cycles);
        EXPECT_EQ(g[w].job.cost.vwr2a_pj, results[w].job.cost.vwr2a_pj);
        EXPECT_EQ(g[w].job.cost.sys_pj, results[w].job.cost.sys_pj);
      }
    }
    if (shape.check == Check::kFleetTotals) {
      EXPECT_EQ(got.fleet.fleet_makespan, base.fleet.fleet_makespan);
      EXPECT_EQ(got.fleet.stagings, base.fleet.stagings);
      EXPECT_EQ(got.fleet.total_pj, base.fleet.total_pj);
    }
    if (shape.check == Check::kSlowerBaseline) {
      EXPECT_GT(got.fleet.fleet_makespan, base.fleet.fleet_makespan);
      EXPECT_GT(got.fleet.stagings, base.fleet.stagings);
    }
  }
}

TEST(StreamSession, TryPushDropsAreAccounted) {
  StreamServer server;
  SessionConfig cfg;
  cfg.buffer_capacity = app::kWindow;  // one-window ring
  std::uint64_t delivered = 0;
  Session& s = server.open_session(cfg,
                                   [&](const WindowResult&) { ++delivered; });

  // A push larger than the whole ring can never fit: guaranteed drop,
  // independent of worker timing.
  std::vector<std::int32_t> big(app::kWindow + 64, 0);
  EXPECT_FALSE(s.try_push(big));
  SessionStats st = s.stats();
  EXPECT_EQ(st.dropped_pushes, 1u);
  EXPECT_EQ(st.dropped_samples, big.size());
  EXPECT_EQ(st.samples_in, 0u);

  // Fitting pushes are accepted and eventually delivered; accounting must
  // balance exactly: accepted = delivered windows * window (hop == window,
  // stream length divisible by the window, no tail).
  const auto samples = make_stream(2 * app::kWindow, 0.3, 977);
  std::size_t off = 0;
  std::uint64_t accepted = 0, dropped_pushes = 1, dropped_samples = big.size();
  while (off < samples.size()) {
    const std::size_t take = std::min<std::size_t>(128, samples.size() - off);
    const auto chunk = std::span<const std::int32_t>(samples).subspan(off, take);
    if (s.try_push(chunk)) {
      accepted += take;
      off += take;
    } else {
      // Ring full while windows are in flight: retry after a blocking
      // drain of one result. (Drops stay counted.)
      ++dropped_pushes;
      dropped_samples += take;
      s.drain();
    }
  }
  s.finish();
  st = s.stats();
  EXPECT_EQ(st.samples_in, accepted);
  EXPECT_EQ(st.dropped_pushes, dropped_pushes);
  EXPECT_EQ(st.dropped_samples, dropped_samples);
  EXPECT_EQ(st.windows_submitted, accepted / app::kWindow);
  EXPECT_EQ(st.windows_delivered, st.windows_submitted);
  EXPECT_EQ(delivered, st.windows_delivered);
}

TEST(StreamServer, CompletionLanesBitIdenticalToProducerReaping) {
  // The delivery-mode switch must not change a single delivered bit or
  // cycle: completion lanes only move *where* the sink runs. Same streams,
  // producer-thread reaping vs 3 lanes.
  auto run = [](unsigned completion_threads) {
    StreamServer::Config scfg;
    scfg.pool.devices = 4;
    scfg.completion_threads = completion_threads;
    StreamServer server(scfg);
    std::vector<std::vector<std::int32_t>> streams;
    // One pre-sized result slot per session: a session is delivered by
    // exactly one lane sequentially (single writer per slot, no container
    // mutation), and finish() orders those writes before the reads below.
    std::vector<std::vector<WindowResult>> delivered(6);
    std::vector<Session*> sessions;
    for (unsigned i = 0; i < 6; ++i) {
      streams.push_back(make_stream(3 * app::kWindow + 119 * i,
                                    0.2 + 0.05 * i, 1200 + i));
      SessionConfig cfg;
      if (i % 2 == 1) {
        cfg.kind = SessionKind::kPipeline;
        cfg.hop = 256;
      }
      sessions.push_back(&server.open_session(cfg, [&delivered, i](
                                                       const WindowResult& r) {
        delivered[i].push_back(r);
      }));
    }
    for (unsigned i = 0; i < 6; ++i) sessions[i]->push(streams[i]);
    server.finish();
    return delivered;
  };

  const auto base = run(0);
  const auto lanes = run(3);
  ASSERT_EQ(lanes.size(), base.size());
  for (std::size_t sid = 0; sid < base.size(); ++sid) {
    SCOPED_TRACE("session " + std::to_string(sid));
    const auto& results = base[sid];
    const auto& g = lanes[sid];
    ASSERT_EQ(g.size(), results.size());
    ASSERT_GT(results.size(), 0u);
    for (std::size_t w = 0; w < results.size(); ++w) {
      SCOPED_TRACE("window " + std::to_string(w));
      EXPECT_EQ(g[w].index, results[w].index);
      EXPECT_EQ(g[w].job.output, results[w].job.output);
      EXPECT_EQ(g[w].job.device, results[w].job.device);
      EXPECT_EQ(g[w].job.cost.cpu_cycles, results[w].job.cost.cpu_cycles);
      EXPECT_EQ(g[w].job.cost.vwr2a_cycles, results[w].job.cost.vwr2a_cycles);
      EXPECT_EQ(g[w].job.cost.vwr2a_pj, results[w].job.cost.vwr2a_pj);
    }
  }
}

TEST(StreamServer, BlockingSinkDoesNotStallOtherSessionsIngest) {
  // The ROADMAP "sinks may block" item, as a latency assertion: session A's
  // sink parks on a condition variable at its first window; session B --
  // on another delivery lane -- must ingest AND deliver its whole stream
  // while A's sink is still parked, and promptly.
  using Clock = std::chrono::steady_clock;
  StreamServer::Config scfg;
  scfg.pool.devices = 2;
  scfg.completion_threads = 2;  // session id % 2: A -> lane 0, B -> lane 1
  StreamServer server(scfg);

  std::mutex m;
  std::condition_variable cv;
  bool release_a = false;
  std::atomic<std::uint64_t> a_delivered{0};
  std::atomic<std::uint64_t> b_delivered{0};

  Session& a = server.open_session({}, [&](const WindowResult&) {
    ++a_delivered;
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return release_a; });
  });
  Session& b = server.open_session(
      {}, [&](const WindowResult&) { ++b_delivered; });

  const unsigned kWindows = 6;
  const auto sa = make_stream(kWindows * app::kWindow, 0.2, 1301);
  const auto sb = make_stream(kWindows * app::kWindow, 0.3, 1302);

  // A's producer on its own thread; it will fill max_inflight and block on
  // backpressure behind the parked sink -- by design.
  std::thread producer_a([&] {
    a.push(sa);
    a.finish();
  });

  const auto t0 = Clock::now();
  b.push(sb);
  b.finish();
  const double b_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // B fully ingested and delivered while A's sink never moved past its
  // first window: a blocking sink stalls neither another session's ingest
  // nor its delivery on another lane.
  EXPECT_EQ(b_delivered.load(), kWindows);
  EXPECT_LE(a_delivered.load(), 1u);
  // The latency assertion: B's whole stream (ingest + delivery) completed
  // promptly. The bound is generous against slow CI hosts; without the
  // lanes it would deadlock (A's sink never returns), not just slow down.
  EXPECT_LT(b_seconds, 30.0);

  {
    std::lock_guard<std::mutex> lock(m);
    release_a = true;
  }
  cv.notify_all();
  producer_a.join();
  server.finish();
  EXPECT_EQ(a_delivered.load(), kWindows);
  EXPECT_EQ(a.stats().windows_delivered, kWindows);
}

TEST(StreamSession, TryPushDropAccountingUnderConcurrentProducers) {
  // The drop-accounting invariant under fire: 8 sessions hammered by 8
  // concurrent producer threads with non-blocking pushes while delivery
  // lanes reap in parallel. For every session, offered chunks must be
  // fully accounted: drops + delivered windows == windows offered, and
  // samples_in + dropped_samples == samples offered. (Chunks are exactly
  // one window, hop == window, so accepted samples map 1:1 to windows and
  // a flush never leaves a tail.)
  constexpr unsigned kSessions = 8;
  constexpr unsigned kChunksPerSession = 24;
  StreamServer::Config scfg;
  scfg.pool.devices = 4;
  scfg.completion_threads = 3;
  StreamServer server(scfg);

  std::vector<std::atomic<std::uint64_t>> sink_counts(kSessions);
  std::vector<Session*> sessions;
  std::vector<std::vector<std::int32_t>> streams;
  for (unsigned i = 0; i < kSessions; ++i) {
    streams.push_back(make_stream(kChunksPerSession * app::kWindow,
                                  0.15 + 0.04 * i, 1400 + i));
    SessionConfig cfg;
    if (i % 2 == 1) cfg.kind = SessionKind::kPipeline;
    cfg.max_inflight = 2;
    cfg.buffer_capacity = 2 * app::kWindow;  // tight: force real drops
    sessions.push_back(&server.open_session(
        cfg, [&sink_counts, i](const WindowResult&) { ++sink_counts[i]; }));
  }

  std::vector<std::thread> producers;
  std::vector<std::uint64_t> rejected(kSessions, 0);
  for (unsigned i = 0; i < kSessions; ++i) {
    producers.emplace_back([&, i] {
      for (unsigned c = 0; c < kChunksPerSession; ++c) {
        const auto chunk = std::span<const std::int32_t>(streams[i])
                               .subspan(c * app::kWindow, app::kWindow);
        if (!sessions[i]->try_push(chunk)) ++rejected[i];
      }
      sessions[i]->finish();
    });
  }
  for (auto& t : producers) t.join();
  server.finish();

  for (unsigned i = 0; i < kSessions; ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const SessionStats st = sessions[i]->stats();
    // Every offered sample is either accepted or dropped -- never both,
    // never lost.
    EXPECT_EQ(st.samples_in + st.dropped_samples,
              std::uint64_t{kChunksPerSession} * app::kWindow);
    EXPECT_EQ(st.dropped_pushes, rejected[i]);
    EXPECT_EQ(st.dropped_samples, rejected[i] * app::kWindow);
    // Accepted samples became exactly their windows, all delivered.
    EXPECT_EQ(st.windows_submitted, st.samples_in / app::kWindow);
    EXPECT_EQ(st.windows_delivered, st.windows_submitted);
    EXPECT_EQ(st.windows_failed, 0u);
    EXPECT_EQ(sink_counts[i].load(), st.windows_delivered);
    // The headline invariant: drops + delivered == windows offered.
    EXPECT_EQ(st.dropped_pushes + st.windows_delivered, kChunksPerSession);
  }
}

TEST(StreamServer, SessionsSpreadAcrossDevices) {
  // Shortest-local-clock placement with reservations: equally-weighted
  // sessions opened back-to-back must spread over the fleet instead of
  // clustering on device 0.
  StreamServer::Config scfg;
  scfg.pool.devices = 4;
  StreamServer server(scfg);
  std::map<unsigned, unsigned> per_device;
  for (unsigned i = 0; i < 8; ++i) {
    per_device[server.open_session().device()]++;
  }
  ASSERT_EQ(per_device.size(), 4u);
  for (const auto& [dev, count] : per_device) EXPECT_EQ(count, 2u) << dev;
}

TEST(Windower, StreamShorterThanOneHopFlushesExactlyOneTail) {
  // Total samples < one hop: no full window exists, but the samples must
  // not be dropped -- the flush emits exactly one zero-padded tail window,
  // and never a second (spurious all-zero) one.
  for (const unsigned hop : {8u, 4u}) {
    SCOPED_TRACE("hop " + std::to_string(hop));
    Windower w(8, hop, 32);
    const std::vector<std::int32_t> tiny = {7, 8, 9};
    w.push(tiny);
    EXPECT_FALSE(w.has_window());
    ASSERT_TRUE(w.has_tail());
    const std::vector<std::int32_t> want = {7, 8, 9, 0, 0, 0, 0, 0};
    EXPECT_EQ(w.pop_tail(), want);
    EXPECT_FALSE(w.has_tail());  // one tail, never two
    EXPECT_FALSE(w.has_window());
  }
}

TEST(Windower, ExactWindowMultipleLeavesNoSpuriousTail) {
  // Total samples an exact multiple of the window (hop == window): every
  // sample is covered by a full window and a flush must emit nothing more.
  Windower w(8, 8, 32);
  std::vector<std::int32_t> stream(16);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    stream[i] = static_cast<std::int32_t>(i + 1);
  }
  w.push(stream);
  const auto want = slice_windows(stream, 8, 8, /*flush_tail=*/true);
  ASSERT_EQ(want.size(), 2u);  // the golden agrees: no padded third window
  std::vector<std::vector<std::int32_t>> got;
  while (w.has_window()) got.push_back(w.pop_window());
  EXPECT_EQ(got, want);
  EXPECT_FALSE(w.has_tail());
  EXPECT_EQ(w.size(), 0u);
}

TEST(StreamSession, BoundaryStreamsDeliverExactWindowCounts) {
  // The Windower boundary pins, end to end through a session: an exact
  // two-window stream delivers exactly 2 windows; a sub-hop stream
  // delivers exactly 1 (padded); both bit-match the offline slicing.
  StreamServer server;
  for (const std::size_t total : {2 * (std::size_t)app::kWindow,
                                  (std::size_t)137}) {
    SCOPED_TRACE("stream of " + std::to_string(total));
    const auto samples =
        make_stream(total, 0.3, 1500 + static_cast<unsigned>(total));
    std::vector<WindowResult> delivered;
    Session& s = server.open_session(
        {}, [&](const WindowResult& r) { delivered.push_back(r); });
    s.push(samples);
    s.finish();
    const auto want =
        slice_windows(samples, app::kWindow, app::kWindow, /*flush_tail=*/true);
    ASSERT_EQ(delivered.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(delivered[i].job.output, offline_bio(want[i])) << i;
    }
    EXPECT_EQ(s.stats().windows_submitted, want.size());
  }
}

TEST(StreamSession, EnqueueAfterStopRollsBackAndNeverHangsDrain) {
  // PR 5 left a warning at the submit rollback: undoing the in-flight slot
  // claim without waking slot_cv_ leaves a concurrent drain() asleep
  // forever. Regression: push against a stopped completer must throw, and
  // drain() afterwards must return promptly.
  runtime::DevicePool pool;
  Completer completer(1);
  std::uint64_t delivered = 0;
  Session session(1, pool, 0, SessionConfig{},
                  [&](const WindowResult&) { ++delivered; }, &completer,
                  nullptr);

  const auto samples = make_stream(app::kWindow, 0.3, 1600);
  session.push(samples);
  session.drain();
  EXPECT_EQ(delivered, 1u);

  completer.stop();
  EXPECT_THROW(session.push(samples), HostError);  // enqueue after stop
  EXPECT_EQ(session.inflight(), 0u);               // slot rolled back

  // The load-bearing part: drain() must see the rolled-back slot and
  // return instead of waiting for a delivery that will never come.
  std::atomic<bool> drained{false};
  std::thread waiter([&] {
    session.drain();
    drained.store(true);
  });
  for (int spin = 0; spin < 500 && !drained.load(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(drained.load());  // would hang before the notify fix
  waiter.join();
  EXPECT_EQ(session.stats().windows_submitted, 1u);  // rollback accounted
}

TEST(StreamSession, FailedWindowsReportAlikeInBothDeliveryModes) {
  // One failure policy for both delivery modes: every window of a
  // pipeline session with 10 taps fails ("FirKernels: need 11 taps").
  // Each failed window uses its index up, reaches the error sink and is
  // counted in windows_failed; with no error sink, drain() rethrows the
  // failure once and then returns normally. push() never throws it.
  constexpr unsigned kWindows = 5;
  SessionConfig cfg;
  cfg.kind = SessionKind::kPipeline;
  cfg.taps = runtime::make_buffer(std::vector<std::int32_t>(10, 1));
  cfg.max_inflight = 2;  // backpressure delivers failures mid-push too
  const auto samples = make_stream(kWindows * app::kWindow, 0.3, 1800);
  std::vector<std::uint64_t> all(kWindows);
  std::iota(all.begin(), all.end(), 0);

  for (const unsigned lanes : {0u, 2u}) {
    SCOPED_TRACE(std::to_string(lanes) + " completion lanes");
    StreamServer::Config scfg;
    scfg.pool.devices = 2;
    scfg.completion_threads = lanes;
    StreamServer server(scfg);

    // Written by the delivering thread; drain() orders it before the reads.
    std::vector<std::uint64_t> reported;
    std::uint64_t delivered = 0;
    Session& reporting = server.open_session(
        cfg, [&](const WindowResult&) { ++delivered; },
        [&](std::uint64_t, std::uint64_t index, const std::string& msg) {
          EXPECT_NE(msg.find("need 11 taps"), std::string::npos) << msg;
          reported.push_back(index);
        });
    EXPECT_NO_THROW(reporting.push(samples));
    EXPECT_NO_THROW(reporting.finish());
    EXPECT_EQ(reported, all);
    EXPECT_EQ(delivered, 0u);
    SessionStats st = reporting.stats();
    EXPECT_EQ(st.windows_submitted, kWindows);
    EXPECT_EQ(st.windows_failed, kWindows);
    EXPECT_EQ(st.windows_delivered, 0u);

    Session& silent = server.open_session(cfg);
    EXPECT_NO_THROW(silent.push(samples));
    EXPECT_NO_THROW(silent.flush());
    try {
      silent.drain();
      ADD_FAILURE() << "drain() did not report the failures";
    } catch (const HostError& e) {
      EXPECT_NE(std::string(e.what()).find("need 11 taps"), std::string::npos)
          << e.what();
    }
    EXPECT_NO_THROW(silent.drain());  // reported once
    st = silent.stats();
    EXPECT_EQ(st.windows_failed, kWindows);
    EXPECT_EQ(st.windows_delivered, 0u);
  }
}

TEST(StreamServer, SessionSurvivesItsDeviceDyingMidStream) {
  // The tentpole, at the stream layer: a session's device dies between
  // windows; the pin follows the failover chain, the resident image moves
  // via checkpoint, and delivery stays ordered and bit-identical to an
  // undisturbed run. The co-tenant on the surviving device never notices.
  StreamServer::Config scfg;
  scfg.pool.devices = 2;
  scfg.pool.workers = 1;   // deterministic claim order
  scfg.pool.max_batch = 1;
  scfg.completion_threads = 2;
  StreamServer server(scfg);

  std::vector<std::vector<WindowResult>> delivered(2);
  Session& victim = server.open_session(
      {}, [&](const WindowResult& r) { delivered[0].push_back(r); });
  Session& bystander = server.open_session(
      {}, [&](const WindowResult& r) { delivered[1].push_back(r); });
  ASSERT_NE(victim.device(), bystander.device());

  const auto sv = make_stream(4 * app::kWindow, 0.2, 1700);
  const auto sb = make_stream(4 * app::kWindow, 0.4, 1701);
  const auto half = std::span<const std::int32_t>(sv).subspan(0, sv.size() / 2);

  victim.push(half);
  bystander.push(sb);
  victim.drain();
  bystander.drain();

  ASSERT_TRUE(server.pool().kill_device(victim.device()));
  victim.push(std::span<const std::int32_t>(sv).subspan(sv.size() / 2));
  victim.finish();
  bystander.finish();
  server.finish();

  for (unsigned i = 0; i < 2; ++i) {
    SCOPED_TRACE("session " + std::to_string(i));
    const auto& stream_i = i == 0 ? sv : sb;
    const auto want = slice_windows(stream_i, app::kWindow, app::kWindow,
                                    /*flush_tail=*/true);
    ASSERT_EQ(delivered[i].size(), want.size());
    for (std::size_t w = 0; w < want.size(); ++w) {
      EXPECT_EQ(delivered[i][w].index, w);  // ordered despite re-placement
      EXPECT_EQ(delivered[i][w].job.output, offline_bio(want[w]))
          << "window " << w;
    }
  }
  // The victim's post-fault windows ran on the surviving device...
  EXPECT_EQ(delivered[0][3].job.device, bystander.device());
  const SessionStats vs = victim.stats();
  EXPECT_GE(vs.windows_migrated, 1u);
  EXPECT_EQ(vs.device, bystander.device());
  // ...and the bystander never moved.
  EXPECT_EQ(bystander.stats().windows_migrated, 0u);
  const runtime::FleetStats fs = server.pool().stats();
  EXPECT_EQ(fs.devices_failed, 1u);
  EXPECT_EQ(fs.jobs_failed, 0u);
  EXPECT_EQ(fs.checkpoints_taken, 1u);
  // The failover target already hosts a resident image (the bystander's),
  // which is bit-equivalent by construction -- adoption is skipped, and
  // that skip is precisely why the outputs above could match the golden.
  EXPECT_EQ(fs.checkpoints_restored, 0u);
}

TEST(StreamServer, ScriptedKillRescuesQueuedWindowsBitIdentical) {
  // A scripted kill that lands while the victim device still holds queued
  // windows: they are re-placed along the failover chain (the pool's
  // rescue loop) and every stream still delivers bit-identically to a
  // fault-free twin. One worker and one job per claim serve device 0 (the
  // victim) first; its session pushes all six windows in one call with
  // room for all of them in flight, so five are queued when the first
  // completes and the kill fires.
  constexpr unsigned kWindows = 6;
  const std::vector<std::vector<std::int32_t>> streams = {
      make_stream(kWindows * app::kWindow, 0.2, 1800),
      make_stream(kWindows * app::kWindow, 0.35, 1801)};

  struct Run {
    std::vector<std::vector<WindowResult>> delivered;
    std::vector<unsigned> pins;
    runtime::FleetStats fleet;
  };
  auto run = [&streams](bool chaos) {
    StreamServer::Config scfg;
    scfg.pool.devices = 2;
    scfg.pool.workers = 1;
    scfg.pool.max_batch = 1;
    if (chaos) scfg.pool.faults.events = {runtime::FaultEvent{0, 1, 0}};
    scfg.completion_threads = 2;
    StreamServer server(scfg);
    Run r;
    r.delivered.resize(streams.size());
    std::vector<Session*> sessions;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      SessionConfig sc;
      sc.max_inflight = kWindows;
      sc.buffer_capacity = kWindows * app::kWindow;
      sessions.push_back(&server.open_session(
          sc, [&r, i](const WindowResult& w) { r.delivered[i].push_back(w); }));
      r.pins.push_back(sessions.back()->device());
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      sessions[i]->push(streams[i]);
    }
    server.finish();
    r.fleet = server.pool().stats();
    return r;
  };

  const Run chaos = run(true);
  const Run calm = run(false);
  ASSERT_EQ(chaos.pins, (std::vector<unsigned>{0, 1}));
  EXPECT_EQ(chaos.fleet.devices_failed, 1u);
  EXPECT_GT(chaos.fleet.jobs_rescued, 0u);
  EXPECT_EQ(chaos.fleet.jobs_failed, 0u);
  EXPECT_EQ(calm.fleet.jobs_rescued, 0u);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    SCOPED_TRACE("stream " + std::to_string(i));
    ASSERT_EQ(chaos.delivered[i].size(), kWindows);
    ASSERT_EQ(calm.delivered[i].size(), kWindows);
    for (unsigned w = 0; w < kWindows; ++w) {
      EXPECT_EQ(chaos.delivered[i][w].index, w);
      EXPECT_EQ(chaos.delivered[i][w].job.output,
                calm.delivered[i][w].job.output)
          << "window " << w;
    }
  }
  // The rescued windows ran on the survivor.
  EXPECT_EQ(chaos.delivered[0].back().job.device, 1u);
}

} // namespace
} // namespace vwr2a::stream
