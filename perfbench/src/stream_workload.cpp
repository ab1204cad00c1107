// `stream`: closed loop through backpressure, no wire. One producer thread
// feeds 32 stream::StreamServer sessions over a 16-device mixed-variant
// trace-mode fleet, round-robin in 256-sample chunks; Session::push blocks
// whenever a session's in-flight bound is hit, so the fleet's pace sets the
// producer's. Sessions alternate bio and pipeline; every second pair slides
// its 512-sample window by 256 so windows overlap. The first kPrefixSteps
// steps after set-up are the fixed simulated prefix of the sim_* metrics;
// the rest of the measured time runs in laps of kLapSteps steps.
//
// Per-window records are kept compact (a digest per window, one sample per
// phase) so the benchmark's own memory does not grow with throughput and
// blur peak_rss_mb.

#include <array>
#include <cstdio>

#include "dsp/signal.hpp"
#include "goldens.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "recorded.hpp"
#include "stream/server.hpp"

namespace perfbench {

using namespace vwr2a;

namespace {

constexpr unsigned kSessions = 32;
constexpr unsigned kDevices = 16;
constexpr unsigned kPrefixSteps = 4;  ///< steps of 512 samples per session
/// Steps per lap. A lap ends with every session drained, so each serves
/// exactly the windows its samples complete; 16 steps are two whole stream
/// periods, so every lap serves the same windows (768, ~150 ms).
constexpr unsigned kLapSteps = 16;
/// Laps between two throwaway set-ups (~1.2 s; ~20 set-ups in a 25 s run).
constexpr std::size_t kLapsPerSetUp = 8;
/// Push stamps kept per session. A window is delivered long before 64 more
/// chunks are pushed: backpressure bounds it to max_inflight windows plus
/// the staging buffer.
constexpr std::size_t kChunkRing = 64;

struct Tenant {
  const StreamSpec* spec = nullptr;
  stream::Session* session = nullptr;
  std::uint64_t pos = 0;                         ///< samples pushed
  std::array<std::uint64_t, kChunkRing> chunk_ns{};  ///< push start per chunk
  std::vector<std::uint64_t> digests;            ///< per delivered window
  std::uint64_t out_of_order = 0;
};

/// Sink-side record of one phase.
struct Recorder {
  std::uint64_t start_ns = 0;
  bool traced = false;
  std::uint64_t windows = 0;
  Cycle sim = 0;
  std::vector<OpSample> ops;
  std::vector<PathSample> path;
  double run_ns = 0;

  void add(std::uint64_t now, std::uint64_t pushed, const runtime::JobResult& job) {
    ++windows;
    sim += job.cost.total_cycles();
    ops.push_back({static_cast<double>(now - start_ns) * 1e-9,
                   static_cast<double>(now - pushed) * 1e-6});
    const runtime::JobResult::Timing& t = job.timing;
    if (!traced || !t.stamped()) return;
    PathSample s;
    s.latency = static_cast<double>(now - pushed);
    s.handoff = static_cast<double>(t.enq_ns - pushed);
    s.queue = static_cast<double>(t.run_begin_ns - t.enq_ns);
    s.run = static_cast<double>(t.run_end_ns - t.run_begin_ns);
    s.deliver = static_cast<double>(now - t.run_end_ns);
    run_ns += s.run;
    path.push_back(s);
  }
};

} // namespace

Outcome run_stream(const Options& o) {
  Outcome out;
  std::vector<bool> kinds;
  std::vector<unsigned> hops;
  for (unsigned i = 0; i < kSessions; ++i) {
    kinds.push_back(i % 2 == 0);
    hops.push_back(i % 4 >= 2 ? 256u : 512u);
  }
  const std::vector<StreamSpec> specs = make_streams(kinds, hops, o.seed * 1000003 + 23);

  stream::StreamServer::Config cfg;
  cfg.pool.devices = kDevices;
  cfg.pool.workers = 1;
  cfg.pool.device_arch = mixed_fleet(
      kDevices, o.interpret ? cgra::ExecMode::kInterpret : cgra::ExecMode::kTraceCache);
  const auto taps = runtime::make_buffer(dsp::fir11_lowpass_q15());

  std::vector<Tenant> tenants(kSessions);
  Recorder setup_rec;
  Recorder* rec = &setup_rec;  // sinks run on the producer thread only
  bool corrupt_armed = false;
  auto push_chunk = [](Tenant& t) {
    t.chunk_ns[(t.pos / StreamSpec::kChunk) % kChunkRing] = now_ns();
    t.session->push(t.spec->chunk(t.pos));
    t.pos += StreamSpec::kChunk;
  };
  auto check_and_reset = [&](Tenant& t) {
    const std::uint64_t expect =
        t.pos < StreamSpec::kWindow ? 0 : (t.pos - StreamSpec::kWindow) / t.spec->hop + 1;
    out.attempted += expect;
    if (t.digests.size() != expect) out.fail("missing windows");
    if (t.out_of_order != 0) out.fail("window delivered out of order");
    for (std::size_t j = 0; j < t.digests.size(); ++j) {
      if (t.digests[j] != t.spec->golden_of(j)) out.fail("stream window output mismatch");
    }
    t = Tenant{};
  };

  // --- setup: server + 32 opens + one warm-up window per session ------------
  // set_up() builds one fleet into `srv`/`ts` and returns its host seconds.
  // The served fleet is built once; further set-ups of throwaway fleets are
  // spread over the measured time (between laps), so setup_s, their median,
  // samples the host as the laps do instead of one instant before them.
  auto set_up = [&](std::unique_ptr<stream::StreamServer>& srv, std::vector<Tenant>& ts) {
    for (Tenant& t : ts) check_and_reset(t);  // the previous fleet's windows
    srv.reset();
    Recorder* const served = rec;
    rec = &setup_rec;
    const auto t0 = Clock::now();
    srv = std::make_unique<stream::StreamServer>(cfg);
    for (unsigned i = 0; i < kSessions; ++i) {
      Tenant& t = ts[i];
      t.spec = &specs[i];
      stream::SessionConfig sc;
      sc.hop = specs[i].hop;
      if (!specs[i].bio) {
        sc.kind = stream::SessionKind::kPipeline;
        sc.taps = taps;
      }
      t.session = &srv->open_session(sc, [&t, &rec, &corrupt_armed](
                                                const stream::WindowResult& r) {
        const std::uint64_t now = now_ns();
        if (r.index != t.digests.size()) ++t.out_of_order;
        t.digests.push_back(output_digest(r.job.output, corrupt_armed));
        corrupt_armed = false;
        rec->add(now, t.chunk_ns[t.spec->last_chunk(r.index) % kChunkRing], r.job);
      });
    }
    for (Tenant& t : ts) {
      push_chunk(t);
      push_chunk(t);
    }
    for (Tenant& t : ts) t.session->drain();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    rec = served;
    return s;
  };
  std::unique_ptr<stream::StreamServer> server, scratch;
  std::vector<Tenant> scratch_tenants(kSessions);
  std::vector<double> setup_s{set_up(server, tenants)};
  auto extra_set_up = [&] {
    setup_s.push_back(set_up(scratch, scratch_tenants));
    for (Tenant& t : scratch_tenants) check_and_reset(t);
    scratch.reset();
  };
  const FleetMark after_setup = mark(server->pool().stats());

  auto drain_all = [&tenants] {
    for (Tenant& t : tenants) t.session->drain();
  };

  // --- timed phases -----------------------------------------------------------
  bool prefix_done = false;
  struct Lap {
    double s = 0, cpu = 0;
    std::uint64_t windows = 0;
    Cycle sim = 0;
  };
  struct Phase {
    Recorder rec;
    double wall = 0, finish_ms = 0;
    std::vector<double> push_us;
    std::vector<Lap> laps;
    double lap_cpu() const {
      double s = 0;
      for (const Lap& l : laps) s += l.cpu;
      return s;
    }
    std::uint64_t lap_windows() const {
      std::uint64_t n = 0;
      for (const Lap& l : laps) n += l.windows;
      return n;
    }
  };
  auto phase = [&](double dur, bool traced, bool last) {
    Phase p;
    p.rec.traced = traced;
    rec = &p.rec;
    corrupt_armed = o.inject == "corrupt" && !traced;
    auto step = [&] {  // 512 samples into every session
      for (int c = 0; c < 2; ++c) {
        for (Tenant& t : tenants) {
          const std::uint64_t b = now_ns();
          push_chunk(t);
          if (traced) p.push_us.push_back(static_cast<double>(now_ns() - b) * 1e-3);
        }
      }
    };
    const auto t0 = Clock::now();
    p.rec.start_ns = now_ns();
    if (!prefix_done) {
      for (unsigned i = 0; i < kPrefixSteps; ++i) step();
      drain_all();
      prefix_done = true;
      const SimDelta d = sim_delta(after_setup, mark(server->pool().stats()));
      const std::uint64_t ops = p.rec.windows;
      out.values["sim_uj_per_op"] = d.pj * 1e-6 / static_cast<double>(ops);
      out.values["sim_makespan_ms"] = sim_ms(d.makespan);
      check_recorded("stream", o, ops, d, out);
    }
    while (std::chrono::duration<double>(Clock::now() - t0).count() < dur) {
      const auto l0 = Clock::now();
      const double c0 = cpu_seconds();
      const std::uint64_t w0 = p.rec.windows;
      const Cycle s0 = p.rec.sim;
      for (unsigned i = 0; i < kLapSteps; ++i) step();
      drain_all();
      p.laps.push_back(Lap{std::chrono::duration<double>(Clock::now() - l0).count(),
                           cpu_seconds() - c0, p.rec.windows - w0, p.rec.sim - s0});
      // Untraced phases only: a throwaway fleet's jobs would land in the
      // traced phase's registry counters.
      if (!traced && p.laps.size() % kLapsPerSetUp == 0) extra_set_up();
    }
    if (last) {
      const auto f0 = Clock::now();
      server->finish();
      p.finish_ms = std::chrono::duration<double, std::milli>(Clock::now() - f0).count();
    } else {
      drain_all();
    }
    p.wall = std::chrono::duration<double>(Clock::now() - t0).count();
    rec = &setup_rec;
    return p;
  };

  auto e2e = [&](const Phase& p) {
    // The quiet tenth of the laps: other tenants of the host only ever slow
    // a lap down, and every lap serves the same windows.
    std::vector<double> rate, cycles, cpu;
    for (const Lap& l : p.laps) {
      rate.push_back(static_cast<double>(l.windows) / l.s);
      cycles.push_back(static_cast<double>(l.sim) / l.s);
      cpu.push_back(l.cpu * 1e6 / static_cast<double>(l.windows));
    }
    out.values["ops_per_s"] = quantile(rate, 0.90);
    out.values["sim_cycles_per_s"] = quantile(cycles, 0.90);
    out.values["cpu_us_per_op"] = quantile(cpu, 0.10);
    report_slices(p.rec.ops, p.wall, out);
  };
  if (!o.trace) {
    e2e(phase(o.seconds, false, true));
  } else {
    const Phase plain = phase(o.seconds / 2, false, false);
    e2e(plain);
    obs::set_metrics(true);
    obs::set_spans(true);
    const auto c0 = counters();
    const FleetMark m0 = mark(server->pool().stats());
    const Phase traced = phase(o.seconds / 2, true, true);
    const runtime::FleetStats end = server->pool().stats();
    const auto c1 = counters();
    obs::set_spans(false);
    obs::set_metrics(false);
    const double ops = static_cast<double>(traced.rec.windows);
    report_path(traced.rec.path, traced.rec.run_ns, traced.wall, out);
    report_counters(c0, c1, traced.rec.windows, out);
    report_overhead(plain.lap_cpu(), plain.lap_windows(), traced.lap_cpu(),
                    traced.lap_windows(), out);
    const SimDelta d = sim_delta(m0, mark(end));
    out.values["runtime.stagings_per_op"] = static_cast<double>(d.stagings) / ops;
    out.values["runtime.occupancy"] = d.occupancy();
    out.values["stream.push_us.p50"] = quantile(traced.push_us, 0.50);
    out.values["stream.push_us.p99"] = quantile(traced.push_us, 0.99);
    out.values["stream.finish_ms"] = traced.finish_ms;
    out.values["isa.image_builds"] = static_cast<double>(end.image_cache.builds);
    out.values["isa.trace_compiles"] = static_cast<double>(end.trace_cache.compiled);
    report_standalone_kernels(o.seed, out);
  }

  // --- checks (outside every timed region) -------------------------------------
  const stream::ServerStats st = server->stats();
  for (const stream::SessionStats& s : st.sessions) {
    if (s.windows_failed != 0) out.fail("session reported failed windows");
    if (s.dropped_samples != 0) out.fail("session dropped samples");
  }
  for (Tenant& t : tenants) check_and_reset(t);
  out.values["setup_s"] = quantile(setup_s, 0.5);
  out.values["peak_rss_mb"] = peak_rss_mb();
  return out;
}

} // namespace perfbench
