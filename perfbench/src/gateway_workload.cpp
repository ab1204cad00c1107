// `gateway` and `gateway-recorder`: open loop over the wire. Four generator
// threads each own one loopback gateway::Client and multiplex 16 streams
// over it (bio and pipeline alternating, 512-sample windows), pushing
// 256-sample chunks on a fixed schedule at an aggregate kRate windows/s
// whatever the server does. A window's latency runs from the moment its
// last chunk was due to the moment its WINDOW_RESULT reached the client, so
// a late generator or a stalled server is charged to every window that
// waited. `gateway-recorder` is the same traffic with the obs recorder
// (metrics, tracing, spans) on for the whole process.

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "goldens.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace vwr2a;

namespace {

constexpr unsigned kThreads = 4;
constexpr unsigned kStreamsPerThread = 16;
constexpr unsigned kStreams = kThreads * kStreamsPerThread;
constexpr unsigned kDevices = 16;
constexpr int kSetupReps = 11;  ///< set-ups at each end of the run
/// CPU sampling period of the open loop (cpu_us_per_op).
constexpr std::uint64_t kTickNs = 250'000'000;
/// Aggregate open-loop rate, well under the closed-loop capacity measured
/// for this configuration (see README.md).
constexpr double kRate = 4000.0;
constexpr std::uint64_t kStallNs = 300'000'000;  ///< injected generator stall

struct Win {
  std::uint64_t index = 0, recv_ns = 0, digest = 0;
  std::uint64_t queue_ns = 0, run_ns = 0, deliver_ns = 0;
};

/// When a window's last chunk was due, and when its push started and ended.
struct Due {
  std::uint64_t due = 0, start = 0, end = 0;
};

struct Stream {
  const StreamSpec* spec = nullptr;
  gateway::Client* client = nullptr;
  std::uint32_t id = 0;
  std::uint64_t pos = 0;   ///< samples pushed (generator thread)
  std::vector<Due> dues;   ///< per window index (generator thread)
  std::vector<Win> wins;   ///< delivered, in order (client reader thread)
  std::uint64_t errors = 0;  ///< ERROR frames (client reader thread)
};

} // namespace

Outcome run_gateway(const Options& o, bool recorder) {
  Outcome out;
  if (recorder) {
    obs::set_metrics(true);
    obs::set_tracing(true);
    obs::set_spans(true);
  }
  std::vector<bool> kinds;
  std::vector<unsigned> hops(kStreams, StreamSpec::kWindow);
  for (unsigned i = 0; i < kStreams; ++i) kinds.push_back(i % 2 == 0);
  const std::vector<StreamSpec> specs = make_streams(kinds, hops, o.seed * 1000003 + 37);
  const double rate = o.rate > 0 ? o.rate : kRate;

  gateway::Server::Config cfg;
  cfg.stream.pool.devices = kDevices;
  cfg.stream.pool.workers = 4;
  cfg.stream.pool.device_arch = mixed_fleet(
      kDevices, o.interpret ? cgra::ExecMode::kInterpret : cgra::ExecMode::kTraceCache);
  cfg.stream.completion_threads = 4;

  std::vector<Stream> streams(kStreams);
  std::atomic<bool> corrupt_armed{false};
  std::unique_ptr<gateway::Server> server;
  std::vector<std::unique_ptr<gateway::Client>> clients;

  // --- setup: server, 4 connections, 64 opens, one warm-up window each ------
  // set_up() builds one fleet and returns its host seconds. kSetupReps
  // set-ups run before the measured time (the last one serves it) and as
  // many after it, so setup_s, their median, samples the host at both ends
  // of the run rather than at one instant.
  std::vector<double> setup_s, open_us;
  auto set_up = [&] {
    clients.clear();
    server.reset();
    open_us.clear();
    const auto t0 = Clock::now();
    server = std::make_unique<gateway::Server>(cfg);
    for (unsigned c = 0; c < kThreads; ++c) {
      clients.push_back(std::make_unique<gateway::Client>(server->connect_loopback()));
    }
    for (unsigned g = 0; g < kStreams; ++g) {
      Stream& s = streams[g];
      s = Stream{};
      s.spec = &specs[g];
      s.client = clients[g / kStreamsPerThread].get();
      gateway::Client::StreamOpts opts;
      opts.tenant = g;
      opts.kind = specs[g].bio ? 0 : 1;
      const auto o0 = Clock::now();
      s.id = s.client->open(
          opts,
          [&s, &corrupt_armed](const gateway::WindowResult& r) {
            const std::uint64_t now = now_ns();
            const bool corrupt = corrupt_armed.exchange(false);
            s.wins.push_back(Win{r.index, now, output_digest(r.output, corrupt), r.queue_ns,
                                 r.run_ns, r.deliver_ns});
          },
          [&s](const gateway::Error&) { ++s.errors; });
      open_us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - o0).count());
    }
    for (Stream& s : streams) {
      for (int c = 0; c < 2; ++c, s.pos += StreamSpec::kChunk) {
        s.client->push(s.id, s.spec->chunk(s.pos));
      }
      s.dues.push_back(Due{});  // window 0: warm-up, never timed
    }
    for (Stream& s : streams) s.client->flush(s.id);
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto check_warm_up = [&] {
    for (const Stream& s : streams) {
      for (const Win& w : s.wins) {
        ++out.attempted;
        if (w.digest != s.spec->golden_of(w.index)) out.fail("warm-up window mismatch");
      }
    }
  };
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (rep > 0) check_warm_up();
    setup_s.push_back(set_up());
  }
  runtime::DevicePool& pool = server->streams().pool();

  // --- timed phases: open-loop generation, then a FLUSH barrier ---------------
  std::uint64_t stall_begin = 0, stall_end = 0;
  struct Phase {
    double wall = 0, cpu = 0;
    std::uint64_t ops = 0, start_ns = 0;
    std::vector<double> late_ms, push_us;
    std::vector<double> tick_cpu_us;  ///< process CPU per window due, per tick
    std::vector<std::pair<std::size_t, std::size_t>> range;  ///< wins per stream
  };
  auto phase = [&](double dur, bool traced) {
    Phase p;
    for (const Stream& s : streams) p.range.emplace_back(s.wins.size(), 0);
    corrupt_armed = o.inject == "corrupt" && !traced;
    const std::uint64_t per_stream =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(rate * dur / kStreams + 0.5));
    const std::uint64_t chunks = per_stream * 2 * kStreamsPerThread;  // per thread
    const double period_ns = dur * 1e9 / static_cast<double>(chunks);
    std::vector<std::vector<double>> late(kThreads), push(kThreads);
    const double cpu0 = cpu_seconds();
    const std::uint64_t t0 = now_ns() + 2'000'000;  // common start, 2 ms out
    p.start_ns = t0;
    auto generator = [&](unsigned t) {
      const bool stall = o.inject == "stall" && t == 0 && !traced;
      for (std::uint64_t j = 0; j < chunks; ++j) {
        Stream& s = streams[t * kStreamsPerThread + j % kStreamsPerThread];
        const auto due = t0 + static_cast<std::uint64_t>(
                                  (static_cast<double>(j) + t / double(kThreads)) * period_ns);
        if (stall && j == chunks / 2) {
          stall_begin = now_ns();
          std::this_thread::sleep_for(std::chrono::nanoseconds(kStallNs));
          stall_end = now_ns();
        }
        for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        }
        const std::uint64_t start = now_ns();
        s.client->push(s.id, s.spec->chunk(s.pos));
        const std::uint64_t end = now_ns();
        s.pos += StreamSpec::kChunk;
        late[t].push_back(static_cast<double>(start - due) * 1e-6);
        if (traced) push[t].push_back(static_cast<double>(end - start) * 1e-3);
        if (s.pos % StreamSpec::kWindow == 0) s.dues.push_back(Due{due, start, end});
      }
    };
    std::vector<std::thread> gens;
    for (unsigned t = 0; t < kThreads; ++t) gens.emplace_back(generator, t);
    // Process CPU per window due, every kTick of the schedule.
    double c_prev = cpu0;
    std::uint64_t prev = now_ns();
    for (std::uint64_t tick = t0 + kTickNs; tick <= t0 + static_cast<std::uint64_t>(dur * 1e9);
         tick += kTickNs) {
      for (std::uint64_t now = now_ns(); now < tick; now = now_ns()) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(tick - now));
      }
      const double c = cpu_seconds();
      const std::uint64_t now = now_ns();
      p.tick_cpu_us.push_back((c - c_prev) * 1e6 / (rate * static_cast<double>(now - prev) * 1e-9));
      c_prev = c;
      prev = now;
    }
    for (auto& g : gens) g.join();
    for (Stream& s : streams) s.client->flush(s.id);
    p.wall = static_cast<double>(now_ns() - t0) * 1e-9;
    p.cpu = cpu_seconds() - cpu0;
    for (unsigned t = 0; t < kThreads; ++t) {
      p.late_ms.insert(p.late_ms.end(), late[t].begin(), late[t].end());
      p.push_us.insert(p.push_us.end(), push[t].begin(), push[t].end());
    }
    for (std::size_t i = 0; i < streams.size(); ++i) {
      p.range[i].second = streams[i].wins.size();
      p.ops += p.range[i].second - p.range[i].first;
    }
    return p;
  };

  auto latency_ns = [](const Stream& s, const Win& w) {
    return static_cast<double>(w.recv_ns) - static_cast<double>(s.dues.at(w.index).due);
  };
  FleetMark m0 = mark(pool.stats());
  auto e2e = [&](const Phase& p) {
    // The quiet tenth of the ticks: other tenants of the host only ever make
    // a tick's windows cost more.
    out.values["cpu_us_per_op"] = p.tick_cpu_us.empty()
                                      ? p.cpu * 1e6 / static_cast<double>(p.ops)
                                      : quantile(p.tick_cpu_us, 0.10);
    std::vector<OpSample> lat;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      for (std::size_t j = p.range[i].first; j < p.range[i].second; ++j) {
        const Win& w = streams[i].wins[j];
        lat.push_back({static_cast<double>(streams[i].dues.at(w.index).due - p.start_ns) * 1e-9,
                       latency_ns(streams[i], w) * 1e-6});
      }
    }
    const SimDelta d = sim_delta(m0, mark(pool.stats()));
    out.values["ops_per_s"] = static_cast<double>(p.ops) / p.wall;
    report_slices(lat, p.wall, out);
    out.values["sim_cycles_per_s"] = static_cast<double>(d.total_cycles) / p.wall;
    out.values["sim_uj_per_op"] = d.pj * 1e-6 / static_cast<double>(p.ops);
    out.values["sim_makespan_ms"] = sim_ms(d.makespan);
  };
  if (!o.trace) {
    e2e(phase(o.seconds, false));
  } else {
    const Phase plain = phase(o.seconds / 2, false);
    e2e(plain);
    out.values["loadgen.late_ms.p99"] = quantile(plain.late_ms, 0.99);
    obs::set_metrics(true);
    obs::set_spans(true);
    if (recorder) obs::Tracer::get().reset();
    const auto c0 = counters();
    m0 = mark(pool.stats());
    const Phase traced = phase(o.seconds / 2, true);
    const runtime::FleetStats end = pool.stats();
    const auto c1 = counters();
    const obs::Tracer::Snapshot snap = obs::Tracer::get().snapshot();
    if (!recorder) {
      obs::set_spans(false);
      obs::set_metrics(false);
    }
    std::vector<PathSample> path;
    double run_ns = 0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      const Stream& s = streams[i];
      for (std::size_t j = traced.range[i].first; j < traced.range[i].second; ++j) {
        const Win& w = s.wins[j];
        const Due& d = s.dues.at(w.index);
        PathSample ps;
        ps.latency = latency_ns(s, w);
        ps.late = static_cast<double>(d.start - d.due);
        ps.handoff = static_cast<double>(d.end - d.start);
        ps.queue = static_cast<double>(w.queue_ns);
        ps.run = static_cast<double>(w.run_ns);
        ps.deliver = static_cast<double>(w.deliver_ns);
        run_ns += ps.run;
        path.push_back(ps);
      }
    }
    const double ops = static_cast<double>(traced.ops);
    report_path(path, run_ns, traced.wall, out);
    report_counters(c0, c1, traced.ops, out);
    report_overhead(plain.cpu, plain.ops, traced.cpu, traced.ops, out);
    const SimDelta d = sim_delta(m0, mark(end));
    out.values["runtime.stagings_per_op"] = static_cast<double>(d.stagings) / ops;
    out.values["runtime.occupancy"] = d.occupancy();
    out.values["gateway.push_us.p50"] = quantile(traced.push_us, 0.50);
    out.values["gateway.push_us.p99"] = quantile(traced.push_us, 0.99);
    out.values["gateway.open_us.p50"] = quantile(open_us, 0.50);
    out.values["gateway.bytes_per_window"] =
        static_cast<double>(counter_delta(c0, c1, "gateway.bytes_in") +
                            counter_delta(c0, c1, "gateway.bytes_out")) / ops;
    out.values["obs.trace_events"] =
        static_cast<double>(snap.events.size() + snap.dropped) / ops;
    out.values["obs.trace_dropped"] = static_cast<double>(snap.dropped) / ops;
    out.values["isa.image_builds"] = static_cast<double>(end.image_cache.builds);
    out.values["isa.trace_compiles"] = static_cast<double>(end.trace_cache.compiled);
    report_standalone_kernels(o.seed, out);
  }

  // --- checks (outside every timed region) -------------------------------------
  for (Stream& s : streams) {
    const gateway::CloseOk c = s.client->close_stream(s.id);
    if (c.windows_failed != 0) out.fail("stream reported failed windows");
    if (c.dropped_samples != 0) out.fail("stream dropped samples");
  }
  clients.clear();
  server->stop();
  for (const Stream& s : streams) {
    const std::uint64_t expect = s.pos / StreamSpec::kWindow;
    out.attempted += expect;
    if (s.errors != 0) out.fail("ERROR frame received");
    if (s.wins.size() != expect) out.fail("missing windows");
    for (std::size_t j = 0; j < s.wins.size(); ++j) {
      const Win& w = s.wins[j];
      if (w.index != j) out.fail("window delivered out of order");
      if (w.digest != s.spec->golden_of(w.index)) out.fail("gateway window output mismatch");
    }
  }
  if (o.inject == "stall") {
    // Every window due while the generator stalled must be charged at least
    // the rest of the stall: its clock started at its due time.
    std::uint64_t charged = 0, short_changed = 0;
    for (unsigned g = 0; g < kStreamsPerThread; ++g) {  // thread 0's streams
      const Stream& s = streams[g];
      for (const Win& w : s.wins) {
        const std::uint64_t due = s.dues.at(w.index).due;
        if (w.index == 0 || due < stall_begin || due >= stall_end) continue;
        ++charged;
        if (latency_ns(s, w) < static_cast<double>(stall_end - due)) ++short_changed;
      }
    }
    char line[160];
    std::snprintf(line, sizeof line,
                  "stall check: %llu windows due during the stall, %llu under-charged",
                  static_cast<unsigned long long>(charged),
                  static_cast<unsigned long long>(short_changed));
    out.notes.push_back(line);
    if (charged == 0 || short_changed != 0) out.fail("stall not charged to due windows");
  }
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_s.push_back(set_up());
    check_warm_up();
  }
  clients.clear();
  server.reset();
  out.values["setup_s"] = quantile(setup_s, 0.5);
  out.values["peak_rss_mb"] = peak_rss_mb();
  return out;
}

} // namespace perfbench
