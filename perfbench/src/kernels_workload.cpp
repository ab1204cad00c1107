// `kernels`: closed loop over a 4-device trace-mode DevicePool. One thread
// submits rounds of 20 jobs with DevicePool::submit_batch and waits for all
// of them before the next round. A round holds every kernel family at
// paper sizes: a same-shape run of four FIR-11 jobs (one per device, so the
// pool can batch them), four complex FFTs (256..2048), three real FFTs,
// three inverse FFTs, the four reductions and two delineations; the seed
// draws the inputs and the order. kRounds distinct rounds are generated, each
// job with its own input, and replayed cyclically; the first pass over them
// is the fixed simulated prefix the sim_* metrics are taken over.

#include <cstdio>
#include <memory>
#include <set>

#include "goldens.hpp"
#include "harness.hpp"
#include "obs/obs.hpp"
#include "recorded.hpp"

namespace perfbench {

using namespace vwr2a;

namespace {

constexpr unsigned kDevices = 4;
constexpr unsigned kRounds = 16;
constexpr int kSetupReps = 21;

struct Round {
  std::vector<runtime::Job> jobs;
  std::vector<std::uint64_t> golden;
};

Round make_round(unsigned index, Rng& rng) {
  // Every round runs each family at each of its sizes once (the reduction
  // sizes rotate with the round); the seed picks the data and the order, so
  // rounds differ while the work per pass stays close to constant.
  std::vector<CheckedJob> head, rest;
  const unsigned fir_n = 256u << (index % 3);
  for (int i = 0; i < 4; ++i) head.push_back(make_fir(fir_n, rng));
  for (unsigned n : {256u, 512u, 1024u, 2048u}) rest.push_back(make_cfft(n, rng));
  for (unsigned n : {512u, 1024u, 2048u}) rest.push_back(make_rfft(n, rng));
  for (unsigned n : {256u, 512u, 1024u}) rest.push_back(make_ifft(n, rng));
  const unsigned sizes[] = {512u, 1024u, 2048u, 4096u};
  unsigned k = index;
  for (runtime::ReduceOp op : {runtime::ReduceOp::kMin, runtime::ReduceOp::kMax,
                               runtime::ReduceOp::kMean, runtime::ReduceOp::kEnergy}) {
    rest.push_back(make_reduce(op, sizes[k++ % 4], rng));
  }
  for (unsigned n : {512u, 1024u}) rest.push_back(make_delineation(n, rng));
  for (std::size_t i = rest.size(); i > 1; --i) {  // seeded Fisher-Yates
    std::swap(rest[i - 1], rest[rng.next_below(static_cast<std::uint32_t>(i))]);
  }
  Round r;
  for (auto* part : {&head, &rest}) {
    for (CheckedJob& c : *part) {
      r.jobs.push_back(std::move(c.job));
      r.golden.push_back(c.golden);
    }
  }
  return r;
}

/// "family n" of a job, for failure reports.
std::string describe(const runtime::Job& job) {
  static const char* kNames[] = {"fir", "cfft", "rfft", "ifft", "reduce",
                                 "delineation", "pipeline", "bio"};
  const unsigned n = std::visit(
      [](const auto& w) -> unsigned {
        if constexpr (requires { w.n; }) return w.n;
        return 0;
      },
      job.work);
  return std::string(kNames[job.work.index()]) + " n=" + std::to_string(n);
}

/// One job of every (family, size) the rounds use: the warm-up batch.
std::vector<CheckedJob> warm_set(Rng& rng) {
  std::vector<CheckedJob> w;
  for (unsigned n : {256u, 512u, 1024u}) w.push_back(make_fir(n, rng));
  for (unsigned n : {256u, 512u, 1024u, 2048u}) w.push_back(make_cfft(n, rng));
  for (unsigned n : {512u, 1024u, 2048u}) w.push_back(make_rfft(n, rng));
  for (unsigned n : {256u, 512u, 1024u}) w.push_back(make_ifft(n, rng));
  for (runtime::ReduceOp op : {runtime::ReduceOp::kMin, runtime::ReduceOp::kMax,
                               runtime::ReduceOp::kMean, runtime::ReduceOp::kEnergy}) {
    w.push_back(make_reduce(op, 1024, rng));
  }
  w.push_back(make_delineation(512, rng));
  return w;
}

} // namespace

Outcome run_kernels(const Options& o) {
  Outcome out;
  Rng rng(o.seed * 1000003 + 11);
  std::vector<Round> rounds;
  for (unsigned i = 0; i < kRounds; ++i) rounds.push_back(make_round(i, rng));
  const std::vector<CheckedJob> warm = warm_set(rng);

  const cgra::ExecMode mode =
      o.interpret ? cgra::ExecMode::kInterpret : cgra::ExecMode::kTraceCache;
  runtime::DevicePool::Config cfg;
  cfg.devices = kDevices;
  cfg.workers = 1;
  cfg.schedule = runtime::Schedule::kShortestLocalClock;
  cfg.device_arch = {soc::ArchConfig{.exec_mode = mode}};

  // --- setup: pool construction + one warm-up job per family and size ------
  std::unique_ptr<runtime::DevicePool> pool;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    pool.reset();
    pool = std::make_unique<runtime::DevicePool>(cfg);
    std::vector<runtime::Job> jobs;
    for (const CheckedJob& c : warm) jobs.push_back(c.job);
    auto handles = pool->submit_batch(std::move(jobs));
    std::vector<runtime::JobResult> res;
    for (auto& h : handles) res.push_back(h.get());
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    for (std::size_t i = 0; i < res.size(); ++i) {
      ++out.attempted;
      if (digest(res[i].output) != warm[i].golden) out.fail("warm-up job " + std::to_string(i));
    }
  }
  out.values["setup_s"] = quantile(setup_s, 0.5);
  const FleetMark after_setup = mark(pool->stats());

  // --- timed phases -----------------------------------------------------------
  unsigned next = 0;
  bool prefix_done = false;
  bool corrupt = o.inject == "corrupt";
  struct Phase {
    double wall = 0, cpu = 0;
    std::uint64_t ops = 0;
    vwr2a::Cycle sim_cycles = 0;
    std::vector<double> submit_ms;
    std::vector<OpSample> ops_at;
    std::vector<PathSample> path;
    double run_ns = 0;
  };
  auto phase = [&](double dur, bool traced) {
    Phase p;
    std::vector<runtime::JobResult> res;
    std::vector<std::uint64_t> done_ns;
    while (p.wall < dur || !prefix_done) {
      const Round& r = rounds[next % kRounds];
      const double cpu0 = cpu_seconds();
      const std::uint64_t t0 = now_ns();
      auto handles = pool->submit_batch(r.jobs);
      const std::uint64_t t_sub = now_ns();
      res.assign(handles.size(), runtime::JobResult{});
      done_ns.assign(handles.size(), 0);
      std::vector<bool> ok(handles.size(), true);
      for (std::size_t i = 0; i < handles.size(); ++i) {
        try {
          res[i] = handles[i].get();
        } catch (const std::exception& e) {
          ok[i] = false;
          out.fail(std::string("job raised: ") + e.what());
        }
        done_ns[i] = now_ns();
      }
      const std::uint64_t t1 = now_ns();
      p.cpu += cpu_seconds() - cpu0;
      p.wall += static_cast<double>(t1 - t0) * 1e-9;
      // Checks and bookkeeping, outside the timed region.
      ++next;
      if (traced) p.submit_ms.push_back(static_cast<double>(t_sub - t0) * 1e-6);
      std::set<std::pair<std::uint64_t, std::uint64_t>> runs;  // batched lanes share one
      for (std::size_t i = 0; i < res.size(); ++i) {
        ++out.attempted;
        ++p.ops;
        if (!ok[i]) continue;
        if (output_digest(res[i].output, corrupt) != r.golden[i]) {
          out.fail("kernels job output mismatch: " + describe(r.jobs[i]));
        }
        corrupt = false;
        p.ops_at.push_back({p.wall, static_cast<double>(done_ns[i] - t0) * 1e-6});
        p.sim_cycles += res[i].cost.total_cycles();
        const runtime::JobResult::Timing& t = res[i].timing;
        if (traced && t.stamped()) {
          PathSample s;
          s.latency = static_cast<double>(done_ns[i] - t0);
          s.handoff = static_cast<double>(t.enq_ns - t0);
          s.queue = static_cast<double>(t.run_begin_ns - t.enq_ns);
          s.run = static_cast<double>(t.run_end_ns - t.run_begin_ns);
          s.deliver = static_cast<double>(done_ns[i] - t.run_end_ns);
          p.path.push_back(s);
          if (runs.emplace(t.run_begin_ns, t.run_end_ns).second) p.run_ns += s.run;
        }
      }
      if (!prefix_done && next == kRounds) {
        prefix_done = true;
        const SimDelta d = sim_delta(after_setup, mark(pool->stats()));
        const std::uint64_t jobs = std::uint64_t{kRounds} * rounds[0].jobs.size();
        out.values["sim_uj_per_op"] = d.pj * 1e-6 / static_cast<double>(jobs);
        out.values["sim_makespan_ms"] = sim_ms(d.makespan);
        check_recorded("kernels", o, jobs, d, out);
      }
    }
    return p;
  };

  auto e2e = [&](const Phase& p) {
    out.values["cpu_us_per_op"] = p.cpu * 1e6 / static_cast<double>(p.ops);
    out.values["ops_per_s"] = static_cast<double>(p.ops) / p.wall;
    out.values["sim_cycles_per_s"] = static_cast<double>(p.sim_cycles) / p.wall;
    report_slices(p.ops_at, p.wall, out);
  };
  if (!o.trace) {
    e2e(phase(o.seconds, false));
  } else {
    const Phase plain = phase(o.seconds / 2, false);
    e2e(plain);
    obs::set_metrics(true);
    obs::set_spans(true);
    const auto c0 = counters();
    const FleetMark m0 = mark(pool->stats());
    const Phase traced = phase(o.seconds / 2, true);
    const runtime::FleetStats end = pool->stats();
    const auto c1 = counters();
    obs::set_spans(false);
    obs::set_metrics(false);
    report_path(traced.path, traced.run_ns, traced.wall, out);
    report_counters(c0, c1, traced.ops, out);
    report_overhead(plain.cpu, plain.ops, traced.cpu, traced.ops, out);
    const SimDelta d = sim_delta(m0, mark(end));
    out.values["runtime.stagings_per_op"] =
        static_cast<double>(d.stagings) / static_cast<double>(traced.ops);
    out.values["runtime.occupancy"] = d.occupancy();
    out.values["runtime.submit_batch_ms"] = quantile(traced.submit_ms, 0.5);
    out.values["isa.image_builds"] = static_cast<double>(end.image_cache.builds);
    out.values["isa.trace_compiles"] = static_cast<double>(end.trace_cache.compiled);
    report_standalone_kernels(o.seed, out);
  }
  out.values["peak_rss_mb"] = peak_rss_mb();
  return out;
}

} // namespace perfbench
