#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "goldens.hpp"
#include "obs/metrics.hpp"
#include "runtime/device.hpp"

namespace perfbench {

using namespace vwr2a;

void Outcome::fail(const std::string& why) {
  if (failed < 5) notes.push_back("FAILED: " + why);
  ++failed;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

std::uint64_t digest(const std::vector<std::int32_t>& words) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::int32_t w : words) {
    h = (h ^ static_cast<std::uint32_t>(w)) * 1099511628211ull;
  }
  return h;
}

std::uint64_t output_digest(const std::vector<std::int32_t>& words, bool corrupt) {
  if (!corrupt) return digest(words);
  std::vector<std::int32_t> bad = words;
  bad.at(0) ^= 1;
  return digest(bad);
}

std::vector<soc::ArchConfig> mixed_fleet(unsigned devices, cgra::ExecMode mode) {
  const soc::ArchConfig mix[] = {soc::ArchConfig{.exec_mode = mode},
                                 soc::ArchConfig{.vwr_count = 2, .exec_mode = mode},
                                 soc::ArchConfig{.vwr_count = 4, .exec_mode = mode},
                                 soc::ArchConfig{.simd_width = 16, .exec_mode = mode}};
  std::vector<soc::ArchConfig> out;
  for (unsigned d = 0; d < devices; ++d) out.push_back(mix[d % 4]);
  return out;
}

double effective_parallelism(unsigned threads) {
  // A fixed amount of dependent integer work per thread; with k real cores
  // `threads` copies take threads/k times as long as one.
  auto spin = [] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    static std::atomic<std::uint64_t> sink{0};
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  auto timed = [&](unsigned n) {
    const auto t0 = Clock::now();
    std::vector<std::thread> ts;
    for (unsigned i = 0; i < n; ++i) ts.emplace_back(spin);
    for (auto& t : ts) t.join();
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const double one = timed(1);
  const double many = timed(threads);
  return std::clamp(static_cast<double>(threads) * one / many, 0.0,
                    static_cast<double>(threads));
}

std::map<std::string, std::uint64_t> counters() {
  std::map<std::string, std::uint64_t> out;
  for (const obs::Registry::Entry& e : obs::Registry::get().entries()) {
    if (e.kind == obs::Registry::Entry::Kind::kCounter) out[e.name] = e.counter->value();
  }
  return out;
}

std::uint64_t counter_delta(const std::map<std::string, std::uint64_t>& a,
                            const std::map<std::string, std::uint64_t>& b,
                            const std::string& name) {
  const auto ib = b.find(name);
  if (ib == b.end()) return 0;
  const auto ia = a.find(name);
  return ib->second - (ia == a.end() ? 0 : ia->second);
}

FleetMark mark(const runtime::FleetStats& s) {
  return FleetMark{s.device_cycles, s.total_pj, s.stagings};
}

SimDelta sim_delta(const FleetMark& a, const FleetMark& b) {
  SimDelta d;
  d.devices = b.device_cycles.size();
  for (std::size_t i = 0; i < b.device_cycles.size(); ++i) {
    const Cycle c = b.device_cycles[i] - (i < a.device_cycles.size() ? a.device_cycles[i] : 0);
    d.total_cycles += c;
    d.makespan = std::max(d.makespan, c);
  }
  d.pj = b.pj - a.pj;
  d.stagings = b.stagings - a.stagings;
  return d;
}

double SimDelta::occupancy() const {
  if (makespan == 0 || devices == 0) return 0.0;
  return static_cast<double>(total_cycles) /
         (static_cast<double>(makespan) * static_cast<double>(devices));
}

double sim_ms(Cycle c) { return static_cast<double>(c) / arch::kClockHz * 1e3; }

void report_slices(const std::vector<OpSample>& ops, double wall_s, Outcome& out) {
  // kSliceS slices; a trailing part shorter than half a slice joins the last.
  constexpr double kSliceS = 0.25;
  const std::size_t n = std::max<std::size_t>(1, static_cast<std::size_t>(wall_s / kSliceS + 0.5));
  const double len = wall_s / static_cast<double>(n);
  std::vector<std::vector<double>> lat(n);
  for (const OpSample& s : ops) {
    const auto i = static_cast<std::size_t>(std::max(0.0, s.at_s) / len);
    lat[std::min(i, n - 1)].push_back(s.latency_ms);
  }
  std::vector<double> p50, p99;
  for (const auto& l : lat) {
    if (l.empty()) continue;
    p50.push_back(quantile(l, 0.50));
    p99.push_back(quantile(l, 0.99));
  }
  // The quiet tenth: host interference only ever slows a slice down.
  out.values["latency_p50_ms"] = quantile(p50, 0.10);
  out.values["latency_p99_ms"] = quantile(p99, 0.10);
}

void report_path(const std::vector<PathSample>& samples, double run_ns_sum,
                 double wall_s, Outcome& out) {
  std::vector<double> queue, run, deliver;
  for (const PathSample& s : samples) {
    queue.push_back(s.queue);
    run.push_back(s.run);
    deliver.push_back(s.deliver);
  }
  out.values["runtime.queue_us.p50"] = quantile(queue, 0.50) * 1e-3;
  out.values["runtime.queue_us.p99"] = quantile(queue, 0.99) * 1e-3;
  out.values["runtime.run_us.p50"] = quantile(run, 0.50) * 1e-3;
  out.values["runtime.deliver_us.p50"] = quantile(deliver, 0.50) * 1e-3;
  out.values["runtime.run_share"] = wall_s > 0 ? run_ns_sum * 1e-9 / wall_s : 0.0;

  // The median band: mean components of the windows around p50 latency.
  std::vector<PathSample> sorted = samples;
  std::sort(sorted.begin(), sorted.end(),
            [](const PathSample& a, const PathSample& b) { return a.latency < b.latency; });
  const std::size_t n = sorted.size();
  const std::size_t lo = n * 45 / 100, hi = std::max(lo + 1, n * 55 / 100);
  PathSample mean;
  double k = 0;
  for (std::size_t i = lo; i < std::min(hi, n); ++i, k += 1) {
    const PathSample& s = sorted[i];
    mean.latency += s.latency;
    mean.late += s.late;
    mean.handoff += s.handoff;
    mean.queue += s.queue;
    mean.run += s.run;
    mean.deliver += s.deliver;
  }
  const double scale = k > 0 ? 1e-3 / k : 0.0;  // ns sums -> mean us
  out.values["path.latency_us"] = mean.latency * scale;
  out.values["path.late_us"] = mean.late * scale;
  out.values["path.handoff_us"] = mean.handoff * scale;
  out.values["path.queue_us"] = mean.queue * scale;
  out.values["path.run_us"] = mean.run * scale;
  out.values["path.deliver_us"] = mean.deliver * scale;
  out.values["gateway.residual_us.p50"] = mean.residual() * scale;
}

void report_counters(const std::map<std::string, std::uint64_t>& a,
                     const std::map<std::string, std::uint64_t>& b,
                     std::uint64_t ops, Outcome& out) {
  auto d = [&](const char* name) {
    return static_cast<double>(counter_delta(a, b, name));
  };
  const double per_op = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  const double dec = d("fleet.replay_decoupled_cycles");
  const double lock = d("fleet.replay_lockstep_cycles");
  const double interp = d("fleet.replay_interpreted_cycles");
  const double launches = d("fleet.replay_traced_launches");
  const double done = d("fleet.jobs_completed");
  out.values["cgra.decoupled_share"] =
      dec + lock + interp > 0 ? dec / (dec + lock + interp) : 0.0;
  out.values["cgra.lockstep_cycles"] = lock * per_op;
  out.values["cgra.interpreted_cycles"] = interp * per_op;
  out.values["cgra.rollback_ratio"] =
      launches > 0 ? d("fleet.replay_rollbacks") / launches : 0.0;
  out.values["cgra.sync_points"] = d("fleet.replay_sync_points") * per_op;
  out.values["runtime.batched_share"] = done > 0 ? d("fleet.jobs_batched") / done : 0.0;
}

void report_overhead(double cpu_plain, std::uint64_t ops_plain,
                     double cpu_traced, std::uint64_t ops_traced,
                     Outcome& out) {
  if (ops_plain == 0 || ops_traced == 0 || cpu_plain <= 0) return;
  const double plain = cpu_plain / static_cast<double>(ops_plain);
  const double traced = cpu_traced / static_cast<double>(ops_traced);
  out.values["trace.overhead_pct"] = (traced / plain - 1.0) * 100.0;
}

void report_standalone_kernels(std::uint64_t seed, Outcome& out) {
  // One warm trace-mode device per family; each timed run alternates
  // between two distinct inputs so input dedup never skips staging.
  Rng rng(seed * 7919 + 17);
  struct Family {
    const char* name;
    CheckedJob a, b;
  };
  std::vector<Family> families;
  families.push_back({"fir", make_fir(512, rng), make_fir(512, rng)});
  families.push_back({"cfft", make_cfft(1024, rng), make_cfft(1024, rng)});
  families.push_back({"rfft", make_rfft(1024, rng), make_rfft(1024, rng)});
  families.push_back({"ifft", make_ifft(512, rng), make_ifft(512, rng)});
  families.push_back({"reduce", make_reduce(runtime::ReduceOp::kMax, 1024, rng),
                      make_reduce(runtime::ReduceOp::kMax, 1024, rng)});
  families.push_back({"delineation", make_delineation(1024, rng),
                      make_delineation(1024, rng)});
  families.push_back({"pipeline", make_pipeline(512, rng), make_pipeline(512, rng)});
  families.push_back({"bio", make_bio(rng), make_bio(rng)});
  constexpr int kReps = 24;
  for (Family& f : families) {
    isa::ImageCache cache;
    runtime::Device dev(0, cache, soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache});
    std::uint64_t seq = 0;
    dev.run(f.a.job, seq++);  // warm: assembly + trace compile
    dev.run(f.b.job, seq++);
    std::vector<double> us;
    for (int r = 0; r < kReps; ++r) {
      const CheckedJob& c = (r % 2 == 0) ? f.a : f.b;
      const auto t0 = Clock::now();
      const runtime::JobResult res = dev.run(c.job, seq++);
      us.push_back(std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
      ++out.attempted;
      if (digest(res.output) != c.golden) out.fail(std::string("standalone ") + f.name);
    }
    out.values[std::string("kernels.") + f.name + ".run_us"] = quantile(us, 0.5);
  }
}

} // namespace perfbench
