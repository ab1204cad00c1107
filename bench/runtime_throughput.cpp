// Runtime-pool throughput, three experiments:
//
//  1. Fleet scaling (simulated metric): a 1000-job FIR-11 batch (256 points
//     each) served by fleets of 1/2/4/8 devices, one worker per device.
//     Fleet throughput in jobs per *simulated* second scales with the
//     device count regardless of host cores (N independent VWR2A blocks).
//
//  2. Execution-engine speedup (host metric): the same batch on one device,
//     interpreted vs trace-cached. The trace cache must be bit-identical
//     (outputs), exactly cycle/energy-equal, and >= 5x faster in host
//     wall-clock -- the ceiling for every simulated cycle the fleet and
//     stream layers can deliver.
//
//  3. Sync-scheduled vs per-cycle lockstep replay (host metric): a cfft
//     batch -- its split stages read the partner column's SPM rows, the
//     lockstep-heaviest shape in the catalog -- on one trace-mode device,
//     with the replay tiers as compiled vs forced per-cycle lockstep
//     (Vwr2a::set_replay_lockstep_only, the pre-sync-plan behaviour).
//     Identity must hold and block-level dependence analysis must be
//     >= 1.5x faster in host wall-clock.
//
// All experiments append machine-readable records to BENCH_runtime.json
// (host wall-clock, simulated cycles per host second, makespan) for the
// nightly perf-trajectory artifact.

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/codec.hpp"
#include "runtime/device.hpp"
#include "runtime/pool.hpp"

int main() {
  using namespace vwr2a;
  using Clock = std::chrono::steady_clock;

  constexpr unsigned kJobs = 1000;
  constexpr unsigned kPoints = 256;
  constexpr unsigned kDistinctInputs = 25;

  // Shared immutable inputs: 25 distinct signals, 40 jobs each.
  Rng rng(17);
  const auto taps = runtime::make_buffer(dsp::fir11_lowpass_q15());
  std::vector<runtime::SharedBuffer> inputs;
  for (unsigned i = 0; i < kDistinctInputs; ++i) {
    std::vector<std::int32_t> x(kPoints);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    inputs.push_back(runtime::make_buffer(std::move(x)));
  }
  auto make_jobs = [&] {
    std::vector<runtime::Job> jobs;
    jobs.reserve(kJobs);
    for (unsigned j = 0; j < kJobs; ++j) {
      // Built in place: moving a temporary Job makes GCC 12 warn about the
      // variant's other alternatives (-Wmaybe-uninitialized).
      jobs.emplace_back().work =
          runtime::FirJob{kPoints, taps, inputs[j % kDistinctInputs]};
    }
    return jobs;
  };

  struct Run {
    runtime::FleetStats stats;
    cgra::ReplayStats replay;
    std::uint64_t output_hash = codec::kFnvBasis;  // FNV-1a
    double sys_pj_total = 0.0;
    Cycle job_cycles = 0;
    double wall_s = 0.0;
  };
  auto run_fleet = [&](unsigned devices, cgra::ExecMode mode) {
    runtime::DevicePool::Config cfg;
    cfg.devices = devices;  // one worker per device
    cfg.device_arch = {soc::ArchConfig{.exec_mode = mode}};
    runtime::DevicePool pool(cfg);
    const auto t0 = Clock::now();
    auto handles = pool.submit_batch(make_jobs());
    pool.wait_idle();
    Run r;
    r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    for (auto& h : handles) {
      const runtime::JobResult jr = h.get();
      for (std::int32_t w : jr.output) {
        r.output_hash =
            codec::fnv1a_word(r.output_hash, static_cast<std::uint32_t>(w));
      }
      r.job_cycles += jr.cost.vwr2a_cycles;
      r.sys_pj_total += jr.cost.total_pj();
    }
    r.stats = pool.stats();
    return r;
  };

  // ---- experiment 1: fleet scaling (interpreted reference engine) ----------
  bench::header("Runtime pool: 1000-job FIR-11/256 batch, fleet scaling");
  std::printf("  %-8s | %12s %14s | %10s %12s | %8s\n", "workers",
              "makespan cyc", "sim jobs/s", "wall ms", "wall jobs/s",
              "speedup");
  double base_sim_jps = 0.0;
  double sim_jps_at_4 = 0.0;
  for (unsigned workers : {1u, 2u, 4u, 8u}) {
    const Run r = run_fleet(workers, cgra::ExecMode::kInterpret);
    const double sim_jps = r.stats.jobs_per_sim_second();
    if (workers == 1) base_sim_jps = sim_jps;
    if (workers == 4) sim_jps_at_4 = sim_jps;
    std::printf("  %-8u | %12llu %14.0f | %10.1f %12.0f | %7.2fx\n", workers,
                static_cast<unsigned long long>(r.stats.fleet_makespan),
                sim_jps, r.wall_s * 1e3,
                static_cast<double>(r.stats.jobs_completed) / r.wall_s,
                base_sim_jps > 0 ? sim_jps / base_sim_jps : 1.0);
    bench::JsonRecord("runtime_throughput")
        .field("config", "fleet_x" + std::to_string(workers))
        .field("exec_mode", std::string("interpret"))
        .field("jobs", static_cast<std::uint64_t>(r.stats.jobs_completed))
        .field("makespan_cycles",
               static_cast<std::uint64_t>(r.stats.fleet_makespan))
        .field("wall_seconds", r.wall_s)
        .field("sim_cycles_per_host_second",
               static_cast<double>(r.stats.total_device_cycles) / r.wall_s)
        .field("sim_jobs_per_sim_second", sim_jps)
        .write();
  }
  const double fleet4 = base_sim_jps > 0 ? sim_jps_at_4 / base_sim_jps : 0.0;

  // ---- experiment 2: trace-cache speedup on one device ---------------------
  bench::header("Trace cache vs interpreter (1 device, same batch)");
  const Run interp = run_fleet(1, cgra::ExecMode::kInterpret);
  const Run traced = run_fleet(1, cgra::ExecMode::kTraceCache);
  auto row = [](const char* name, const Run& r) {
    std::printf("  %-12s | %12llu cyc | %8.1f ms | %10.0f sim-cyc/s\n", name,
                static_cast<unsigned long long>(r.stats.fleet_makespan),
                r.wall_s * 1e3,
                static_cast<double>(r.stats.fleet_makespan) / r.wall_s);
  };
  row("interpret", interp);
  row("trace-cache", traced);

  const bool identical = interp.output_hash == traced.output_hash &&
                         interp.stats.fleet_makespan ==
                             traced.stats.fleet_makespan &&
                         interp.job_cycles == traced.job_cycles &&
                         interp.sys_pj_total == traced.sys_pj_total &&
                         interp.stats.total_pj == traced.stats.total_pj;
  const double speedup = traced.wall_s > 0 ? interp.wall_s / traced.wall_s : 0.0;
  std::printf("\n  identity: %s (outputs, cycles, energy)\n",
              identical ? "bit-exact" : "MISMATCH");
  std::printf("  trace-cache host speedup: %.2fx (%s 5x target)\n", speedup,
              speedup >= 5.0 ? "meets" : "MISSES");
  for (const Run* r : {&interp, &traced}) {
    bench::JsonRecord("runtime_throughput")
        .field("config", std::string("exec_mode_1dev"))
        .field("exec_mode",
               std::string(r == &interp ? "interpret" : "trace_cache"))
        .field("jobs", static_cast<std::uint64_t>(r->stats.jobs_completed))
        .field("makespan_cycles",
               static_cast<std::uint64_t>(r->stats.fleet_makespan))
        .field("wall_seconds", r->wall_s)
        .field("sim_cycles_per_host_second",
               static_cast<double>(r->stats.fleet_makespan) / r->wall_s)
        .field("bit_identical", identical)
        .field("speedup_vs_interpret", r == &interp ? 1.0 : speedup)
        .write();
  }

  // ---- experiment 3: scheduled replay vs forced per-cycle lockstep ---------
  bench::header("Block-scheduled replay vs per-cycle lockstep (cfft-2048)");
  constexpr unsigned kFftJobs = 16;
  constexpr unsigned kFftN = 2048;
  std::vector<runtime::SharedBuffer> fft_inputs;
  for (unsigned i = 0; i < 6; ++i) {
    std::vector<std::int32_t> x(2 * kFftN);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.4, 0.4));
    fft_inputs.push_back(runtime::make_buffer(std::move(x)));
  }
  auto run_device = [&](cgra::ExecMode mode, bool lockstep_only) {
    isa::ImageCache cache;
    runtime::Device dev(0, cache, soc::ArchConfig{.exec_mode = mode});
    dev.platform().vwr2a().set_replay_lockstep_only(lockstep_only);
    Run r;
    const auto t0 = Clock::now();
    for (unsigned j = 0; j < kFftJobs; ++j) {
      const runtime::JobResult jr = dev.run(
          runtime::Job{runtime::CfftJob{kFftN, fft_inputs[j % 6]}, ""}, j);
      for (std::int32_t w : jr.output) {
        r.output_hash =
            codec::fnv1a_word(r.output_hash, static_cast<std::uint32_t>(w));
      }
      r.job_cycles += jr.cost.vwr2a_cycles;
      r.sys_pj_total += jr.cost.total_pj();
    }
    r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    r.replay = dev.figures().replay;
    return r;
  };
  const Run fft_interp = run_device(cgra::ExecMode::kInterpret, false);
  const Run fft_sched = run_device(cgra::ExecMode::kTraceCache, false);
  const Run fft_lock = run_device(cgra::ExecMode::kTraceCache, true);
  auto tier_row = [](const char* name, const Run& r) {
    const cgra::ReplayStats& t = r.replay;
    std::printf("  %-12s | %8.1f ms | dec %10llu lock %10llu interp %10llu | "
                "sync %llu\n",
                name, r.wall_s * 1e3,
                static_cast<unsigned long long>(t.replay_decoupled_cycles),
                static_cast<unsigned long long>(t.replay_lockstep_cycles),
                static_cast<unsigned long long>(t.replay_interpreted_cycles),
                static_cast<unsigned long long>(t.replay_sync_points));
  };
  tier_row("interpret", fft_interp);
  tier_row("scheduled", fft_sched);
  tier_row("lockstep", fft_lock);
  const bool fft_identical =
      fft_interp.output_hash == fft_sched.output_hash &&
      fft_sched.output_hash == fft_lock.output_hash &&
      fft_interp.job_cycles == fft_sched.job_cycles &&
      fft_sched.job_cycles == fft_lock.job_cycles &&
      fft_interp.sys_pj_total == fft_sched.sys_pj_total &&
      fft_sched.sys_pj_total == fft_lock.sys_pj_total;
  const double lockstep_speedup =
      fft_sched.wall_s > 0 ? fft_lock.wall_s / fft_sched.wall_s : 0.0;
  std::printf("\n  identity: %s (outputs, cycles, energy; 3 engines)\n",
              fft_identical ? "bit-exact" : "MISMATCH");
  std::printf("  scheduled-over-lockstep speedup: %.2fx (%s 1.5x target)\n",
              lockstep_speedup, lockstep_speedup >= 1.5 ? "meets" : "MISSES");
  const cgra::ReplayStats& sched = fft_sched.replay;
  bench::JsonRecord("runtime_throughput")
      .field("config", std::string("decoupled_lockstep"))
      .field("jobs", static_cast<std::uint64_t>(kFftJobs))
      .field("fft_n", static_cast<std::uint64_t>(kFftN))
      .field("wall_seconds_scheduled", fft_sched.wall_s)
      .field("wall_seconds_lockstep", fft_lock.wall_s)
      .field("wall_seconds_interpret", fft_interp.wall_s)
      .field("replay_decoupled_cycles", sched.replay_decoupled_cycles)
      .field("replay_lockstep_cycles", sched.replay_lockstep_cycles)
      .field("replay_interpreted_cycles", sched.replay_interpreted_cycles)
      .field("replay_sync_points", sched.replay_sync_points)
      .field("bit_identical", fft_identical)
      .field("speedup_vs_lockstep", lockstep_speedup)
      .write();

  std::printf("\n  4-worker fleet speedup: %.2fx (%s 2x target)\n", fleet4,
              fleet4 > 2.0 ? "meets" : "MISSES");
  return (fleet4 > 2.0 && identical && speedup >= 5.0 && fft_identical &&
          lockstep_speedup >= 1.5)
             ? 0
             : 1;
}
