// Runtime device pool: determinism across worker counts, bit-exactness
// against the fixed-point golden models, and kernel-image cache sharing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "app/mbiotracker.hpp"
#include "common/codec.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/pool.hpp"

namespace vwr2a::runtime {
namespace {

/// A reproducible mixed job set: FIR-11 at several sizes plus complex FFTs,
/// with per-job distinct inputs so result mix-ups are detectable.
std::vector<Job> make_mixed_jobs(unsigned count, unsigned seed) {
  Rng rng(seed);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  std::vector<Job> jobs;
  jobs.reserve(count);
  for (unsigned j = 0; j < count; ++j) {
    if (j % 4 == 3) {
      std::vector<std::int32_t> x(2 * 256);
      for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.4, 0.4));
      jobs.push_back(Job{CfftJob{256, make_buffer(std::move(x))},
                         "cfft#" + std::to_string(j)});
    } else {
      const unsigned n = 64 + 32 * (j % 3);
      std::vector<std::int32_t> x(n);
      for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
      jobs.push_back(Job{FirJob{n, taps, make_buffer(std::move(x))},
                         "fir#" + std::to_string(j)});
    }
  }
  return jobs;
}

/// A reproducible batch spanning the whole catalog, with a deterministic
/// mix of round-robin and pinned jobs.
std::vector<Job> make_catalog_jobs(unsigned count, unsigned seed,
                                   unsigned devices) {
  Rng rng(seed);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  std::vector<Job> jobs;
  jobs.reserve(count);
  for (unsigned j = 0; j < count; ++j) {
    Job job;
    switch (j % 5) {
      case 0: {
        std::vector<std::int32_t> x(128);
        for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
        job.work = FirJob{128, taps, make_buffer(std::move(x))};
        break;
      }
      case 1: {
        std::vector<std::int32_t> x(2 * 256);
        for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.4, 0.4));
        job.work = CfftJob{256, make_buffer(std::move(x))};
        break;
      }
      case 2: {
        std::vector<std::int32_t> x(512);
        for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.4, 0.4));
        job.work = RfftJob{512, make_buffer(std::move(x))};
        break;
      }
      case 3: {
        std::vector<std::int32_t> x(256);
        for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
        job.work = ReduceJob{static_cast<ReduceOp>(j % 4), 256,
                             make_buffer(std::move(x))};
        break;
      }
      default: {
        dsp::RespirationParams p;
        Rng sig(seed + j);
        job.work = DelineationJob{256, fx::to_q16_15(0.1),
                                  make_buffer(dsp::respiration_q16_15(256, p, sig))};
        break;
      }
    }
    job.tag = "job#" + std::to_string(j);
    if (j % 3 == 0) job.pin = static_cast<int>(j % devices);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<JobResult> run_all(unsigned devices, unsigned workers,
                               const std::vector<Job>& jobs,
                               std::vector<soc::ArchConfig> device_arch = {}) {
  DevicePool::Config cfg;
  cfg.devices = devices;
  cfg.workers = workers;
  cfg.device_arch = std::move(device_arch);
  DevicePool pool(cfg);
  auto handles = pool.submit_batch(jobs);
  std::vector<JobResult> results;
  results.reserve(handles.size());
  for (auto& h : handles) results.push_back(h.get());
  return results;
}

TEST(RuntimeDeterminism, ResultsIndependentOfWorkerCount) {
  const auto jobs = make_mixed_jobs(24, 11);
  const auto base = run_all(4, 1, jobs);
  for (unsigned workers : {2u, 8u}) {
    const auto got = run_all(4, workers, jobs);
    ASSERT_EQ(got.size(), base.size()) << workers << " workers";
    for (std::size_t j = 0; j < base.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j) + " with " +
                   std::to_string(workers) + " workers");
      EXPECT_EQ(got[j].seq, base[j].seq);
      EXPECT_EQ(got[j].device, base[j].device);
      EXPECT_EQ(got[j].output, base[j].output);  // bit-identical
      // Cycle- and energy-identical, engine by engine.
      EXPECT_EQ(got[j].cost.vwr2a_cycles, base[j].cost.vwr2a_cycles);
      EXPECT_EQ(got[j].cost.cpu_cycles, base[j].cost.cpu_cycles);
      EXPECT_EQ(got[j].cost.vwr2a_pj, base[j].cost.vwr2a_pj);
      EXPECT_EQ(got[j].cost.sys_pj, base[j].cost.sys_pj);
      EXPECT_EQ(got[j].launches, base[j].launches);
    }
  }
}

TEST(RuntimeDeterminism, SubmitMatchesSubmitBatch) {
  const auto jobs = make_mixed_jobs(12, 23);
  const auto batched = run_all(2, 2, jobs);

  DevicePool::Config cfg;
  cfg.devices = 2;
  DevicePool pool(cfg);
  std::vector<JobHandle> handles;
  for (const Job& job : jobs) handles.push_back(pool.submit(job));
  for (std::size_t j = 0; j < handles.size(); ++j) {
    JobResult r = handles[j].get();
    EXPECT_EQ(r.output, batched[j].output);
    EXPECT_EQ(r.cost.vwr2a_cycles, batched[j].cost.vwr2a_cycles);
    EXPECT_EQ(r.device, batched[j].device);
  }
}

TEST(RuntimePool, FirBitExactAgainstGolden) {
  Rng rng(5);
  const auto taps_vec = dsp::fir11_lowpass_q15();
  const auto taps = make_buffer(taps_vec);
  std::vector<std::vector<std::int32_t>> inputs;
  std::vector<Job> jobs;
  for (unsigned j = 0; j < 8; ++j) {
    const unsigned n = 100 + 13 * j;
    std::vector<std::int32_t> x(n);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    inputs.push_back(x);
    jobs.push_back(Job{FirJob{n, taps, make_buffer(std::move(x))}, ""});
  }
  DevicePool::Config cfg;
  cfg.devices = 3;
  DevicePool pool(cfg);
  auto handles = pool.submit_batch(std::move(jobs));
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const JobResult r = handles[j].get();
    EXPECT_EQ(r.output, dsp::fir_fx(inputs[j], taps_vec)) << "job " << j;
  }
}

TEST(RuntimePool, CfftBitExactAgainstGolden) {
  Rng rng(6);
  const unsigned n = 256;
  std::vector<dsp::CplxFx> x(n);
  std::vector<std::int32_t> interleaved(2 * n);
  for (unsigned i = 0; i < n; ++i) {
    x[i].re = fx::to_q16_15(rng.next_range(-0.4, 0.4));
    x[i].im = fx::to_q16_15(rng.next_range(-0.4, 0.4));
    interleaved[2 * i] = x[i].re;
    interleaved[2 * i + 1] = x[i].im;
  }
  DevicePool pool;
  JobHandle h = pool.submit(Job{CfftJob{n, make_buffer(interleaved)}, ""});
  const JobResult r = h.get();
  const auto golden = dsp::pease_fft_fx(x);
  ASSERT_EQ(r.output.size(), 2 * n);
  for (unsigned k = 0; k < n; ++k) {
    EXPECT_EQ(r.output[2 * k], golden[k].re) << "bin " << k;
    EXPECT_EQ(r.output[2 * k + 1], golden[k].im) << "bin " << k;
  }
}

TEST(RuntimeDeterminism, HeterogeneousFleetIndependentOfWorkerCount) {
  // A mixed-variant fleet (baseline, 2-VWR, 4-VWR, SIMD16) serving a
  // catalog-wide batch with pinned and round-robin jobs must be bit- and
  // cycle-identical for 1, 2 and 4 workers.
  const std::vector<soc::ArchConfig> fleet = {
      soc::ArchConfig{},
      soc::ArchConfig{.vwr_count = 2},
      soc::ArchConfig{.vwr_count = 4},
      soc::ArchConfig{.simd_width = 16},
  };
  const auto jobs = make_catalog_jobs(20, 77, 4);
  const auto base = run_all(4, 1, jobs, fleet);
  for (unsigned workers : {2u, 4u}) {
    const auto got = run_all(4, workers, jobs, fleet);
    ASSERT_EQ(got.size(), base.size()) << workers << " workers";
    for (std::size_t j = 0; j < base.size(); ++j) {
      SCOPED_TRACE("job " + std::to_string(j) + " with " +
                   std::to_string(workers) + " workers");
      EXPECT_EQ(got[j].seq, base[j].seq);
      EXPECT_EQ(got[j].device, base[j].device);
      EXPECT_EQ(got[j].output, base[j].output);  // bit-identical
      EXPECT_EQ(got[j].cost.vwr2a_cycles, base[j].cost.vwr2a_cycles);
      EXPECT_EQ(got[j].cost.cpu_cycles, base[j].cost.cpu_cycles);
      EXPECT_EQ(got[j].cost.vwr2a_pj, base[j].cost.vwr2a_pj);
      EXPECT_EQ(got[j].cost.sys_pj, base[j].cost.sys_pj);
      EXPECT_EQ(got[j].launches, base[j].launches);
      // Pinned jobs landed where they were pinned.
      if (jobs[j].pin >= 0) {
        EXPECT_EQ(got[j].device, static_cast<unsigned>(jobs[j].pin));
      }
    }
  }
}

TEST(RuntimePool, PinnedJobsRouteToTheirDevice) {
  DevicePool::Config cfg;
  cfg.devices = 3;
  DevicePool pool(cfg);
  Rng rng(5);
  std::vector<std::int32_t> x(64);
  for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  const auto buf = make_buffer(std::move(x));

  std::vector<JobHandle> handles;
  for (int d = 2; d >= 0; --d) {
    Job job{FirJob{64, taps, buf}, "pin" + std::to_string(d)};
    job.pin = d;
    handles.push_back(pool.submit(std::move(job)));
  }
  for (std::size_t i = 0; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].get().device, 2 - i);
  }

  // Out-of-range pins are rejected up front, batch-atomically.
  Job bad{FirJob{64, taps, buf}, "bad"};
  bad.pin = 3;
  EXPECT_THROW(pool.submit(bad), HostError);
  std::vector<Job> batch(2, Job{FirJob{64, taps, buf}, "ok"});
  batch.push_back(bad);
  EXPECT_THROW(pool.submit_batch(std::move(batch)), HostError);
  pool.wait_idle();
  EXPECT_EQ(pool.stats().jobs_completed, 3u);  // nothing from the bad batch
}

TEST(RuntimePool, ImageCacheDoesNotLeakAcrossVariants) {
  // The same pinned job set on a homogeneous and a mixed-variant 2-device
  // fleet: variants must never alias cache entries (misses double, zero
  // cross-variant hits), while a homogeneous fleet still assembles each
  // image once and shares it.
  auto pinned_jobs = [] {
    Rng rng(13);
    const auto taps = make_buffer(dsp::fir11_lowpass_q15());
    std::vector<std::int32_t> x(128);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    const auto buf = make_buffer(std::move(x));
    std::vector<Job> jobs;
    for (int d = 0; d < 2; ++d) {
      Job job{FirJob{128, taps, buf}, "d" + std::to_string(d)};
      job.pin = d;
      jobs.push_back(std::move(job));
    }
    return jobs;
  };
  auto run_fleet = [&](std::vector<soc::ArchConfig> arch) {
    DevicePool::Config cfg;
    cfg.devices = 2;
    cfg.device_arch = std::move(arch);
    DevicePool pool(cfg);
    for (auto& h : pool.submit_batch(pinned_jobs())) h.get();
    return pool.stats();
  };

  const FleetStats homo = run_fleet({});
  const FleetStats hetero = run_fleet(
      {soc::ArchConfig{}, soc::ArchConfig{.vwr_count = 2}});

  // Homogeneous: device 1 reuses every image device 0 assembled.
  EXPECT_EQ(homo.image_cache.misses, homo.image_cache.entries);
  EXPECT_GT(homo.image_cache.hits, 0u);
  // Heterogeneous: same job set, but every image is assembled once per
  // variant under its own namespace -- no sharing, no aliasing.
  EXPECT_EQ(hetero.image_cache.misses, hetero.image_cache.entries);
  EXPECT_EQ(hetero.image_cache.hits, 0u);
  EXPECT_EQ(hetero.image_cache.misses, 2 * homo.image_cache.misses);
  // Per-variant bookkeeping reaches the fleet stats.
  ASSERT_EQ(hetero.device_arch.size(), 2u);
  EXPECT_EQ(hetero.device_arch[0].vwr_count, 3u);
  EXPECT_EQ(hetero.device_arch[1].vwr_count, 2u);
  ASSERT_EQ(hetero.device_jobs.size(), 2u);
  EXPECT_EQ(hetero.device_jobs[0], 1u);
  EXPECT_EQ(hetero.device_jobs[1], 1u);
}

/// Load-aware scheduling: a batch alternating heavy (cfft-1024) and light
/// (fir-64) jobs is pathological for round-robin on two devices (every
/// heavy job lands on device 0). Shortest-local-clock must (a) leave
/// per-job outputs bit-identical, (b) stay worker-count invariant, and
/// (c) strictly tighten the fleet makespan.
TEST(RuntimeSchedule, ShortestLocalClockTightensSkewedBatch) {
  Rng rng(314);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  std::vector<Job> jobs;
  for (unsigned j = 0; j < 16; ++j) {
    if (j % 2 == 0) {
      std::vector<std::int32_t> x(2 * 1024);
      for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.4, 0.4));
      jobs.push_back(Job{CfftJob{1024, make_buffer(std::move(x))},
                         "heavy#" + std::to_string(j)});
    } else {
      std::vector<std::int32_t> x(64);
      for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
      jobs.push_back(Job{FirJob{64, taps, make_buffer(std::move(x))},
                         "light#" + std::to_string(j)});
    }
  }

  auto run_sched = [&jobs](Schedule sched, unsigned workers) {
    DevicePool::Config cfg;
    cfg.devices = 2;
    cfg.workers = workers;
    cfg.schedule = sched;
    DevicePool pool(cfg);
    auto handles = pool.submit_batch(jobs);
    std::vector<JobResult> results;
    for (auto& h : handles) results.push_back(h.get());
    return std::make_pair(std::move(results), pool.stats());
  };

  const auto [rr, rr_stats] = run_sched(Schedule::kRoundRobin, 2);
  const auto [slc, slc_stats] = run_sched(Schedule::kShortestLocalClock, 2);
  const auto [slc1, slc1_stats] = run_sched(Schedule::kShortestLocalClock, 1);

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE("job " + jobs[j].tag);
    // Round-robin placement is unchanged: seq % devices.
    EXPECT_EQ(rr[j].device, j % 2);
    // Outputs are placement-independent (homogeneous fleet)...
    EXPECT_EQ(slc[j].output, rr[j].output);
    // ...and shortest-local-clock is still worker-count deterministic.
    EXPECT_EQ(slc[j].device, slc1[j].device);
    EXPECT_EQ(slc[j].output, slc1[j].output);
    EXPECT_EQ(slc[j].cost.vwr2a_cycles, slc1[j].cost.vwr2a_cycles);
  }
  // Round-robin put all heavy jobs on device 0; the load-aware policy must
  // have split them, strictly tightening the makespan.
  std::uint64_t slc_heavy_dev1 = 0;
  for (std::size_t j = 0; j < jobs.size(); j += 2) {
    if (slc[j].device == 1) ++slc_heavy_dev1;
  }
  EXPECT_GT(slc_heavy_dev1, 0u);
  EXPECT_LT(slc_stats.fleet_makespan, rr_stats.fleet_makespan);
  EXPECT_EQ(slc_stats.fleet_makespan, slc1_stats.fleet_makespan);
}

/// Online per-family EWMA estimator: measured costs fold into the analytic
/// prior at fleet-quiescent points, deterministically.
TEST(RuntimeSchedule, OnlineEstimatorLearnsMeasuredCosts) {
  Rng rng(271);
  auto fir_job = [&rng] {
    std::vector<std::int32_t> x(256);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    return Job{FirJob{256, make_buffer(dsp::fir11_lowpass_q15()),
                      make_buffer(std::move(x))},
               "fir"};
  };
  const unsigned fam = static_cast<unsigned>(Job{FirJob{}, ""}.work.index());

  DevicePool::Config cfg;
  cfg.schedule = Schedule::kShortestLocalClock;
  DevicePool pool(cfg);
  const Job probe = fir_job();
  const Cycle prior = DevicePool::estimate_cost(probe);
  EXPECT_EQ(pool.estimate(probe), prior);  // nothing measured yet

  std::vector<Job> batch;
  for (int j = 0; j < 8; ++j) batch.push_back(fir_job());
  auto handles = pool.submit_batch(std::move(batch));
  Cycle measured_sum = 0;
  for (auto& h : handles) measured_sum += h.get().cost.total_cycles();
  // Factors are frozen until a quiescent fold.
  EXPECT_EQ(pool.family_factors()[fam], 1.0);
  pool.wait_idle();  // quiescent point: the fold happens here

  const double f = pool.family_factors()[fam];
  const double ratio = static_cast<double>(measured_sum) /
                       static_cast<double>(8 * prior);
  EXPECT_NE(f, 1.0);
  EXPECT_NEAR(f, 1.0 + 0.25 * (ratio - 1.0), 1e-9);  // one EWMA step
  // The learned estimate moved toward the measured per-job cost.
  const double mean = static_cast<double>(measured_sum) / 8.0;
  const double err_prior = std::abs(static_cast<double>(prior) - mean);
  const double err_learned =
      std::abs(static_cast<double>(pool.estimate(probe)) - mean);
  EXPECT_LT(err_learned, err_prior);

  // Off switch: the analytic prior is used unchanged.
  DevicePool::Config off_cfg;
  off_cfg.online_estimator = false;
  DevicePool off(off_cfg);
  off.submit(fir_job()).get();
  off.wait_idle();
  EXPECT_EQ(off.family_factors()[fam], 1.0);
  EXPECT_EQ(off.estimate(probe), prior);
}

/// Estimator folds must not break placement determinism: the same two-batch
/// sequence (barrier between batches) places identically regardless of the
/// worker count, because folds only happen at the barriers.
TEST(RuntimeSchedule, OnlineEstimatorIsWorkerCountInvariant) {
  auto run_workers = [](unsigned workers) {
    DevicePool::Config cfg;
    cfg.devices = 2;
    cfg.workers = workers;
    cfg.schedule = Schedule::kShortestLocalClock;
    DevicePool pool(cfg);
    std::vector<unsigned> devices;
    for (int round = 0; round < 2; ++round) {
      auto handles = pool.submit_batch(make_mixed_jobs(12, 47 + round));
      for (auto& h : handles) devices.push_back(h.get().device);
      pool.wait_idle();  // fold point between rounds
    }
    return std::make_pair(std::move(devices), pool.family_factors());
  };
  const auto [d1, f1] = run_workers(1);
  const auto [d4, f4] = run_workers(4);
  EXPECT_EQ(d1, d4);
  for (unsigned f = 0; f < kJobFamilies; ++f) {
    EXPECT_EQ(f1[f], f4[f]) << "family " << f;
  }
}

TEST(RuntimePool, ImageCacheAssemblesOncePerKernel) {
  const auto jobs = make_mixed_jobs(16, 31);
  DevicePool::Config cfg;
  cfg.devices = 4;
  DevicePool pool(cfg);
  for (auto& h : pool.submit_batch(jobs)) h.get();
  const FleetStats s = pool.stats();
  EXPECT_EQ(s.jobs_completed, jobs.size());
  EXPECT_EQ(s.jobs_failed, 0u);
  // Every image is assembled exactly once fleet-wide...
  EXPECT_EQ(s.image_cache.misses, s.image_cache.entries);
  // ...and the other devices reuse it: FftKernels alone registers 6 images
  // per device, so 4 devices must hit at least 3x6 times.
  EXPECT_GE(s.image_cache.hits, 18u);
  // All four devices did work and fleet time is the slowest device.
  ASSERT_EQ(s.device_cycles.size(), 4u);
  Cycle max_local = 0, sum_local = 0;
  for (Cycle c : s.device_cycles) {
    EXPECT_GT(c, 0u);
    max_local = std::max(max_local, c);
    sum_local += c;
  }
  EXPECT_EQ(s.fleet_makespan, max_local);
  EXPECT_EQ(s.total_device_cycles, sum_local);
  EXPECT_GT(s.jobs_per_sim_second(), 0.0);
}

/// One quantized respiration window for BioTracker jobs.
SharedBuffer make_bio_window(unsigned seed) {
  dsp::RespirationParams p;
  p.breath_hz = 0.2 + 0.05 * (seed % 5);
  Rng sig(seed);
  const auto xd = dsp::respiration(app::kWindow, p, sig);
  std::vector<std::int32_t> xq(app::kWindow);
  for (unsigned i = 0; i < app::kWindow; ++i) xq[i] = fx::to_q16_15(xd[i]);
  return make_buffer(std::move(xq));
}

/// A scripted kill at a job-count boundary rescues the dead device's queue
/// onto healthy devices with bit-identical outputs. One worker + max_batch 1
/// makes the schedule deterministic: the worker drains device 0's four jobs
/// first, the kill fires at completed == 4 while device 1 still holds its
/// whole queue, so exactly those four jobs are rescued.
TEST(RuntimeFaults, ScriptedKillRescuesQueuedJobsBitIdentically) {
  const auto jobs = make_mixed_jobs(16, 91);
  const auto reference = run_all(4, 1, jobs);

  DevicePool::Config cfg;
  cfg.devices = 4;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.faults.events.push_back(FaultEvent{1, 4, 0});
  DevicePool pool(cfg);
  auto handles = pool.submit_batch(jobs);
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const JobResult r = handles[j].get();  // nothing may fail
    EXPECT_EQ(r.output, reference[j].output) << "job " << j;
  }
  pool.wait_idle();
  const FleetStats s = pool.stats();
  EXPECT_EQ(s.jobs_completed, jobs.size());
  EXPECT_EQ(s.jobs_failed, 0u);
  EXPECT_EQ(s.devices_failed, 1u);
  EXPECT_EQ(s.devices_dead, 1u);
  EXPECT_EQ(s.jobs_rescued, 4u);
  ASSERT_EQ(s.device_dead.size(), 4u);
  EXPECT_EQ(s.device_dead[1], 1u);
  EXPECT_TRUE(pool.device_dead(1));
  // The dead device ran nothing after the kill point.
  EXPECT_EQ(s.device_jobs[1], 0u);
}

TEST(RuntimeFaults, PinsFollowFailoverAndReturnAfterRevive) {
  DevicePool::Config cfg;
  cfg.devices = 3;
  DevicePool pool(cfg);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  Rng rng(17);
  std::vector<std::int32_t> x(64);
  for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
  const auto buf = make_buffer(std::move(x));
  auto pinned = [&](int pin) {
    Job job{FirJob{64, taps, buf}, "pin"};
    job.pin = pin;
    return job;
  };

  const JobResult before = pool.submit(pinned(1)).get();
  EXPECT_EQ(before.device, 1u);
  pool.wait_idle();

  ASSERT_TRUE(pool.kill_device(1));
  EXPECT_FALSE(pool.kill_device(1));  // already dead
  const JobResult moved = pool.submit(pinned(1)).get();
  EXPECT_NE(moved.device, 1u);
  EXPECT_EQ(moved.output, before.output);  // placement-independent output

  ASSERT_TRUE(pool.revive_device(1));
  EXPECT_FALSE(pool.revive_device(1));  // already alive
  const JobResult back = pool.submit(pinned(1)).get();
  EXPECT_EQ(back.device, 1u);
  EXPECT_EQ(back.output, before.output);

  pool.wait_idle();
  const FleetStats s = pool.stats();
  EXPECT_EQ(s.devices_failed, 1u);
  EXPECT_EQ(s.devices_revived, 1u);
  EXPECT_EQ(s.devices_dead, 0u);
}

TEST(RuntimeFaults, ScriptedReviveRestoresRoundRobinRouting) {
  DevicePool::Config cfg;
  cfg.devices = 2;
  cfg.workers = 1;
  cfg.max_batch = 1;
  cfg.faults.events.push_back(FaultEvent{1, 2, 4});
  DevicePool pool(cfg);
  for (auto& h : pool.submit_batch(make_mixed_jobs(8, 33))) h.get();
  pool.wait_idle();  // completed = 8 >= 4: the revive has fired
  EXPECT_FALSE(pool.device_dead(1));
  const FleetStats s = pool.stats();
  EXPECT_EQ(s.devices_failed, 1u);
  EXPECT_EQ(s.devices_revived, 1u);
  // Round-robin routing uses the revived device again.
  Job job = make_mixed_jobs(2, 34)[1];
  job.pin = -1;
  std::vector<Job> probe(2, job);
  auto handles = pool.submit_batch(std::move(probe));
  bool hit_revived = false;
  for (auto& h : handles) hit_revived |= h.get().device == 1;
  EXPECT_TRUE(hit_revived);
}

TEST(RuntimeFaults, LastDeviceDeadFailsSubmissionCleanly) {
  DevicePool::Config cfg;
  cfg.devices = 1;
  DevicePool pool(cfg);
  ASSERT_TRUE(pool.kill_device(0));
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  const auto buf = make_buffer(std::vector<std::int32_t>(64, 1000));
  EXPECT_THROW(pool.submit(Job{FirJob{64, taps, buf}, ""}), HostError);
  // Revive brings the fleet back without a restart.
  ASSERT_TRUE(pool.revive_device(0));
  EXPECT_EQ(pool.submit(Job{FirJob{64, taps, buf}, ""}).get().device, 0u);
}

/// Checkpointed failover: the resident MBioTracker image of a dying device
/// is adopted by its failover target, so post-fault windows deliver
/// bit-identically to an uninterrupted run *and* skip the image re-staging.
TEST(RuntimeFaults, CheckpointCarriesResidentBioAcrossFailover) {
  std::vector<Job> windows;
  for (unsigned w = 0; w < 4; ++w) {
    Job job{BioTrackerJob{app::Target::kCpuVwr2a, make_bio_window(40 + w)},
            "w" + std::to_string(w)};
    job.pin = 0;
    windows.push_back(std::move(job));
  }

  // Reference: all four windows on one undisturbed device.
  std::vector<JobResult> ref;
  {
    DevicePool::Config cfg;
    cfg.devices = 2;
    DevicePool pool(cfg);
    for (auto& h : pool.submit_batch(windows)) ref.push_back(h.get());
    pool.wait_idle();
  }

  // Control: the last two windows served cold (fresh device, init runs).
  std::uint64_t cold_stagings = 0;
  {
    DevicePool::Config cfg;
    cfg.devices = 1;
    DevicePool pool(cfg);
    std::vector<Job> tail(windows.begin() + 2, windows.end());
    for (auto& t : tail) t.pin = 0;
    for (auto& h : pool.submit_batch(tail)) h.get();
    cold_stagings = pool.stats().device_stagings[0];
  }

  // Faulted run: two windows on device 0, kill it, two more windows whose
  // pin follows the failover chain onto device 1, which adopts the
  // checkpoint before running them.
  DevicePool::Config cfg;
  cfg.devices = 2;
  cfg.workers = 1;
  cfg.max_batch = 1;
  DevicePool pool(cfg);
  std::vector<JobResult> got;
  {
    std::vector<Job> head(windows.begin(), windows.begin() + 2);
    for (auto& h : pool.submit_batch(head)) got.push_back(h.get());
  }
  pool.wait_idle();
  ASSERT_TRUE(pool.kill_device(0));
  {
    std::vector<Job> tail(windows.begin() + 2, windows.end());
    for (auto& h : pool.submit_batch(tail)) got.push_back(h.get());
  }
  pool.wait_idle();

  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t w = 0; w < ref.size(); ++w) {
    EXPECT_EQ(got[w].output, ref[w].output) << "window " << w;
  }
  EXPECT_EQ(got[2].device, 1u);  // re-placed
  EXPECT_EQ(got[3].device, 1u);
  const FleetStats s = pool.stats();
  EXPECT_EQ(s.checkpoints_taken, 1u);
  EXPECT_EQ(s.checkpoints_restored, 1u);
  // The adopted image spared device 1 the init staging a cold device pays.
  EXPECT_LT(s.device_stagings[1], cold_stagings);
}

TEST(RuntimeFaults, CheckpointCodecRoundTripsAndRejectsCorruption) {
  DeviceCheckpoint c;
  c.arch = "vwr3-simd32";
  c.sys_base = 32768;
  c.bio_resident = true;
  c.write_gen = 9001;
  c.sram = {1u, 0xfffffffeu, 3u, 0xfffffffcu, 5u};
  SpmRowImage row;
  row.row = 7;
  row.stamp = 41;
  for (unsigned i = 0; i < arch::kVwrWords; ++i) {
    row.data[i] = static_cast<Word>(i * 2654435761u);
  }
  c.spm_rows.push_back(row);

  const std::vector<std::uint8_t> blob = encode_checkpoint(c);
  DeviceCheckpoint d;
  std::string why;
  ASSERT_TRUE(decode_checkpoint(blob, &d, &why)) << why;
  EXPECT_EQ(d.arch, c.arch);
  EXPECT_EQ(d.sys_base, c.sys_base);
  EXPECT_EQ(d.bio_resident, c.bio_resident);
  EXPECT_EQ(d.write_gen, c.write_gen);
  EXPECT_EQ(d.sram, c.sram);
  ASSERT_EQ(d.spm_rows.size(), 1u);
  EXPECT_EQ(d.spm_rows[0].row, row.row);
  EXPECT_EQ(d.spm_rows[0].stamp, row.stamp);
  EXPECT_EQ(d.spm_rows[0].data, row.data);

  // Every single-byte corruption of the payload is caught by the checksum
  // (prologue corruptions trip magic/version/checksum checks instead).
  for (std::size_t i = 0; i < blob.size(); i += 7) {
    std::vector<std::uint8_t> bad = blob;
    bad[i] ^= 0x40;
    EXPECT_FALSE(decode_checkpoint(bad, &d)) << "byte " << i;
  }
  // Truncations and trailing garbage are rejected too.
  std::vector<std::uint8_t> cut(blob.begin(), blob.end() - 3);
  EXPECT_FALSE(decode_checkpoint(cut, &d));
  std::vector<std::uint8_t> fat = blob;
  fat.push_back(0);
  EXPECT_FALSE(decode_checkpoint(fat, &d));
  EXPECT_FALSE(decode_checkpoint({}, &d));
}

/// A blob whose SRAM count lies but whose checksum was recomputed over the
/// edit passes the checksum, so only the decoder's count rule stands
/// between it and an over-read: counts just past the remaining bytes (but
/// inside the SRAM bound) and far past both must be rejected.
TEST(RuntimeFaults, CheckpointWithLyingSramCountIsRejected) {
  DeviceCheckpoint c;
  c.arch = "vwr2a";
  c.sram = {1u, 2u, 3u, 4u};
  SpmRowImage row;
  row.row = 3;
  c.spm_rows.push_back(row);
  const std::vector<std::uint8_t> blob = encode_checkpoint(c);
  constexpr std::size_t kPrologue = 8 + 4 + 8;
  // Payload: str arch, u32 sys_base, u8 bio_resident, u64 write_gen, then
  // the SRAM word count.
  const std::size_t count_off = kPrologue + 4 + c.arch.size() + 4 + 1 + 8;
  const std::size_t remaining = blob.size() - count_off - 4;
  const std::uint32_t lies[] = {static_cast<std::uint32_t>(remaining / 4 + 1),
                                arch::kSramBytes / 4, 0xffffffffu};
  for (const std::uint32_t lie : lies) {
    std::vector<std::uint8_t> bad = blob;
    codec::patch_u32(bad, count_off, lie);
    codec::patch_u64(bad, 12,
                     codec::fnv1a(bad.data() + kPrologue,
                                  bad.size() - kPrologue));
    DeviceCheckpoint d;
    std::string why;
    EXPECT_FALSE(decode_checkpoint(bad, &d, &why)) << "count " << lie;
    EXPECT_EQ(why, "checkpoint: SRAM region out of bounds") << "count " << lie;
  }
  // The same edit with the true count decodes: the offsets above are right.
  std::vector<std::uint8_t> same = blob;
  codec::patch_u32(same, count_off, static_cast<std::uint32_t>(c.sram.size()));
  DeviceCheckpoint d;
  std::string why;
  EXPECT_TRUE(decode_checkpoint(same, &d, &why)) << why;
  EXPECT_EQ(d.sram, c.sram);
}

TEST(RuntimeFaults, KillAndReviveUnderLoadNeverLosesAJob) {
  DevicePool::Config cfg;
  cfg.devices = 4;
  cfg.workers = 2;
  DevicePool pool(cfg);
  auto handles = pool.submit_batch(make_mixed_jobs(32, 55));
  pool.kill_device(2);  // lands wherever the fleet happens to be
  // A kill on a claimed device settles at its chunk boundary; revive is
  // refused until then.
  while (!pool.revive_device(2)) std::this_thread::yield();
  pool.kill_device(3);
  std::size_t delivered = 0;
  for (auto& h : handles) {
    try {
      h.get();
      ++delivered;
    } catch (const HostError&) {
      // only legal if the whole fleet was dead at rescue time -- it wasn't
      FAIL() << "job failed with healthy devices remaining";
    }
  }
  EXPECT_EQ(delivered, 32u);
  pool.wait_idle();
  const FleetStats s = pool.stats();
  EXPECT_EQ(s.jobs_completed, 32u);
  EXPECT_EQ(s.devices_failed, 2u);
  EXPECT_EQ(s.devices_revived, 1u);
  EXPECT_EQ(s.devices_dead, 1u);
}

/// peek_stats() is legal before any batch boundary (construction-fresh
/// caches) and concurrently with running workers -- the TSan CI job drives
/// this test; see .github/workflows/ci.yml.
TEST(RuntimePool, PeekStatsBeforeFirstBatchAndConcurrentWithWorkers) {
  DevicePool::Config cfg;
  cfg.devices = 2;
  DevicePool pool(cfg);

  const FleetStats fresh = pool.peek_stats();
  EXPECT_EQ(fresh.jobs_completed, 0u);
  EXPECT_EQ(fresh.devices_failed, 0u);
  EXPECT_EQ(fresh.devices_dead, 0u);
  ASSERT_EQ(fresh.device_dead.size(), 2u);
  EXPECT_EQ(fresh.device_dead[0] + fresh.device_dead[1], 0u);
  ASSERT_EQ(fresh.device_cycles.size(), 2u);
  EXPECT_EQ(fresh.fleet_makespan, 0u);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const FleetStats s = pool.peek_stats();
      ASSERT_EQ(s.device_dead.size(), 2u);
      ASSERT_LE(s.jobs_completed, 24u);
    }
  });
  auto handles = pool.submit_batch(make_mixed_jobs(24, 61));
  pool.kill_device(1);
  for (auto& h : handles) h.get();
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  pool.wait_idle();
  const FleetStats s = pool.stats();
  EXPECT_EQ(s.jobs_completed, 24u);
  EXPECT_EQ(s.devices_failed, 1u);
}

/// Fleet scaling: one 1000-job FIR-11/256 batch on 1/2/4/8 trace-mode
/// devices. Every fleet size must compute the same outputs, and since the
/// devices are independent VWR2A blocks the simulated throughput must scale
/// with the device count: 4 devices serve the batch in a quarter of the
/// 1-device makespan, up to the round-robin remainder.
TEST(RuntimeSchedule, FirBatchScalesWithFleetSize) {
  constexpr unsigned kJobs = 1000;
  constexpr unsigned kPoints = 256;
  Rng rng(17);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  std::vector<SharedBuffer> inputs;
  for (unsigned i = 0; i < 25; ++i) {
    std::vector<std::int32_t> x(kPoints);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    inputs.push_back(make_buffer(std::move(x)));
  }

  struct RunOut {
    std::vector<std::vector<std::int32_t>> outputs;
    FleetStats stats;
  };
  auto run_fleet = [&](unsigned devices) {
    DevicePool::Config cfg;
    cfg.devices = devices;
    cfg.device_arch = {
        soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache}};
    DevicePool pool(cfg);
    std::vector<Job> jobs;
    jobs.reserve(kJobs);
    for (unsigned j = 0; j < kJobs; ++j) {
      jobs.emplace_back().work = FirJob{kPoints, taps, inputs[j % 25]};
    }
    RunOut out;
    for (auto& h : pool.submit_batch(std::move(jobs))) {
      out.outputs.push_back(h.get().output);
    }
    out.stats = pool.stats();
    return out;
  };

  const RunOut one = run_fleet(1);
  ASSERT_EQ(one.stats.jobs_completed, kJobs);
  double jps_at_4 = 0.0;
  for (unsigned devices : {2u, 4u, 8u}) {
    SCOPED_TRACE(std::to_string(devices) + " devices");
    const RunOut got = run_fleet(devices);
    ASSERT_EQ(got.stats.jobs_completed, kJobs);
    for (unsigned j = 0; j < kJobs; ++j) {
      ASSERT_EQ(got.outputs[j], one.outputs[j]) << "job " << j;
    }
    if (devices == 4) jps_at_4 = got.stats.jobs_per_sim_second();
  }
  EXPECT_GE(jps_at_4 / one.stats.jobs_per_sim_second(), 3.99);
}

/// Trace-mode fleet identity: a homogeneous trace-mode fleet serving FIR
/// jobs in two rounds (the second on warm traces) must match an
/// interpret-mode fleet job for job -- placement, outputs, per-job cycles,
/// energy and launch counts -- and the fixed-point golden model. The
/// replay engine may only change host throughput and telemetry.
TEST(RuntimeTrace, TraceFleetFirMatchesInterpretBitCycleExact) {
  const auto taps_vec = dsp::fir11_lowpass_q15();
  const auto taps = make_buffer(taps_vec);
  auto make_round = [&taps](unsigned count, unsigned seed) {
    Rng rng(seed);
    std::vector<Job> jobs;
    for (unsigned j = 0; j < count; ++j) {
      std::vector<std::int32_t> x(128);
      for (auto& v : x) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
      jobs.push_back(Job{FirJob{128, taps, make_buffer(std::move(x))},
                         "fir#" + std::to_string(j)});
    }
    return jobs;
  };
  const auto round1 = make_round(8, 401);
  const auto round2 = make_round(8, 402);

  struct RunOut {
    std::vector<JobResult> results;
    FleetStats stats;
  };
  auto run_fleet = [&](bool trace) {
    DevicePool::Config cfg;
    cfg.devices = 4;
    cfg.workers = 1;
    if (trace) {
      cfg.device_arch.assign(
          4, soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache});
    }
    DevicePool pool(cfg);
    RunOut out;
    for (const auto* round : {&round1, &round2}) {
      auto handles = pool.submit_batch(*round);
      for (auto& h : handles) out.results.push_back(h.get());
      pool.wait_idle();  // round barrier: round-2 queues see warm traces
    }
    out.stats = pool.stats();
    return out;
  };

  const RunOut traced = run_fleet(true);
  const RunOut interp = run_fleet(false);

  ASSERT_EQ(traced.results.size(), 16u);
  ASSERT_EQ(interp.results.size(), 16u);
  for (std::size_t j = 0; j < traced.results.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    const auto& round = j < 8 ? round1 : round2;
    const auto& fir = std::get<FirJob>(round[j % 8].work);
    const JobResult& t = traced.results[j];
    const JobResult& i = interp.results[j];
    EXPECT_EQ(t.output, dsp::fir_fx(*fir.input, taps_vec));
    EXPECT_EQ(t.device, i.device);
    EXPECT_EQ(t.output, i.output);
    EXPECT_EQ(t.cost.vwr2a_cycles, i.cost.vwr2a_cycles);
    EXPECT_EQ(t.cost.cpu_cycles, i.cost.cpu_cycles);
    EXPECT_EQ(t.cost.vwr2a_pj, i.cost.vwr2a_pj);
    EXPECT_EQ(t.cost.sys_pj, i.cost.sys_pj);
    EXPECT_EQ(t.launches, i.launches);
  }

  // Traces compile statically at first kernel load, so every launch
  // replays (16 traced) and none rolls back; the interpret fleet never
  // traces.
  EXPECT_EQ(traced.stats.traced_launches, 16u);
  EXPECT_EQ(traced.stats.traced_rollbacks, 0u);
  EXPECT_GT(traced.stats.replay_decoupled_cycles, 0u);
  EXPECT_EQ(interp.stats.traced_launches, 0u);
  EXPECT_EQ(interp.stats.replay_decoupled_cycles, 0u);
}

/// Replay traffic of the whole job catalog, pinned per family. One
/// trace-mode device serves one job of each family in a fixed order; each
/// family's cgra::ReplayStats delta must match exactly: how many launches
/// replayed, how many column-cycles ran free (decoupled) and how many ran
/// line by line (sync blocks and the per-cycle lockstep pass), and how
/// many sync blocks were entered. No catalog kernel conflicts across
/// columns or faults, so no launch rolls back and the interpreter never
/// runs. A change to the replay schedule that moves work between tiers,
/// or sends a catalog kernel to the rollback path, fails here by name.
TEST(RuntimeTrace, CatalogReplayTrafficIsPinned) {
  struct Traffic {
    std::uint64_t launches, decoupled, lockstep, sync_points;
    bool operator==(const Traffic&) const = default;
  };
  struct Family {
    Job job;
    Traffic want;
  };
  Rng rng(601);
  auto samples = [&rng](unsigned n, double lim) {
    std::vector<std::int32_t> x(n);
    for (auto& v : x) v = fx::to_q16_15(rng.next_range(-lim, lim));
    return make_buffer(std::move(x));
  };
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  dsp::RespirationParams resp;
  resp.breath_hz = 0.3;
  Rng sig(602);
  const auto breath = make_buffer(dsp::respiration_q16_15(app::kWindow, resp, sig));
  const Family families[] = {
      {Job{FirJob{512, taps, samples(512, 0.9)}, "fir"}, {1, 2826, 0, 0}},
      {Job{CfftJob{256, samples(512, 0.4)}, "cfft256"}, {17, 4024, 64, 24}},
      {Job{CfftJob{2048, samples(4096, 0.4)}, "cfft2048"},
       {96, 37128, 0, 0}},
      {Job{RfftJob{1024, samples(1024, 0.4)}, "rfft"}, {23, 9862, 0, 0}},
      {Job{IfftJob{512, samples(1024, 0.4)}, "ifft"}, {24, 8320, 0, 0}},
      {Job{ReduceJob{ReduceOp::kMin, 512, samples(512, 0.95)}, "min"},
       {18, 5094, 0, 0}},
      {Job{ReduceJob{ReduceOp::kMax, 512, samples(512, 0.95)}, "max"},
       {18, 5094, 0, 0}},
      {Job{ReduceJob{ReduceOp::kMean, 512, samples(512, 0.95)}, "mean"},
       {1, 155, 0, 0}},
      {Job{ReduceJob{ReduceOp::kEnergy, 512, samples(512, 0.95)}, "energy"},
       {1, 283, 0, 0}},
      {Job{DelineationJob{app::kWindow, fx::to_q16_15(0.08), breath},
           "delineation"},
       {2, 8523, 0, 0}},
      {Job{PipelineJob{1024, taps, samples(1024, 0.4)}, "pipeline"},
       {25, 16055, 0, 0}},
      {Job{BioTrackerJob{app::Target::kCpuVwr2a, breath}, "bio"},
       {48, 22141, 0, 0}},
  };

  DevicePool::Config cfg;
  cfg.workers = 1;
  cfg.device_arch = {soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache}};
  DevicePool pool(cfg);
  cgra::ReplayStats before = pool.stats();
  for (const Family& f : families) {
    SCOPED_TRACE(f.job.tag);
    pool.submit(f.job).get();
    const cgra::ReplayStats after = pool.stats();
    const Traffic got{
        after.traced_launches - before.traced_launches,
        after.replay_decoupled_cycles - before.replay_decoupled_cycles,
        after.replay_lockstep_cycles - before.replay_lockstep_cycles,
        after.replay_sync_points - before.replay_sync_points};
    EXPECT_EQ(got, f.want) << "got {" << got.launches << ", " << got.decoupled
                           << ", " << got.lockstep << ", " << got.sync_points
                           << "}";
    EXPECT_EQ(after.traced_rollbacks, before.traced_rollbacks);
    EXPECT_EQ(after.replay_interpreted_cycles, before.replay_interpreted_cycles);
    before = after;
  }
}

} // namespace
} // namespace vwr2a::runtime
