// Differential tests for the full runtime job catalog: every Job variant on
// randomized inputs must bit-match its dsp::reference golden model (or a
// direct soc::Platform-driven run for the whole-app job), and a pool-served
// job must be indistinguishable -- output, launches, and the full
// cycle/energy snapshot delta -- from the same job run on a standalone
// Device.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "app/mbiotracker.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "runtime/pool.hpp"

namespace vwr2a::runtime {
namespace {

/// Runs one job through a fresh single-device pool -- twice, once per
/// execution engine -- and asserts the trace-cached run is bit-, cycle- and
/// energy-identical to the interpreted one. Every golden test in this suite
/// therefore differentially pins ExecMode::kTraceCache as a side effect.
JobResult run_one(Job job) {
  auto run_mode = [&job](cgra::ExecMode mode) {
    DevicePool::Config cfg;
    cfg.device_arch = {soc::ArchConfig{.exec_mode = mode}};
    DevicePool pool(cfg);
    return pool.submit(job).get();
  };
  JobResult a = run_mode(cgra::ExecMode::kInterpret);
  const JobResult b = run_mode(cgra::ExecMode::kTraceCache);
  EXPECT_EQ(a.output, b.output) << "trace-cache output diverges";
  EXPECT_EQ(a.launches, b.launches);
  EXPECT_EQ(a.cost.cpu_cycles, b.cost.cpu_cycles);
  EXPECT_EQ(a.cost.vwr2a_cycles, b.cost.vwr2a_cycles);
  EXPECT_EQ(a.cost.accel_cycles, b.cost.accel_cycles);
  EXPECT_EQ(a.cost.sys_pj, b.cost.sys_pj);
  EXPECT_EQ(a.cost.vwr2a_pj, b.cost.vwr2a_pj);
  EXPECT_EQ(a.cost.accel_pj, b.cost.accel_pj);
  return a;
}

std::vector<std::int32_t> random_q15(unsigned n, Rng& rng, double lim) {
  std::vector<std::int32_t> x(n);
  for (auto& v : x) v = fx::to_q16_15(rng.next_range(-lim, lim));
  return x;
}

TEST(RuntimeJobs, FirBitExactAgainstGolden) {
  Rng rng(101);
  const auto taps_vec = dsp::fir11_lowpass_q15();
  const auto taps = make_buffer(taps_vec);
  for (unsigned n : {64u, 300u, 512u}) {
    const auto x = random_q15(n, rng, 0.9);
    const JobResult r = run_one(Job{FirJob{n, taps, make_buffer(x)}, "fir"});
    EXPECT_EQ(r.output, dsp::fir_fx(x, taps_vec)) << "n " << n;
    EXPECT_GT(r.cost.vwr2a_cycles, 0u);
  }
}

TEST(RuntimeJobs, CfftBitExactAgainstGolden) {
  Rng rng(102);
  for (unsigned n : {256u, 512u, 2048u}) {
    std::vector<dsp::CplxFx> x(n);
    std::vector<std::int32_t> interleaved(2 * n);
    for (unsigned i = 0; i < n; ++i) {
      x[i].re = fx::to_q16_15(rng.next_range(-0.4, 0.4));
      x[i].im = fx::to_q16_15(rng.next_range(-0.4, 0.4));
      interleaved[2 * i] = x[i].re;
      interleaved[2 * i + 1] = x[i].im;
    }
    const JobResult r = run_one(Job{CfftJob{n, make_buffer(interleaved)}, ""});
    const auto golden = dsp::cfft_fx(x);
    ASSERT_EQ(r.output.size(), 2 * n) << "n " << n;
    for (unsigned k = 0; k < n; ++k) {
      ASSERT_EQ(r.output[2 * k], golden[k].re) << "n " << n << " bin " << k;
      ASSERT_EQ(r.output[2 * k + 1], golden[k].im) << "n " << n << " bin " << k;
    }
  }
}

TEST(RuntimeJobs, RfftBitExactAgainstGolden) {
  Rng rng(103);
  for (unsigned n : {512u, 1024u}) {
    const auto x = random_q15(n, rng, 0.4);
    const JobResult r = run_one(Job{RfftJob{n, make_buffer(x)}, "rfft"});
    const auto golden = dsp::rfft_fx(x);
    ASSERT_EQ(r.output.size(), n + 2) << "n " << n;
    for (unsigned k = 0; k <= n / 2; ++k) {
      ASSERT_EQ(r.output[2 * k], golden[k].re) << "n " << n << " bin " << k;
      ASSERT_EQ(r.output[2 * k + 1], golden[k].im) << "n " << n << " bin " << k;
    }
  }
}

TEST(RuntimeJobs, IfftBitExactAgainstGolden) {
  Rng rng(104);
  for (unsigned n : {256u, 512u}) {
    std::vector<dsp::CplxFx> x(n);
    std::vector<std::int32_t> interleaved(2 * n);
    for (unsigned i = 0; i < n; ++i) {
      x[i].re = fx::to_q16_15(rng.next_range(-0.4, 0.4));
      x[i].im = fx::to_q16_15(rng.next_range(-0.4, 0.4));
      interleaved[2 * i] = x[i].re;
      interleaved[2 * i + 1] = x[i].im;
    }
    const JobResult r = run_one(Job{IfftJob{n, make_buffer(interleaved)}, ""});
    const auto golden = dsp::pease_ifft_fx(x);
    ASSERT_EQ(r.output.size(), 2 * n) << "n " << n;
    for (unsigned k = 0; k < n; ++k) {
      ASSERT_EQ(r.output[2 * k], golden[k].re) << "n " << n << " bin " << k;
      ASSERT_EQ(r.output[2 * k + 1], golden[k].im) << "n " << n << " bin " << k;
    }
  }
}

TEST(RuntimeJobs, ReduceBitExactAgainstGolden) {
  Rng rng(105);
  for (unsigned n : {128u, 512u, 1024u}) {
    const auto x = random_q15(n, rng, 0.95);
    const auto b = make_buffer(x);
    const JobResult rmin = run_one(Job{ReduceJob{ReduceOp::kMin, n, b}, ""});
    const JobResult rmax = run_one(Job{ReduceJob{ReduceOp::kMax, n, b}, ""});
    const JobResult rmean = run_one(Job{ReduceJob{ReduceOp::kMean, n, b}, ""});
    const JobResult renergy =
        run_one(Job{ReduceJob{ReduceOp::kEnergy, n, b}, ""});
    ASSERT_EQ(rmin.output.size(), 1u);
    EXPECT_EQ(rmin.output[0], *std::min_element(x.begin(), x.end())) << n;
    EXPECT_EQ(rmax.output[0], *std::max_element(x.begin(), x.end())) << n;
    EXPECT_EQ(rmean.output[0], dsp::mean_i32(x)) << n;
    EXPECT_EQ(renergy.output[0], dsp::energy_fx(x)) << n;
    EXPECT_EQ(rmin.launches, kernels::kBisectLaunches);
    EXPECT_EQ(rmean.launches, 1u);
  }
}

TEST(RuntimeJobs, DelineationBitExactAgainstGolden) {
  Rng rng(106);
  const std::int32_t thr = fx::to_q16_15(0.08);
  for (unsigned n : {512u, 1024u}) {
    dsp::RespirationParams p;
    p.breath_hz = 0.3;
    const auto x = dsp::respiration_q16_15(n, p, rng);
    const JobResult r =
        run_one(Job{DelineationJob{n, thr, make_buffer(x)}, "delin"});
    const auto golden = dsp::delineate(x, thr);
    ASSERT_EQ(r.output.size(), golden.size()) << "n " << n;
    for (std::size_t i = 0; i < golden.size(); ++i) {
      EXPECT_EQ(r.output[i],
                static_cast<std::int32_t>((golden[i].index << 1) |
                                          (golden[i].is_max ? 1u : 0u)))
          << "n " << n << " record " << i;
    }
    EXPECT_EQ(r.launches, 2u);
  }
}

TEST(RuntimeJobs, BioTrackerMatchesDirectPlatformRun) {
  Rng rng(107);
  for (int trial = 0; trial < 2; ++trial) {
    dsp::RespirationParams p;
    p.breath_hz = (trial == 0) ? 0.18 : 0.55;  // relaxed vs loaded
    Rng sig(rng.next_u64());
    const auto xd = dsp::respiration(app::kWindow, p, sig);
    std::vector<std::int32_t> xq(app::kWindow);
    for (unsigned i = 0; i < app::kWindow; ++i) xq[i] = fx::to_q16_15(xd[i]);

    const JobResult r = run_one(
        Job{BioTrackerJob{app::Target::kCpuVwr2a, make_buffer(xq)}, "bio"});

    // Direct golden run: a fresh platform, the exact window the device saw
    // (quantize -> dequantize round trip).
    std::vector<double> x(app::kWindow);
    for (unsigned i = 0; i < app::kWindow; ++i) x[i] = fx::from_q16_15(xq[i]);
    soc::Platform plat;
    app::MBioTracker tracker(plat);
    tracker.init();
    const app::AppResult golden = tracker.run(app::Target::kCpuVwr2a, x);

    ASSERT_EQ(r.output.size(), 8u);
    EXPECT_EQ(r.output[0], golden.svm_class) << "trial " << trial;
    EXPECT_EQ(r.output[0], (trial == 0) ? -1 : 1) << "trial " << trial;
    EXPECT_EQ(r.output[1], static_cast<std::int32_t>(golden.extrema));
    const auto feats = golden.feat.as_vector();
    for (std::size_t i = 0; i < feats.size(); ++i) {
      EXPECT_EQ(r.output[2 + i], fx::to_q16_15(feats[i])) << "feature " << i;
    }
    EXPECT_GT(r.cost.total_cycles(), 0u);
  }
}

TEST(RuntimeJobs, BioTrackerCpuTargetsAgreeOnClass) {
  Rng rng(108);
  dsp::RespirationParams p;
  p.breath_hz = 0.5;
  const auto xd = dsp::respiration(app::kWindow, p, rng);
  std::vector<std::int32_t> xq(app::kWindow);
  for (unsigned i = 0; i < app::kWindow; ++i) xq[i] = fx::to_q16_15(xd[i]);
  const auto b = make_buffer(xq);

  const JobResult vwr = run_one(Job{BioTrackerJob{app::Target::kCpuVwr2a, b}, ""});
  const JobResult cpu = run_one(Job{BioTrackerJob{app::Target::kCpu, b}, ""});
  const JobResult acc =
      run_one(Job{BioTrackerJob{app::Target::kCpuFftAccel, b}, ""});
  EXPECT_EQ(vwr.output[0], cpu.output[0]);
  EXPECT_EQ(vwr.output[0], acc.output[0]);
  // Only the accelerated target touches the fixed-function FFT engine.
  EXPECT_GT(acc.cost.accel_cycles, 0u);
  EXPECT_EQ(cpu.cost.accel_cycles, 0u);
}

TEST(RuntimeJobs, PipelineBitExactAgainstGolden) {
  Rng rng(111);
  const auto taps_vec = dsp::fir11_lowpass_q15();
  const auto taps = make_buffer(taps_vec);
  for (unsigned n : {512u, 1024u}) {
    const auto x = random_q15(n, rng, 0.4);
    const JobResult r =
        run_one(Job{PipelineJob{n, taps, make_buffer(x)}, "pipe"});
    const auto filt = dsp::fir_fx(x, taps_vec);
    const auto spec = dsp::rfft_fx(filt);
    ASSERT_EQ(r.output.size(), n + 3) << "n " << n;
    EXPECT_EQ(r.output[0], dsp::energy_fx(filt)) << "n " << n;
    for (unsigned k = 0; k <= n / 2; ++k) {
      ASSERT_EQ(r.output[1 + 2 * k], spec[k].re) << "n " << n << " bin " << k;
      ASSERT_EQ(r.output[2 + 2 * k], spec[k].im) << "n " << n << " bin " << k;
    }
    EXPECT_GT(r.cost.vwr2a_cycles, 0u);
  }
}

/// SPM residency: a second BioTracker window on the same device skips the
/// resident-image re-init -- outputs stay bit-identical and the cost drops
/// by *exactly* the re-init delta -- unless an intervening job clobbered
/// the mask rows, in which case the full re-init price returns.
TEST(RuntimeJobs, BioResidencySkipsReinitWithExactDelta) {
  Rng rng(112);
  auto window = [&rng](double hz, unsigned seed) {
    dsp::RespirationParams p;
    p.breath_hz = hz;
    Rng sig(seed);
    const auto xd = dsp::respiration(app::kWindow, p, sig);
    std::vector<std::int32_t> xq(app::kWindow);
    for (unsigned i = 0; i < app::kWindow; ++i) xq[i] = fx::to_q16_15(xd[i]);
    return make_buffer(xq);
  };
  const auto w1 = window(0.2, 41), w2 = window(0.5, 42);

  auto run_two = [&](bool residency, std::optional<Job> middle = {}) {
    DevicePool::Config cfg;
    cfg.device_opts.residency = residency;
    DevicePool pool(cfg);
    std::vector<Job> jobs;
    jobs.push_back(Job{BioTrackerJob{app::Target::kCpuVwr2a, w1}, "bio1"});
    if (middle) jobs.push_back(*middle);
    jobs.push_back(Job{BioTrackerJob{app::Target::kCpuVwr2a, w2}, "bio2"});
    auto handles = pool.submit_batch(std::move(jobs));
    std::vector<JobResult> rs;
    for (auto& h : handles) rs.push_back(h.get());
    return rs;
  };

  // The exact re-init cost, measured on a direct platform with the same
  // history (init + one window, then a second init).
  soc::Platform plat;
  app::MBioTracker tracker(plat);
  tracker.init();
  {
    std::vector<double> x(app::kWindow);
    for (unsigned i = 0; i < app::kWindow; ++i) {
      x[i] = fx::from_q16_15((*w1)[i]);
    }
    tracker.run(app::Target::kCpuVwr2a, x);
  }
  const auto s0 = plat.snapshot();
  tracker.init();
  const auto reinit = soc::Platform::delta(s0, plat.snapshot());
  ASSERT_GT(reinit.total_cycles(), 0u);

  const auto on = run_two(true);
  const auto off = run_two(false);
  ASSERT_EQ(on.size(), 2u);
  // Window 1 always stages; outputs never depend on residency.
  EXPECT_EQ(on[0].output, off[0].output);
  EXPECT_EQ(on[0].cost.cpu_cycles, off[0].cost.cpu_cycles);
  EXPECT_EQ(on[0].cost.vwr2a_cycles, off[0].cost.vwr2a_cycles);
  EXPECT_EQ(on[1].output, off[1].output);
  // Window 2 skipped the re-init: exactly the measured delta, cycle and
  // energy, engine by engine.
  EXPECT_EQ(off[1].cost.cpu_cycles - on[1].cost.cpu_cycles,
            reinit.cpu_cycles);
  EXPECT_EQ(off[1].cost.vwr2a_cycles - on[1].cost.vwr2a_cycles,
            reinit.vwr2a_cycles);
  EXPECT_EQ(off[1].cost.sys_pj - on[1].cost.sys_pj, reinit.sys_pj);
  EXPECT_EQ(off[1].cost.vwr2a_pj - on[1].cost.vwr2a_pj, reinit.vwr2a_pj);

  // A 4096-point reduction stages SPM rows 0..31, clobbering the resp-band
  // mask rows: the next window must pay the re-init again.
  Rng rng2(43);
  std::vector<std::int32_t> big(4096);
  for (auto& v : big) v = fx::to_q16_15(rng2.next_range(-0.9, 0.9));
  Job clobber{ReduceJob{ReduceOp::kEnergy, 4096, make_buffer(big)}, "clobber"};
  const auto clobbered = run_two(true, clobber);
  ASSERT_EQ(clobbered.size(), 3u);
  EXPECT_EQ(clobbered[2].output, on[1].output);
  EXPECT_EQ(clobbered[2].cost.vwr2a_cycles,
            on[1].cost.vwr2a_cycles + reinit.vwr2a_cycles);

  // A small FIR job (rows 0..1) does not touch the mask rows: the skip
  // survives it.
  Rng rng3(44);
  std::vector<std::int32_t> small(128);
  for (auto& v : small) v = fx::to_q16_15(rng3.next_range(-0.9, 0.9));
  Job benign{FirJob{128, make_buffer(dsp::fir11_lowpass_q15()),
                    make_buffer(small)},
             "benign"};
  const auto survived = run_two(true, benign);
  ASSERT_EQ(survived.size(), 3u);
  EXPECT_EQ(survived[2].output, on[1].output);
  EXPECT_EQ(survived[2].cost.vwr2a_cycles, on[1].cost.vwr2a_cycles);
}

/// Cross-job SRAM dedup: jobs of one batch sharing the same SharedBuffer
/// stage the region once per device; distinct (even identical-content)
/// buffers stage every time.
TEST(RuntimeJobs, SharedBufferStagedOncePerDevice) {
  Rng rng(113);
  const auto x = random_q15(512, rng, 0.9);

  auto staging_count = [](const std::vector<Job>& jobs, bool dedup) {
    DevicePool::Config cfg;
    cfg.device_opts.dedup = dedup;
    DevicePool pool(cfg);
    std::vector<std::vector<std::int32_t>> outs;
    for (auto& h : pool.submit_batch(jobs)) outs.push_back(h.get().output);
    return std::make_pair(pool.stats().stagings, std::move(outs));
  };

  // Four energy reductions over ONE shared buffer: staged once.
  const auto shared = make_buffer(x);
  std::vector<Job> same(4, Job{ReduceJob{ReduceOp::kEnergy, 512, shared}, ""});
  const auto [shared_stagings, shared_outs] = staging_count(same, true);
  EXPECT_EQ(shared_stagings, 1u);

  // The same four jobs with per-job buffers (identical content): staged
  // every time -- and identical outputs either way.
  std::vector<Job> distinct;
  for (int j = 0; j < 4; ++j) {
    distinct.push_back(Job{ReduceJob{ReduceOp::kEnergy, 512, make_buffer(x)}, ""});
  }
  const auto [distinct_stagings, distinct_outs] = staging_count(distinct, true);
  EXPECT_EQ(distinct_stagings, 4u);
  EXPECT_EQ(shared_outs, distinct_outs);
  // Dedup off: the shared batch pays full price too.
  const auto [nodedup_stagings, nodedup_outs] = staging_count(same, false);
  EXPECT_EQ(nodedup_stagings, 4u);
  EXPECT_EQ(nodedup_outs, shared_outs);

  // FIR taps: three jobs sharing one taps buffer stage taps once (inputs
  // are distinct, so 3 input stagings + 1 tap staging).
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  std::vector<Job> firs;
  for (unsigned j = 0; j < 3; ++j) {
    firs.push_back(
        Job{FirJob{128, taps, make_buffer(random_q15(128, rng, 0.9))}, ""});
  }
  const auto [fir_stagings, fir_outs] = staging_count(firs, true);
  EXPECT_EQ(fir_stagings, 4u);
  const auto [fir_full, fir_full_outs] = staging_count(firs, false);
  EXPECT_EQ(fir_full, 6u);
  EXPECT_EQ(fir_outs, fir_full_outs);
}

/// The pool must be a transparent executor: a job served by a 1-device pool
/// is indistinguishable -- output, launches, and every field of the
/// cycle/energy snapshot delta -- from the same job stream run directly on
/// a standalone Device.
TEST(RuntimeJobs, PoolCostDeltasMatchStandaloneDevice) {
  Rng rng(109);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  dsp::RespirationParams p;
  Rng sig1(77);
  const auto resp = dsp::respiration_q16_15(512, p, sig1);
  std::vector<std::int32_t> window_q(app::kWindow);
  {
    Rng sigw(78);
    const auto xd = dsp::respiration(app::kWindow, p, sigw);
    for (unsigned i = 0; i < app::kWindow; ++i) {
      window_q[i] = fx::to_q16_15(xd[i]);
    }
  }
  std::vector<Job> jobs;
  jobs.push_back(Job{FirJob{256, taps, make_buffer(random_q15(256, rng, 0.9))},
                     "fir"});
  jobs.push_back(
      Job{CfftJob{256, make_buffer(random_q15(512, rng, 0.4))}, "cfft"});
  jobs.push_back(
      Job{RfftJob{512, make_buffer(random_q15(512, rng, 0.4))}, "rfft"});
  jobs.push_back(
      Job{IfftJob{256, make_buffer(random_q15(512, rng, 0.4))}, "ifft"});
  jobs.push_back(Job{ReduceJob{ReduceOp::kEnergy, 512,
                               make_buffer(random_q15(512, rng, 0.9))},
                     "reduce"});
  jobs.push_back(Job{DelineationJob{512, fx::to_q16_15(0.08),
                                    make_buffer(resp)},
                     "delin"});
  jobs.push_back(
      Job{BioTrackerJob{app::Target::kCpuVwr2a, make_buffer(window_q)}, "bio"});

  DevicePool pool;  // one device: jobs run in submission order
  auto handles = pool.submit_batch(jobs);

  isa::ImageCache cache;
  Device dev(0, cache);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    SCOPED_TRACE("job " + jobs[j].tag);
    const JobResult got = handles[j].get();
    const JobResult want = dev.run(jobs[j], j);
    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.launches, want.launches);
    EXPECT_EQ(got.cost.cpu_cycles, want.cost.cpu_cycles);
    EXPECT_EQ(got.cost.vwr2a_cycles, want.cost.vwr2a_cycles);
    EXPECT_EQ(got.cost.accel_cycles, want.cost.accel_cycles);
    EXPECT_EQ(got.cost.sys_pj, want.cost.sys_pj);
    EXPECT_EQ(got.cost.vwr2a_pj, want.cost.vwr2a_pj);
    EXPECT_EQ(got.cost.accel_pj, want.cost.accel_pj);
  }
}

/// Cross-job interactions (SPM residency, staging dedup, resident app
/// images) depend on SPM row stamps; the trace-cached engine renumbers
/// stamp values inside a kernel (decoupled columns) but must preserve every
/// residency predicate -- so a whole job SEQUENCE, not just one job, has to
/// cost exactly the same in both modes.
TEST(RuntimeJobs, TraceCacheSequenceCostsIdentical) {
  Rng rng(114);
  const auto taps = make_buffer(dsp::fir11_lowpass_q15());
  auto window = [](double hz, unsigned seed) {
    dsp::RespirationParams p;
    p.breath_hz = hz;
    Rng sig(seed);
    const auto xd = dsp::respiration(app::kWindow, p, sig);
    std::vector<std::int32_t> xq(app::kWindow);
    for (unsigned i = 0; i < app::kWindow; ++i) xq[i] = fx::to_q16_15(xd[i]);
    return make_buffer(xq);
  };
  std::vector<std::int32_t> big(4096);
  for (auto& v : big) v = fx::to_q16_15(rng.next_range(-0.9, 0.9));
  const auto shared_in = make_buffer(random_q15(512, rng, 0.9));

  // Residency-sensitive sequence: two bio windows (second skips re-init),
  // a mask-clobbering reduction, a third window (pays re-init again), two
  // reductions over one shared buffer (second dedups staging), a pipeline.
  std::vector<Job> jobs;
  jobs.push_back(Job{BioTrackerJob{app::Target::kCpuVwr2a, window(0.2, 51)}, "b1"});
  jobs.push_back(Job{BioTrackerJob{app::Target::kCpuVwr2a, window(0.5, 52)}, "b2"});
  jobs.push_back(Job{ReduceJob{ReduceOp::kEnergy, 4096, make_buffer(big)}, "clob"});
  jobs.push_back(Job{BioTrackerJob{app::Target::kCpuVwr2a, window(0.3, 53)}, "b3"});
  jobs.push_back(Job{ReduceJob{ReduceOp::kMin, 512, shared_in}, "r1"});
  jobs.push_back(Job{ReduceJob{ReduceOp::kMin, 512, shared_in}, "r2"});
  jobs.push_back(Job{PipelineJob{512, taps, make_buffer(random_q15(512, rng, 0.4))},
                     "pipe"});

  auto run_mode = [&jobs](cgra::ExecMode mode) {
    DevicePool::Config cfg;
    cfg.device_arch = {soc::ArchConfig{.exec_mode = mode}};
    DevicePool pool(cfg);
    std::vector<JobResult> rs;
    for (auto& h : pool.submit_batch(jobs)) rs.push_back(h.get());
    return std::make_pair(std::move(rs), pool.stats().stagings);
  };
  const auto [ri, si] = run_mode(cgra::ExecMode::kInterpret);
  const auto [rt, st] = run_mode(cgra::ExecMode::kTraceCache);
  EXPECT_EQ(si, st);  // identical staging/residency decisions
  ASSERT_EQ(ri.size(), rt.size());
  for (std::size_t j = 0; j < ri.size(); ++j) {
    SCOPED_TRACE("job " + ri[j].tag);
    EXPECT_EQ(ri[j].output, rt[j].output);
    EXPECT_EQ(ri[j].launches, rt[j].launches);
    EXPECT_EQ(ri[j].cost.cpu_cycles, rt[j].cost.cpu_cycles);
    EXPECT_EQ(ri[j].cost.vwr2a_cycles, rt[j].cost.vwr2a_cycles);
    EXPECT_EQ(ri[j].cost.sys_pj, rt[j].cost.sys_pj);
    EXPECT_EQ(ri[j].cost.vwr2a_pj, rt[j].cost.vwr2a_pj);
  }
}

/// Architecture variants change cost, not bits: the same catalog must
/// produce identical outputs on every variant, with the expected cost-model
/// direction (2 VWRs slower than 3, SIMD16 cheaper in datapath cycles).
TEST(RuntimeJobs, VariantsBitIdenticalWithModelledCosts) {
  Rng rng(110);
  const auto x = make_buffer(random_q15(512, rng, 0.4));
  auto run_variant = [&x](const soc::ArchConfig& arch) {
    DevicePool::Config cfg;
    cfg.devices = 1;
    cfg.device_arch = {arch};
    DevicePool pool(cfg);
    return pool.submit(Job{CfftJob{256, x}, "cfft"}).get();
  };
  const JobResult base = run_variant(soc::ArchConfig{});
  const JobResult vwr2 = run_variant(soc::ArchConfig{.vwr_count = 2});
  const JobResult vwr4 = run_variant(soc::ArchConfig{.vwr_count = 4});
  const JobResult simd = run_variant(soc::ArchConfig{.simd_width = 16});

  EXPECT_EQ(base.output, vwr2.output);
  EXPECT_EQ(base.output, vwr4.output);
  EXPECT_EQ(base.output, simd.output);
  // Sec 3.2: 2 VWRs pay SPM round trips; 4 VWRs save twiddle reloads.
  EXPECT_GT(vwr2.cost.vwr2a_cycles, base.cost.vwr2a_cycles);
  EXPECT_LT(vwr4.cost.vwr2a_cycles, base.cost.vwr2a_cycles);
  // Sec 5.1.1: dual-lane 16-bit mode halves the elementwise ALU cycles.
  EXPECT_LT(simd.cost.vwr2a_cycles, base.cost.vwr2a_cycles);
  EXPECT_LT(simd.cost.vwr2a_pj, base.cost.vwr2a_pj);
}

} // namespace
} // namespace vwr2a::runtime
