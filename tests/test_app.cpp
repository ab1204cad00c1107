// End-to-end MBioTracker application on all three platform configurations:
// functional agreement (same class, close features) and the paper's Table 5
// shape (VWR2A >> CPU; the FFT accelerator only helps feature extraction).

#include <gtest/gtest.h>

#include <cmath>

#include "app/mbiotracker.hpp"
#include "common/rng.hpp"
#include "dsp/signal.hpp"
#include "soc/platform.hpp"

namespace vwr2a::app {
namespace {

std::vector<double> make_window(double breath_hz, Rng& rng) {
  dsp::RespirationParams p;
  p.breath_hz = breath_hz;
  return dsp::respiration(kWindow, p, rng);
}

TEST(App, PlatformsAgreeOnClass) {
  Rng rng(42);
  unsigned agree = 0, total = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const double hz = (trial % 2 == 0) ? 0.18 : 0.55;  // relaxed vs loaded
    const auto x = make_window(hz, rng);
    soc::Platform p1, p2, p3;
    MBioTracker a1(p1), a2(p2), a3(p3);
    a1.init();
    a2.init();
    a3.init();
    const auto r_cpu = a1.run(Target::kCpu, x);
    const auto r_acc = a2.run(Target::kCpuFftAccel, x);
    const auto r_vwr = a3.run(Target::kCpuVwr2a, x);
    ++total;
    if (r_cpu.svm_class == r_vwr.svm_class && r_cpu.svm_class == r_acc.svm_class) {
      ++agree;
    }
    // Slow breathing should classify low, fast high (decisive margins by
    // construction of the SVM model).
    EXPECT_EQ(r_cpu.svm_class, (trial % 2 == 0) ? -1 : 1) << "trial " << trial;
    // Features must be numerically close across number formats.
    EXPECT_NEAR(r_cpu.feat.rms, r_vwr.feat.rms, 0.05);
    EXPECT_NEAR(r_cpu.feat.breath_rate, r_vwr.feat.breath_rate, 0.26);
    EXPECT_NEAR(r_cpu.feat.resp_ratio, r_vwr.feat.resp_ratio, 0.15);
  }
  EXPECT_EQ(agree, total);
}

TEST(App, Table5Shape) {
  Rng rng(7);
  const auto x = make_window(0.25, rng);
  soc::Platform p1, p2, p3;
  MBioTracker a1(p1), a2(p2), a3(p3);
  a1.init();
  a2.init();
  a3.init();
  const auto r_cpu = a1.run(Target::kCpu, x);
  const auto r_acc = a2.run(Target::kCpuFftAccel, x);
  const auto r_vwr = a3.run(Target::kCpuVwr2a, x);

  // Paper Table 5 shape:
  //  * preprocessing / delineation identical for CPU and CPU+FFT-ACCEL.
  EXPECT_EQ(r_cpu.preprocessing.cycles, r_acc.preprocessing.cycles);
  EXPECT_EQ(r_cpu.delineation.cycles, r_acc.delineation.cycles);
  //  * the accelerator helps only feature extraction, and only somewhat.
  EXPECT_LT(r_acc.features.cycles, r_cpu.features.cycles);
  EXPECT_GT(r_acc.features.cycles, r_cpu.features.cycles / 4);
  //  * VWR2A wins large on every step (paper: 92%, 94%, 88% cycle savings).
  EXPECT_LT(r_vwr.preprocessing.cycles, r_cpu.preprocessing.cycles / 4);
  EXPECT_LT(r_vwr.delineation.cycles, r_cpu.delineation.cycles / 4);
  EXPECT_LT(r_vwr.features.cycles, r_cpu.features.cycles / 3);
  EXPECT_LT(r_vwr.total.cycles, r_cpu.total.cycles / 4);
  //  * and saves most of the energy at the application level (paper: 66%).
  EXPECT_LT(r_vwr.total.uj, 0.6 * r_cpu.total.uj);
}

TEST(App, CyclesInPaperBallpark) {
  // Paper Table 5 (cycles): CPU total 166667 (preproc 49760, delineation
  // 46268, features 70639); VWR2A total 15113. Our models should land
  // within a factor ~2 on each row.
  Rng rng(11);
  const auto x = make_window(0.25, rng);
  soc::Platform p1, p3;
  MBioTracker a1(p1), a3(p3);
  a1.init();
  a3.init();
  const auto r_cpu = a1.run(Target::kCpu, x);
  const auto r_vwr = a3.run(Target::kCpuVwr2a, x);
  EXPECT_GT(r_cpu.preprocessing.cycles, 49760u / 2);
  EXPECT_LT(r_cpu.preprocessing.cycles, 49760u * 2);
  EXPECT_GT(r_cpu.delineation.cycles, 46268u / 3);
  EXPECT_LT(r_cpu.delineation.cycles, 46268u * 2);
  EXPECT_GT(r_cpu.features.cycles, 70639u / 2);
  EXPECT_LT(r_cpu.features.cycles, 70639u * 2);
  EXPECT_GT(r_vwr.total.cycles, 15113u / 3);
  EXPECT_LT(r_vwr.total.cycles, 15113u * 3);
}

TEST(App, TraceReplayMatchesInterpreter) {
  // The whole VWR2A pipeline -- FIR, delineation's bisect-count loops, FFT
  // stages, reductions -- replayed from compiled traces must match the
  // interpreter in every result, cycle and joule, window after window.
  Rng rng(23);
  soc::Platform pi;
  soc::Platform pt(soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache});
  MBioTracker ai(pi), at(pt);
  ai.init();
  at.init();
  for (int w = 0; w < 3; ++w) {
    const auto x = make_window(w % 2 == 0 ? 0.2 : 0.5, rng);
    const AppResult ri = ai.run(Target::kCpuVwr2a, x);
    const AppResult rt = at.run(Target::kCpuVwr2a, x);
    EXPECT_EQ(ri.svm_class, rt.svm_class) << "window " << w;
    EXPECT_EQ(ri.extrema, rt.extrema) << "window " << w;
    EXPECT_EQ(ri.feat.as_vector(), rt.feat.as_vector()) << "window " << w;
    EXPECT_EQ(ri.total.cycles, rt.total.cycles) << "window " << w;
    EXPECT_EQ(ri.total.uj, rt.total.uj) << "window " << w;
  }
  EXPECT_GT(pt.vwr2a().replay_stats().traced_launches, 0u);
  EXPECT_EQ(pt.vwr2a().replay_stats().replay_interpreted_cycles, 0u);
}

} // namespace
} // namespace vwr2a::app
