// VWR2A FFT kernels against the exact fixed-point golden model. These are
// bit-exact comparisons: the microcode must reproduce dsp::pease_fft_fx /
// dsp::rfft_fx word for word.

#include <gtest/gtest.h>

#include "bus/ahb.hpp"
#include "cgra/vwr2a.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "energy/meter.hpp"
#include "kernels/fft.hpp"
#include "kernels/host.hpp"
#include "mem/sram.hpp"

namespace vwr2a::kernels {
namespace {

struct Rig {
  energy::EnergyMeter sys_meter;
  mem::SystemSram sram{sys_meter};
  bus::AhbBus ahb{sram, sys_meter};
  cgra::Vwr2a acc{ahb};
  Host host{acc, sram, nullptr};
  FftKernels fft{host};

  static constexpr unsigned kTw = 0;
  unsigned in = 0, out = 0, scratch = 0;

  explicit Rig(unsigned n, cgra::ExecMode mode = cgra::ExecMode::kInterpret) {
    acc.set_exec_mode(mode);
    fft.prepare(kTw);
    in = FftKernels::table_words();
    out = in + 2 * n + 2;
    scratch = out + 2 * n + 2;
  }
};

class CfftSizes : public ::testing::TestWithParam<unsigned> {};

TEST_P(CfftSizes, BitExactAgainstGolden) {
  const unsigned n = GetParam();
  Rig rig(n);
  Rng rng(n);
  std::vector<dsp::CplxFx> x(n);
  for (unsigned i = 0; i < n; ++i) {
    x[i] = {fx::to_q16_15(rng.next_range(-0.9, 0.9)),
            fx::to_q16_15(rng.next_range(-0.9, 0.9))};
    rig.sram.poke(rig.in + 2 * i, static_cast<Word>(x[i].re));
    rig.sram.poke(rig.in + 2 * i + 1, static_cast<Word>(x[i].im));
  }
  const FftRunStats stats = rig.fft.cfft(n, rig.in, rig.out, rig.scratch);
  EXPECT_GT(stats.cycles, 0u);
  const auto golden = dsp::pease_fft_fx(x);
  for (unsigned k = 0; k < n; ++k) {
    EXPECT_EQ(static_cast<std::int32_t>(rig.sram.peek(rig.out + 2 * k)),
              golden[k].re)
        << "re bin " << k;
    EXPECT_EQ(static_cast<std::int32_t>(rig.sram.peek(rig.out + 2 * k + 1)),
              golden[k].im)
        << "im bin " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CfftSizes, ::testing::Values(256u, 512u, 1024u));

class RfftSizes : public ::testing::TestWithParam<unsigned> {};

TEST_P(RfftSizes, BitExactAgainstGolden) {
  const unsigned n = GetParam();
  Rig rig(n);
  Rng rng(n + 1);
  std::vector<std::int32_t> x(n);
  for (unsigned i = 0; i < n; ++i) {
    x[i] = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    rig.sram.poke(rig.in + i, static_cast<Word>(x[i]));
  }
  const FftRunStats stats = rig.fft.rfft(n, rig.in, rig.out, rig.scratch);
  EXPECT_GT(stats.cycles, 0u);
  const auto golden = dsp::rfft_fx(x);
  for (unsigned k = 0; k <= n / 2; ++k) {
    EXPECT_EQ(static_cast<std::int32_t>(rig.sram.peek(rig.out + 2 * k)),
              golden[k].re)
        << "re bin " << k;
    EXPECT_EQ(static_cast<std::int32_t>(rig.sram.peek(rig.out + 2 * k + 1)),
              golden[k].im)
        << "im bin " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RfftSizes, ::testing::Values(512u, 1024u, 2048u));

TEST(Cfft2048, BitExactAgainstGolden) {
  const unsigned n = 2048;
  Rig rig(n);
  Rng rng(n);
  std::vector<dsp::CplxFx> x(n);
  for (unsigned i = 0; i < n; ++i) {
    x[i] = {fx::to_q16_15(rng.next_range(-0.4, 0.4)),
            fx::to_q16_15(rng.next_range(-0.4, 0.4))};
    rig.sram.poke(rig.in + 2 * i, static_cast<Word>(x[i].re));
    rig.sram.poke(rig.in + 2 * i + 1, static_cast<Word>(x[i].im));
  }
  rig.fft.cfft(n, rig.in, rig.out, rig.scratch);
  const auto golden = dsp::cfft_fx(x);
  for (unsigned k = 0; k < n; ++k) {
    EXPECT_EQ(static_cast<std::int32_t>(rig.sram.peek(rig.out + 2 * k)),
              golden[k].re) << k;
    EXPECT_EQ(static_cast<std::int32_t>(rig.sram.peek(rig.out + 2 * k + 1)),
              golden[k].im) << k;
  }
}

TEST(FftTraceReplay, MatchesInterpreter) {
  // The FFT-stage hardware loops replayed from compiled traces (cfft-2048
  // takes the scheduled two-column tier) must match the interpreter word
  // for word, cycle for cycle and event count for event count.
  for (unsigned n : {512u, 2048u}) {
    Rig ri(n);
    Rig rt(n, cgra::ExecMode::kTraceCache);
    Rng rng(n + 7);
    for (unsigned i = 0; i < 2 * n; ++i) {
      const Word v = static_cast<Word>(fx::to_q16_15(rng.next_range(-0.4, 0.4)));
      ri.sram.poke(ri.in + i, v);
      rt.sram.poke(rt.in + i, v);
    }
    for (int pass = 0; pass < 2; ++pass) {  // cold compile, then warm replay
      const FftRunStats si = ri.fft.cfft(n, ri.in, ri.out, ri.scratch);
      const FftRunStats st = rt.fft.cfft(n, rt.in, rt.out, rt.scratch);
      EXPECT_EQ(si.cycles, st.cycles) << "n " << n;
      const FftRunStats ti = ri.fft.rfft(n, ri.in, ri.out, ri.scratch);
      const FftRunStats tt = rt.fft.rfft(n, rt.in, rt.out, rt.scratch);
      EXPECT_EQ(ti.cycles, tt.cycles) << "n " << n;
      for (unsigned k = 0; k < 2 * n; ++k) {
        ASSERT_EQ(ri.sram.peek(ri.out + k), rt.sram.peek(rt.out + k))
            << "n " << n << " word " << k;
      }
    }
    for (unsigned e = 0; e < static_cast<unsigned>(energy::Event::kCount); ++e) {
      EXPECT_EQ(ri.acc.meter().count(static_cast<energy::Event>(e)),
                rt.acc.meter().count(static_cast<energy::Event>(e)))
          << "n " << n << " event " << e;
    }
    EXPECT_EQ(ri.acc.cycles(), rt.acc.cycles()) << "n " << n;
    EXPECT_GT(rt.acc.replay_stats().traced_launches, 0u);
    EXPECT_EQ(rt.acc.replay_stats().replay_interpreted_cycles, 0u);
  }
}

TEST(FftCycles, InPaperBallpark) {
  // Table 2 reports 7125 cycles for the 512-point complex FFT on VWR2A;
  // the reproduction should land within a factor ~1.5 (shape, not identity).
  Rig rig(512);
  for (unsigned i = 0; i < 1024; ++i) rig.sram.poke(rig.in + i, 0);
  const FftRunStats stats = rig.fft.cfft(512, rig.in, rig.out, rig.scratch);
  EXPECT_GT(stats.cycles, 7125u / 2);
  EXPECT_LT(stats.cycles, 7125u * 2);
}

} // namespace
} // namespace vwr2a::kernels
