#pragma once
// Shared rig and formatting for the experiment-reproduction benches. Every
// bench binary regenerates one table or figure of the paper and prints the
// measured values next to the paper's, with the ratio, so every
// measured-vs-paper claim can be audited from the bench output alone.

#include <cstdio>
#include <string>
#include <vector>

#include "app/mbiotracker.hpp"
#include "bus/ahb.hpp"
#include "cgra/vwr2a.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "cpu/kernels_q15.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "energy/meter.hpp"
#include "kernels/fft.hpp"
#include "kernels/fir.hpp"
#include "kernels/host.hpp"
#include "mem/sram.hpp"
#include "soc/platform.hpp"

namespace vwr2a::bench {

/// A standalone VWR2A rig (block + bus + system SRAM), as used for the
/// kernel-level experiments.
struct Rig {
  energy::EnergyMeter sys_meter;
  mem::SystemSram sram{sys_meter};
  bus::AhbBus ahb{sram, sys_meter};
  cgra::Vwr2a acc{ahb};
  kernels::Host host{acc, sram, nullptr};
};

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// One row of a paper-vs-measured comparison.
inline void row(const char* label, double paper, double measured,
                const char* unit) {
  std::printf("  %-28s paper %10.1f %-6s measured %10.1f %-6s ratio %5.2f\n",
              label, paper, unit, measured, unit,
              paper > 0 ? measured / paper : 0.0);
}

/// Random 16.15 complex input placed interleaved at `base`.
inline void place_complex_input(Rig& rig, unsigned n, unsigned base, Rng& rng) {
  for (unsigned i = 0; i < 2 * n; ++i) {
    rig.sram.poke(base + i, static_cast<Word>(
                                fx::to_q16_15(rng.next_range(-0.4, 0.4))));
  }
}

/// Table 2's VWR2A cell: cycles of one n-point complex (or real) FFT on a
/// fresh rig, over random 16.15 input drawn from `rng`. The bench and the
/// paper ledger test (tests/test_paper_ledger.cpp) share this driver.
inline Cycle vwr2a_fft_cycles(unsigned n, bool real, Rng& rng) {
  Rig rig;
  kernels::FftKernels fft(rig.host);
  fft.prepare(0);
  const unsigned in = kernels::FftKernels::table_words();
  const unsigned out = in + 2 * n + 2;
  const unsigned scratch = out + 2 * n + 2;
  if (real) {
    for (unsigned i = 0; i < n; ++i) {
      rig.sram.poke(in + i, static_cast<Word>(
                                fx::to_q16_15(rng.next_range(-0.4, 0.4))));
    }
    return fft.rfft(n, in, out, scratch).cycles;
  }
  place_complex_input(rig, n, in, rng);
  return fft.cfft(n, in, out, scratch).cycles;
}

/// Table 4's VWR2A cells: one n-point FIR-11 on a fresh rig.
struct FirCell {
  Cycle cycles = 0;
  double uj = 0.0;  ///< accelerator energy
};

/// Runs Table 4's VWR2A FIR-11 over random 16.15 input drawn from `rng`.
/// Shared by the bench and the paper ledger test.
inline FirCell vwr2a_fir11(unsigned n, Rng& rng) {
  Rig rig;
  kernels::FirKernels fir(rig.host);
  fir.prepare(0);
  for (unsigned i = 0; i < n; ++i) {
    rig.sram.poke(64 + i, static_cast<Word>(
                              fx::to_q16_15(rng.next_range(-0.8, 0.8))));
  }
  const auto stats = fir.fir11(n, dsp::fir11_lowpass_q15(), 64, 64 + n);
  return {stats.cycles, rig.acc.meter().total_uj()};
}

/// Microseconds at the 80 MHz architectural clock.
inline double us(Cycle cycles) {
  return static_cast<double>(cycles) / arch::kClockHz * 1e6;
}

} // namespace vwr2a::bench
