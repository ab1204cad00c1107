// The paper ledger: the simulated VWR2A cells of the paper's Table 2 (FFT
// cycles) and Table 4 (FIR-11 cycles and energy), pinned exactly. The
// cells come from the benches' own drivers (bench/bench_util.hpp), so a
// bench and this test cannot disagree; a kernel or calibration change
// that moves a cell fails here and lands as a reviewed ledger diff.

#include <gtest/gtest.h>

#include <string>

#include "bench/bench_util.hpp"

namespace vwr2a::bench {
namespace {

struct FftCell {
  unsigned n;
  bool real;
  Cycle cycles;
};

TEST(PaperLedger, Table2Vwr2aFftCycles) {
  const FftCell cells[] = {
      {512, false, 8665}, {1024, false, 17936}, {2048, false, 50092},
      {512, true, 8078},  {1024, true, 14616},  {2048, true, 29637},
  };
  Rng rng(2);
  for (const FftCell& c : cells) {
    SCOPED_TRACE(std::string(c.real ? "rfft-" : "cfft-") +
                 std::to_string(c.n));
    EXPECT_EQ(vwr2a_fft_cycles(c.n, c.real, rng), c.cycles);
  }
}

TEST(PaperLedger, Table4Vwr2aFirCyclesAndEnergy) {
  struct Cell {
    unsigned n;
    Cycle cycles;
    double uj;
  };
  const Cell cells[] = {
      {256, 2148, 0.13029498},
      {512, 3726, 0.25560354},
      {1024, 7306, 0.50773666},
  };
  Rng rng(5);
  for (const Cell& c : cells) {
    SCOPED_TRACE("fir11-" + std::to_string(c.n));
    const FirCell got = vwr2a_fir11(c.n, rng);
    EXPECT_EQ(got.cycles, c.cycles);
    EXPECT_NEAR(got.uj, c.uj, 1e-9 * c.uj);
  }
}

} // namespace
} // namespace vwr2a::bench
