// Golden-model self-consistency: the DSP references must agree with the
// direct DFT and with each other before any kernel is trusted against them.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"

namespace vwr2a::dsp {
namespace {

std::vector<cplx> random_signal(unsigned n, Rng& rng) {
  std::vector<cplx> x(n);
  for (auto& v : x) v = cplx(rng.next_range(-0.9, 0.9), rng.next_range(-0.9, 0.9));
  return x;
}

double max_err(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

class FftSizes : public ::testing::TestWithParam<unsigned> {};

TEST_P(FftSizes, PeaseMatchesDft) {
  Rng rng(GetParam());
  const auto x = random_signal(GetParam(), rng);
  EXPECT_LT(max_err(pease_fft(x), dft(x)), 1e-6 * GetParam());
}

TEST_P(FftSizes, PeaseMatchesRadix2) {
  Rng rng(GetParam() + 1);
  const auto x = random_signal(GetParam(), rng);
  EXPECT_LT(max_err(pease_fft(x), fft_radix2(x)), 1e-9 * GetParam());
}

TEST_P(FftSizes, FixedPointTracksDouble) {
  const unsigned n = GetParam();
  Rng rng(n + 2);
  std::vector<CplxFx> xf(n);
  std::vector<cplx> xd(n);
  for (unsigned i = 0; i < n; ++i) {
    const double re = rng.next_range(-0.9, 0.9);
    const double im = rng.next_range(-0.9, 0.9);
    xf[i] = {fx::to_q16_15(re), fx::to_q16_15(im)};
    xd[i] = cplx(fx::from_q16_15(xf[i].re), fx::from_q16_15(xf[i].im));
  }
  const auto ff = pease_fft_fx(xf);
  const auto fd = pease_fft(xd);
  // Truncating 16.15 multiplies: error grows ~per stage; allow a generous
  // but discriminating bound (values themselves grow up to ~n).
  const double tol = 2e-4 * n;
  for (unsigned i = 0; i < n; ++i) {
    EXPECT_NEAR(fx::from_q16_15(ff[i].re), fd[i].real(), tol) << "bin " << i;
    EXPECT_NEAR(fx::from_q16_15(ff[i].im), fd[i].imag(), tol) << "bin " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizes,
                         ::testing::Values(4u, 8u, 16u, 64u, 256u, 512u, 1024u));

/// The device cfft golden: the CG-FFT itself up to 1024 points, and at 2048
/// points an even/odd split whose result still tracks the double FFT within
/// the same per-size bound as the CG-FFT.
TEST(CfftFx, PeaseUpTo1024AndTracksDoubleAt2048) {
  Rng rng(13);
  for (unsigned n : {256u, 1024u, 2048u}) {
    std::vector<CplxFx> xf(n);
    std::vector<cplx> xd(n);
    for (unsigned i = 0; i < n; ++i) {
      xf[i] = {fx::to_q16_15(rng.next_range(-0.4, 0.4)),
               fx::to_q16_15(rng.next_range(-0.4, 0.4))};
      xd[i] = cplx(fx::from_q16_15(xf[i].re), fx::from_q16_15(xf[i].im));
    }
    const auto ff = cfft_fx(xf);
    if (n <= 1024) {
      EXPECT_EQ(ff, pease_fft_fx(xf)) << "n " << n;
      continue;
    }
    const auto fd = pease_fft(xd);
    const double tol = 2e-4 * n;
    for (unsigned i = 0; i < n; ++i) {
      EXPECT_NEAR(fx::from_q16_15(ff[i].re), fd[i].real(), tol) << "bin " << i;
      EXPECT_NEAR(fx::from_q16_15(ff[i].im), fd[i].imag(), tol) << "bin " << i;
    }
  }
}

TEST(Rfft, MatchesDftOnReal) {
  const unsigned n = 512;
  Rng rng(7);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.next_range(-0.9, 0.9);
  const auto spec = rfft(x);
  std::vector<cplx> xc(x.begin(), x.end());
  const auto ref = dft(xc);
  ASSERT_EQ(spec.size(), n / 2 + 1);
  for (unsigned k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(std::abs(spec[k] - ref[k]), 0.0, 1e-6 * n) << "bin " << k;
  }
}

TEST(RfftFx, TracksDouble) {
  const unsigned n = 512;
  Rng rng(9);
  std::vector<std::int32_t> xf(n);
  std::vector<double> xd(n);
  for (unsigned i = 0; i < n; ++i) {
    xf[i] = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    xd[i] = fx::from_q16_15(xf[i]);
  }
  const auto ff = rfft_fx(xf);
  const auto fd = rfft(xd);
  for (unsigned k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(fx::from_q16_15(ff[k].re), fd[k].real(), 0.1) << k;
    EXPECT_NEAR(fx::from_q16_15(ff[k].im), fd[k].imag(), 0.1) << k;
  }
}

TEST(Fir, MatchesConvolution) {
  Rng rng(11);
  std::vector<double> x(300);
  for (auto& v : x) v = rng.next_range(-1.0, 1.0);
  std::vector<double> h = {0.1, 0.2, 0.4, 0.2, 0.1};
  const auto y = fir(x, h);
  for (unsigned n = 0; n < x.size(); ++n) {
    double acc = 0;
    for (unsigned t = 0; t < h.size(); ++t) {
      if (n >= t) acc += h[t] * x[n - t];
    }
    EXPECT_NEAR(y[n], acc, 1e-12);
  }
}

TEST(FirFx, TracksDouble) {
  Rng rng(13);
  const auto taps = fir11_lowpass_q15();
  std::vector<std::int32_t> x(400);
  std::vector<double> xd(400);
  for (unsigned i = 0; i < x.size(); ++i) {
    x[i] = fx::to_q16_15(rng.next_range(-0.9, 0.9));
    xd[i] = fx::from_q16_15(x[i]);
  }
  std::vector<double> hd(taps.size());
  for (unsigned i = 0; i < taps.size(); ++i) hd[i] = fx::from_coeff(taps[i]);
  const auto yf = fir_fx(x, taps);
  const auto yd = fir(xd, hd);
  for (unsigned i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(fx::from_q16_15(yf[i]), yd[i], 1e-3) << i;
  }
}

TEST(Stats, IntegerAgainstSorted) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const unsigned n = 1 + rng.next_below(200);
    std::vector<std::int32_t> v(n);
    for (auto& x : v) x = static_cast<std::int32_t>(rng.next_u32());
    std::vector<std::int32_t> s = v;
    std::sort(s.begin(), s.end());
    const std::int32_t med = median_i32(v);
    // med is an element, and at least floor(n/2)+1 elements are <= med.
    unsigned le = 0;
    bool found = false;
    for (auto x : v) {
      if (x <= med) ++le;
      if (x == med) found = true;
    }
    EXPECT_TRUE(found);
    EXPECT_GE(le, n / 2 + 1);
  }
}

TEST(Delineation, CandidateFormEqualsSerial) {
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const unsigned n = 3 + rng.next_below(400);
    std::vector<std::int32_t> x(n);
    // Random walk with occasional plateaus: stresses tie handling.
    std::int32_t v = 0;
    for (auto& s : x) {
      if (rng.next_below(5) != 0) {
        v += static_cast<std::int32_t>(rng.next_below(2001)) - 1000;
      }
      s = v;
    }
    const std::int32_t thr = static_cast<std::int32_t>(rng.next_below(1500));
    EXPECT_EQ(delineate(x, thr), delineate_candidates(x, thr)) << "trial " << trial;
  }
}

TEST(Delineation, RespirationSignalHasAlternatingExtrema) {
  Rng rng(29);
  const auto x = respiration_q16_15(1024, RespirationParams{}, rng);
  const auto taps = fir11_lowpass_q15();
  const auto filt = fir_fx(x, taps);
  const auto ext = delineate(filt, fx::to_q16_15(0.1));
  ASSERT_GE(ext.size(), 4u);
  for (std::size_t i = 1; i < ext.size(); ++i) {
    EXPECT_NE(ext[i].is_max, ext[i - 1].is_max) << "extrema must alternate";
    EXPECT_GT(ext[i].index, ext[i - 1].index);
  }
}

TEST(Svm, DecisionMatchesFloat) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const unsigned d = 2 + rng.next_below(12);
    std::vector<std::int32_t> f(d), w(d);
    double acc = 0.0;
    for (unsigned i = 0; i < d; ++i) {
      const double fv = rng.next_range(-2.0, 2.0);
      const double wv = rng.next_range(-1.0, 1.0);
      f[i] = fx::to_q16_15(fv);
      w[i] = fx::to_coeff(wv);
      acc += fx::from_q16_15(f[i]) * fx::from_coeff(w[i]);
    }
    const double bias = rng.next_range(-0.5, 0.5);
    acc += bias;
    if (std::abs(acc) < 1e-2) continue;  // skip knife-edge cases
    EXPECT_EQ(svm_decision_fx(f, w, fx::to_q16_15(bias)), acc >= 0 ? 1 : -1);
  }
}

} // namespace
} // namespace vwr2a::dsp
