#include "dsp/reference.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/bits.hpp"
#include "common/status.hpp"

namespace vwr2a::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

void require_pow2(std::size_t n, const char* what) {
  if (n == 0 || !is_pow2(static_cast<std::uint32_t>(n))) {
    throw HostError(std::string(what) + ": size must be a power of two");
  }
}

/// 32-bit wrap-around add (RC kSadd semantics).
std::int32_t wadd(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}
std::int32_t wsub(std::int32_t a, std::int32_t b) {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

/// 16.15 complex multiply in exact RC arithmetic.
CplxFx cmul_fx(CplxFx a, CplxFx b) {
  using fx::fxp_mul;
  CplxFx r;
  r.re = wsub(fxp_mul(a.re, b.re), fxp_mul(a.im, b.im));
  r.im = wadd(fxp_mul(a.re, b.im), fxp_mul(a.im, b.re));
  return r;
}

} // namespace

// --- floating point -------------------------------------------------------------

std::vector<cplx> dft(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  std::vector<cplx> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double ang = -2.0 * kPi * static_cast<double>(k * j) / static_cast<double>(n);
      acc += x[j] * cplx(std::cos(ang), std::sin(ang));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<cplx> fft_radix2(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  require_pow2(n, "fft_radix2");
  const unsigned logn = ilog2(static_cast<std::uint32_t>(n));
  std::vector<cplx> a(n);
  for (std::size_t i = 0; i < n; ++i) a[bit_reverse(static_cast<std::uint32_t>(i), logn)] = x[i];
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * kPi / static_cast<double>(len);
    const cplx wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w = 1.0;
      for (std::size_t j = 0; j < len / 2; ++j) {
        const cplx u = a[i + j];
        const cplx v = a[i + j + len / 2] * w;
        a[i + j] = u + v;
        a[i + j + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  return a;
}

std::vector<cplx> pease_fft_bitrev(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  require_pow2(n, "pease_fft");
  const unsigned stages = ilog2(static_cast<std::uint32_t>(n));
  std::vector<cplx> cur = x;
  std::vector<cplx> next(n);
  for (unsigned s = 0; s < stages; ++s) {
    for (std::size_t i = 0; i < n / 2; ++i) {
      const cplx a = cur[i];
      const cplx b = cur[i + n / 2];
      const unsigned exp = (static_cast<unsigned>(i) >> s) << s;
      const double ang = -2.0 * kPi * exp / static_cast<double>(n);
      const cplx w(std::cos(ang), std::sin(ang));
      next[2 * i] = a + b;
      next[2 * i + 1] = (a - b) * w;
    }
    std::swap(cur, next);
  }
  return cur;
}

std::vector<cplx> pease_fft(const std::vector<cplx>& x) {
  const std::size_t n = x.size();
  const unsigned logn = ilog2(static_cast<std::uint32_t>(n));
  const std::vector<cplx> br = pease_fft_bitrev(x);
  std::vector<cplx> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = br[bit_reverse(static_cast<std::uint32_t>(i), logn)];
  }
  return out;
}

// --- fixed point ------------------------------------------------------------------

std::vector<CplxFx> pease_twiddles_fx(unsigned n, unsigned stage) {
  require_pow2(n, "pease_twiddles_fx");
  // Stage 0: W_n^i exactly. Later stages by the hardware recurrence
  // T_{s+1} = interleave(D, D) with D[m] = T_s[m]^2 (complex square in the
  // q.16 coefficient arithmetic of the RC ALU): the stage-s plane has runs
  // of 2^s equal twiddles, and squaring halves the angle resolution. This
  // is exactly what the VWR2A shuffle unit + RCs compute on chip, so the
  // golden model follows the same recurrence (a few-LSB drift relative to
  // rounded cosines, bounded by tests against the double-precision FFT).
  std::vector<CplxFx> w(n / 2);
  for (unsigned i = 0; i < n / 2; ++i) {
    const double ang = -2.0 * kPi * i / static_cast<double>(n);
    w[i].re = fx::to_coeff(std::cos(ang));
    w[i].im = fx::to_coeff(std::sin(ang));
  }
  for (unsigned s = 0; s < stage; ++s) {
    std::vector<CplxFx> next(n / 2);
    for (unsigned i = 0; i < n / 2; ++i) {
      const CplxFx t = w[i >> 1];
      CplxFx d;
      d.re = wsub(fx::fxp_mul(t.re, t.re), fx::fxp_mul(t.im, t.im));
      d.im = fx::fxp_mul(t.re, t.im);
      d.im = wadd(d.im, d.im);
      next[i] = d;
    }
    w = std::move(next);
  }
  return w;
}

std::vector<CplxFx> pease_stage_fx(const std::vector<CplxFx>& in,
                                   const std::vector<CplxFx>& twiddles) {
  const std::size_t n = in.size();
  require_pow2(n, "pease_stage_fx");
  if (twiddles.size() != n / 2) throw HostError("pease_stage_fx: bad twiddle count");
  std::vector<CplxFx> out(n);
  for (std::size_t i = 0; i < n / 2; ++i) {
    const CplxFx a = in[i];
    const CplxFx b = in[i + n / 2];
    CplxFx sum, diff;
    sum.re = wadd(a.re, b.re);
    sum.im = wadd(a.im, b.im);
    diff.re = wsub(a.re, b.re);
    diff.im = wsub(a.im, b.im);
    out[2 * i] = sum;
    out[2 * i + 1] = cmul_fx(diff, twiddles[i]);
  }
  return out;
}

std::vector<CplxFx> pease_fft_fx_bitrev(const std::vector<CplxFx>& x) {
  const std::size_t n = x.size();
  require_pow2(n, "pease_fft_fx");
  const unsigned stages = ilog2(static_cast<std::uint32_t>(n));
  std::vector<CplxFx> cur = x;
  for (unsigned s = 0; s < stages; ++s) {
    cur = pease_stage_fx(cur, pease_twiddles_fx(static_cast<unsigned>(n), s));
  }
  return cur;
}

std::vector<CplxFx> pease_fft_fx(const std::vector<CplxFx>& x) {
  const std::size_t n = x.size();
  const unsigned logn = ilog2(static_cast<std::uint32_t>(n));
  const std::vector<CplxFx> br = pease_fft_fx_bitrev(x);
  std::vector<CplxFx> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = br[bit_reverse(static_cast<std::uint32_t>(i), logn)];
  }
  return out;
}

std::vector<CplxFx> cfft_fx(const std::vector<CplxFx>& x) {
  const std::size_t n = x.size();
  if (n <= 1024) return pease_fft_fx(x);
  if (n != 2048) throw HostError("cfft_fx: size must be at most 2048");
  const std::size_t h = n / 2;
  std::vector<CplxFx> ev(h), od(h);
  for (std::size_t i = 0; i < h; ++i) {
    ev[i] = x[2 * i];
    od[i] = x[2 * i + 1];
  }
  const std::vector<CplxFx> fe = pease_fft_fx(ev);
  const std::vector<CplxFx> fo = pease_fft_fx(od);
  std::vector<CplxFx> out(n);
  for (std::size_t k = 0; k < h; ++k) {
    const double ang = -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    const CplxFx w{fx::to_coeff(std::cos(ang)), fx::to_coeff(std::sin(ang))};
    const CplxFx t = cmul_fx(fo[k], w);
    out[k] = {wadd(fe[k].re, t.re), wadd(fe[k].im, t.im)};
    out[k + h] = {wsub(fe[k].re, t.re), wsub(fe[k].im, t.im)};
  }
  return out;
}

std::vector<CplxFx> pease_ifft_fx(const std::vector<CplxFx>& x) {
  const std::size_t n = x.size();
  require_pow2(n, "pease_ifft_fx");
  const unsigned logn = ilog2(static_cast<std::uint32_t>(n));
  std::vector<CplxFx> xc(n);
  for (std::size_t i = 0; i < n; ++i) {
    xc[i].re = x[i].re;
    xc[i].im = wsub(0, x[i].im);
  }
  const std::vector<CplxFx> f = pease_fft_fx(xc);
  std::vector<CplxFx> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].re = f[i].re >> logn;
    out[i].im = wsub(0, f[i].im) >> logn;
  }
  return out;
}

std::vector<CplxFx> rfft_fx(const std::vector<std::int32_t>& x) {
  const std::size_t n = x.size();
  require_pow2(n, "rfft_fx");
  if (n < 4) throw HostError("rfft_fx: size must be >= 4");
  const std::size_t h = n / 2;
  // Pack: z[k] = x[2k] + j x[2k+1].
  std::vector<CplxFx> z(h);
  for (std::size_t k = 0; k < h; ++k) {
    z[k].re = x[2 * k];
    z[k].im = x[2 * k + 1];
  }
  const std::vector<CplxFx> zf = pease_fft_fx(z);
  // Untangle: X[k] = E[k] + W_N^k O[k], where
  //   E[k] = (Z[k] + conj(Z[h-k])) / 2, O[k] = -j (Z[k] - conj(Z[h-k])) / 2.
  std::vector<CplxFx> out(h + 1);
  for (std::size_t k = 0; k <= h; ++k) {
    const CplxFx zk = (k == h) ? zf[0] : zf[k];
    const CplxFx zm = zf[(h - k) % h];
    CplxFx e, o;
    e.re = wadd(zk.re, zm.re) >> 1;
    e.im = wsub(zk.im, zm.im) >> 1;
    o.re = wadd(zk.im, zm.im) >> 1;
    o.im = wsub(zm.re, zk.re) >> 1;
    const double ang = -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    CplxFx w;
    w.re = fx::to_coeff(std::cos(ang));
    w.im = fx::to_coeff(std::sin(ang));
    const CplxFx wo = cmul_fx(o, w);
    out[k].re = wadd(e.re, wo.re);
    out[k].im = wadd(e.im, wo.im);
  }
  return out;
}

std::vector<cplx> rfft(const std::vector<double>& x) {
  const std::size_t n = x.size();
  require_pow2(n, "rfft");
  const std::size_t h = n / 2;
  std::vector<cplx> z(h);
  for (std::size_t k = 0; k < h; ++k) z[k] = cplx(x[2 * k], x[2 * k + 1]);
  const std::vector<cplx> zf = pease_fft(z);
  std::vector<cplx> out(h + 1);
  for (std::size_t k = 0; k <= h; ++k) {
    const cplx zk = (k == h) ? zf[0] : zf[k];
    const cplx zm = std::conj(zf[(h - k) % h]);
    const cplx e = 0.5 * (zk + zm);
    const cplx o = cplx(0, -0.5) * (zk - zm);
    const double ang = -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n);
    out[k] = e + cplx(std::cos(ang), std::sin(ang)) * o;
  }
  return out;
}

// --- FIR --------------------------------------------------------------------------

std::vector<double> fir(const std::vector<double>& x, const std::vector<double>& h) {
  std::vector<double> y(x.size(), 0.0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    double acc = 0.0;
    for (std::size_t t = 0; t < h.size(); ++t) {
      if (n >= t) acc += h[t] * x[n - t];
    }
    y[n] = acc;
  }
  return y;
}

std::vector<std::int32_t> fir_fx(const std::vector<std::int32_t>& x,
                                 const std::vector<std::int32_t>& h_q15) {
  std::vector<std::int32_t> y(x.size(), 0);
  for (std::size_t n = 0; n < x.size(); ++n) {
    std::int32_t acc = 0;
    for (std::size_t t = 0; t < h_q15.size(); ++t) {
      if (n >= t) acc = wadd(acc, fx::fxp_mul(x[n - t], h_q15[t]));
    }
    y[n] = acc;
  }
  return y;
}

// --- statistics --------------------------------------------------------------------

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double rms(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s / static_cast<double>(v.size()));
}

std::int32_t mean_i32(const std::vector<std::int32_t>& v) {
  if (v.empty()) return 0;
  std::int64_t s = 0;
  for (std::int32_t x : v) s += x;
  return static_cast<std::int32_t>(s / static_cast<std::int64_t>(v.size()));
}

std::int32_t rms_i32(const std::vector<std::int32_t>& v) {
  if (v.empty()) return 0;
  std::uint64_t s = 0;
  for (std::int32_t x : v) {
    s += static_cast<std::uint64_t>(static_cast<std::int64_t>(x) * x);
  }
  const double m = static_cast<double>(s) / static_cast<double>(v.size());
  return static_cast<std::int32_t>(std::floor(std::sqrt(m)));
}

std::int32_t energy_fx(const std::vector<std::int32_t>& v) {
  std::uint32_t acc = 0;
  for (std::int32_t x : v) {
    acc += static_cast<std::uint32_t>(fx::fxp_mul(x, x));
  }
  return static_cast<std::int32_t>(acc);
}

std::int32_t median_i32(const std::vector<std::int32_t>& v) {
  if (v.empty()) return 0;
  // The smallest m in v such that |{x <= m}| >= floor(n/2)+1 -- i.e., the
  // lower-middle order statistic, computable by bisection counting (which is
  // how the VWR2A kernel finds it).
  std::vector<std::int32_t> s = v;
  std::sort(s.begin(), s.end());
  return s[(s.size() - 1) / 2 + ((s.size() % 2) ? 0 : 1)];
}

// --- delineation ---------------------------------------------------------------------

namespace {

enum class Seek { kEither, kMax, kMin };

class Hysteresis {
 public:
  Hysteresis(std::int32_t first, std::int32_t threshold)
      : thr_(threshold), cand_max_(first), cand_min_(first) {}

  void feed(unsigned i, std::int32_t v, std::vector<Extremum>& out) {
    if (v > cand_max_) {
      cand_max_ = v;
      imax_ = i;
    }
    if (v < cand_min_) {
      cand_min_ = v;
      imin_ = i;
    }
    if (seek_ != Seek::kMin && cand_max_ - v > thr_) {
      out.push_back({imax_, true});
      seek_ = Seek::kMin;
      cand_min_ = v;
      imin_ = i;
    } else if (seek_ != Seek::kMax && v - cand_min_ > thr_) {
      out.push_back({imin_, false});
      seek_ = Seek::kMax;
      cand_max_ = v;
      imax_ = i;
    }
  }

 private:
  std::int32_t thr_;
  std::int32_t cand_max_;
  std::int32_t cand_min_;
  unsigned imax_ = 0;
  unsigned imin_ = 0;
  Seek seek_ = Seek::kEither;
};

} // namespace

std::vector<Extremum> delineate(const std::vector<std::int32_t>& x,
                                std::int32_t threshold) {
  std::vector<Extremum> out;
  if (x.empty()) return out;
  Hysteresis h(x[0], threshold);
  for (unsigned i = 1; i < x.size(); ++i) h.feed(i, x[i], out);
  return out;
}

std::vector<Extremum> delineate_candidates(const std::vector<std::int32_t>& x,
                                           std::int32_t threshold) {
  std::vector<Extremum> out;
  if (x.empty()) return out;
  Hysteresis h(x[0], threshold);
  for (unsigned i = 1; i < x.size(); ++i) {
    const std::int32_t prev = x[i - 1];
    const std::int32_t next = (i + 1 < x.size()) ? x[i + 1] : x[i];
    const bool cand_max = x[i] > prev && x[i] >= next;
    const bool cand_min = x[i] < prev && x[i] <= next;
    const bool last = (i + 1 == x.size());
    if (cand_max || cand_min || last) h.feed(i, x[i], out);
  }
  return out;
}

// --- SVM --------------------------------------------------------------------------

std::int32_t svm_decision_fx(const std::vector<std::int32_t>& features,
                             const std::vector<std::int32_t>& weights_q15,
                             std::int32_t bias_q15) {
  if (features.size() != weights_q15.size()) {
    throw HostError("svm_decision_fx: size mismatch");
  }
  std::int32_t acc = bias_q15;
  for (std::size_t i = 0; i < features.size(); ++i) {
    acc = wadd(acc, fx::fxp_mul(features[i], weights_q15[i]));
  }
  return acc >= 0 ? 1 : -1;
}

} // namespace vwr2a::dsp
