#include "goldens.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

#include "app/mbiotracker.hpp"
#include "common/fixed_point.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "harness.hpp"
#include "kernels/delineation.hpp"
#include "soc/platform.hpp"

namespace perfbench {

using namespace vwr2a;
using runtime::make_buffer;

namespace {

std::vector<std::int32_t> random_q15(unsigned n, Rng& rng, double lim) {
  std::vector<std::int32_t> x(n);
  for (auto& v : x) v = fx::to_q16_15(rng.next_range(-lim, lim));
  return x;
}

std::vector<std::int32_t> interleave(const std::vector<dsp::CplxFx>& c) {
  std::vector<std::int32_t> out;
  out.reserve(2 * c.size());
  for (const dsp::CplxFx& v : c) {
    out.push_back(v.re);
    out.push_back(v.im);
  }
  return out;
}

std::vector<dsp::CplxFx> deinterleave(const std::vector<std::int32_t>& w) {
  std::vector<dsp::CplxFx> c(w.size() / 2);
  for (std::size_t i = 0; i < c.size(); ++i) c[i] = {w[2 * i], w[2 * i + 1]};
  return c;
}

const std::vector<std::int32_t>& taps() {
  static const std::vector<std::int32_t> t = dsp::fir11_lowpass_q15();
  return t;
}

runtime::SharedBuffer shared_taps() {
  static const runtime::SharedBuffer t = make_buffer(taps());
  return t;
}

dsp::RespirationParams breath(Rng& rng) {
  dsp::RespirationParams p;
  p.breath_hz = rng.next_range(0.12, 0.55);  // relaxed and loaded tenants
  return p;
}

} // namespace

CheckedJob make_fir(unsigned n, Rng& rng) {
  auto x = random_q15(n, rng, 0.9);
  const std::uint64_t g = digest(dsp::fir_fx(x, taps()));
  return {runtime::Job{runtime::FirJob{n, shared_taps(), make_buffer(std::move(x))}, ""}, g};
}

/// The 2048-point transform is two 1024-point CG-FFTs (evens, odds) joined
/// by one radix-2 combine in the same coefficient arithmetic.
std::vector<dsp::CplxFx> cfft2048_fx(const std::vector<dsp::CplxFx>& x) {
  constexpr unsigned kHalf = 1024;
  std::vector<dsp::CplxFx> ev(kHalf), od(kHalf);
  for (unsigned i = 0; i < kHalf; ++i) {
    ev[i] = x[2 * i];
    od[i] = x[2 * i + 1];
  }
  const auto fe = dsp::pease_fft_fx(ev);
  const auto fo = dsp::pease_fft_fx(od);
  constexpr double kPi = 3.14159265358979323846;
  std::vector<dsp::CplxFx> out(2 * kHalf);
  for (unsigned k = 0; k < kHalf; ++k) {
    const dsp::CplxFx w{fx::to_coeff(std::cos(-2.0 * kPi * k / (2 * kHalf))),
                        fx::to_coeff(std::sin(-2.0 * kPi * k / (2 * kHalf)))};
    const auto tre = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(fx::fxp_mul(fo[k].re, w.re)) -
        static_cast<std::uint32_t>(fx::fxp_mul(fo[k].im, w.im)));
    const auto tim = static_cast<std::int32_t>(
        static_cast<std::uint32_t>(fx::fxp_mul(fo[k].re, w.im)) +
        static_cast<std::uint32_t>(fx::fxp_mul(fo[k].im, w.re)));
    out[k] = {fe[k].re + tre, fe[k].im + tim};
    out[k + kHalf] = {fe[k].re - tre, fe[k].im - tim};
  }
  return out;
}

CheckedJob make_cfft(unsigned n, Rng& rng) {
  auto x = random_q15(2 * n, rng, 0.4);
  const auto c = deinterleave(x);
  const std::uint64_t g = digest(interleave(n == 2048 ? cfft2048_fx(c) : dsp::pease_fft_fx(c)));
  return {runtime::Job{runtime::CfftJob{n, make_buffer(std::move(x))}, ""}, g};
}

CheckedJob make_rfft(unsigned n, Rng& rng) {
  auto x = random_q15(n, rng, 0.4);
  const std::uint64_t g = digest(interleave(dsp::rfft_fx(x)));
  return {runtime::Job{runtime::RfftJob{n, make_buffer(std::move(x))}, ""}, g};
}

CheckedJob make_ifft(unsigned n, Rng& rng) {
  auto x = random_q15(2 * n, rng, 0.4);
  const std::uint64_t g = digest(interleave(dsp::pease_ifft_fx(deinterleave(x))));
  return {runtime::Job{runtime::IfftJob{n, make_buffer(std::move(x))}, ""}, g};
}

CheckedJob make_reduce(runtime::ReduceOp op, unsigned n, Rng& rng) {
  auto x = random_q15(n, rng, 0.95);
  std::int32_t v = 0;
  switch (op) {
    case runtime::ReduceOp::kMin: v = *std::min_element(x.begin(), x.end()); break;
    case runtime::ReduceOp::kMax: v = *std::max_element(x.begin(), x.end()); break;
    case runtime::ReduceOp::kMean: v = dsp::mean_i32(x); break;
    case runtime::ReduceOp::kEnergy: v = dsp::energy_fx(x); break;
  }
  return {runtime::Job{runtime::ReduceJob{op, n, make_buffer(std::move(x))}, ""},
          digest({v})};
}

CheckedJob make_delineation(unsigned n, Rng& rng) {
  const std::int32_t thr = fx::to_q16_15(0.08);
  for (;;) {
    const auto x = dsp::respiration_q16_15(n, breath(rng), rng);
    const auto golden = dsp::delineate(x, thr);
    // More records than kMaxExtrema fail the job by contract; exactly
    // kMaxExtrema currently come back as zero records on both engines (the
    // record counter wraps), so the generator stays below the limit.
    if (golden.size() >= kernels::kMaxExtrema) continue;
    std::vector<std::int32_t> rec;
    for (const dsp::Extremum& e : golden) {
      rec.push_back(static_cast<std::int32_t>((e.index << 1) | (e.is_max ? 1u : 0u)));
    }
    return {runtime::Job{runtime::DelineationJob{n, thr, make_buffer(x)}, ""},
            digest(rec)};
  }
}

CheckedJob make_pipeline(unsigned n, Rng& rng) {
  auto x = random_q15(n, rng, 0.4);
  const std::uint64_t g = pipeline_golden(x);
  return {runtime::Job{runtime::PipelineJob{n, shared_taps(), make_buffer(std::move(x))}, ""},
          g};
}

CheckedJob make_bio(Rng& rng) {
  auto x = dsp::respiration_q16_15(app::kWindow, breath(rng), rng);
  const std::uint64_t g = bio_golden(x);
  return {runtime::Job{runtime::BioTrackerJob{app::Target::kCpuVwr2a,
                                              make_buffer(std::move(x))},
                       ""},
          g};
}

std::uint64_t pipeline_golden(const std::vector<std::int32_t>& window) {
  const auto filt = dsp::fir_fx(window, taps());
  std::vector<std::int32_t> out{dsp::energy_fx(filt)};
  for (const dsp::CplxFx& b : dsp::rfft_fx(filt)) {
    out.push_back(b.re);
    out.push_back(b.im);
  }
  return digest(out);
}

std::uint64_t bio_golden(const std::vector<std::int32_t>& window) {
  std::vector<double> x(window.size());
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = fx::from_q16_15(window[i]);
  soc::Platform plat;
  app::MBioTracker tracker(plat);
  tracker.init();
  const app::AppResult a = tracker.run(app::Target::kCpuVwr2a, x);
  std::vector<std::int32_t> out{a.svm_class, static_cast<std::int32_t>(a.extrema)};
  for (double f : a.feat.as_vector()) out.push_back(fx::to_q16_15(f));
  return digest(out);
}

std::vector<StreamSpec> make_streams(const std::vector<bool>& kinds,
                                     const std::vector<unsigned>& hops,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamSpec> specs(kinds.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].bio = kinds[i];
    specs[i].hop = hops[i];
    specs[i].period =
        dsp::respiration_q16_15(StreamSpec::kPeriod, breath(rng), rng);
    specs[i].golden.resize(StreamSpec::kPeriod / hops[i]);
  }
  // Goldens are independent: spread (stream, position) pairs over threads.
  std::vector<std::pair<std::size_t, std::size_t>> work;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t k = 0; k < specs[i].golden.size(); ++k) work.emplace_back(i, k);
  }
  auto worker = [&](std::size_t first, std::size_t stride) {
    for (std::size_t w = first; w < work.size(); w += stride) {
      StreamSpec& s = specs[work[w].first];
      const std::size_t start = work[w].second * s.hop;
      std::vector<std::int32_t> win(StreamSpec::kWindow);
      for (unsigned j = 0; j < StreamSpec::kWindow; ++j) {
        win[j] = s.period[(start + j) % StreamSpec::kPeriod];
      }
      s.golden[work[w].second] = s.bio ? bio_golden(win) : pipeline_golden(win);
    }
  };
  const unsigned threads = 4;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker, t, threads);
  for (auto& t : pool) t.join();
  return specs;
}

} // namespace perfbench
