#pragma once
// Golden reference implementations used to validate every kernel in the
// repository: double-precision DFT/FFT, the constant-geometry (Pease-form)
// radix-2 FFT in both double and exact 16.15 fixed-point arithmetic (the
// latter mirrors the VWR2A datapath bit-for-bit), FIR filtering, statistics,
// the delineation detector, and a linear SVM.
//
// The constant-geometry form is central: its per-stage data reordering is
// the perfect shuffle, which is exactly the "words interleaving" operation
// of the VWR2A shuffle unit (paper Sec 3.4: "The shuffle unit applies the
// 'words interleaving' shuffling to create the correct data layout for the
// next stage"). Stage s of N-point CG-FFT applies butterflies to pairs
// (x[i], x[i+N/2]) with twiddle W_N^{2^s * (i >> s)} and writes the results
// interleaved: x'[2i] = a + b, x'[2i+1] = (a - b) * w. The output appears in
// bit-reversed order, which the paper fixes with the bit-reversal shuffle.

#include <complex>
#include <cstdint>
#include <vector>

#include "common/fixed_point.hpp"

namespace vwr2a::dsp {

using cplx = std::complex<double>;

// --- floating-point transforms ------------------------------------------------

/// O(N^2) direct DFT (the ultimate arbiter in property tests).
std::vector<cplx> dft(const std::vector<cplx>& x);

/// Iterative in-place radix-2 DIT FFT (natural-order input and output).
std::vector<cplx> fft_radix2(const std::vector<cplx>& x);

/// Constant-geometry (Pease) radix-2 DIF FFT; output in bit-reversed order.
/// N must be a power of two.
std::vector<cplx> pease_fft_bitrev(const std::vector<cplx>& x);

/// pease_fft_bitrev + bit-reversal reordering (natural-order output).
std::vector<cplx> pease_fft(const std::vector<cplx>& x);

// --- fixed-point (16.15) constant-geometry FFT --------------------------------
// Arithmetic matches the RC ALU exactly: 32-bit two's-complement wrap-around
// adds and the fixed-point multiply (64-bit product >> 16, truncating).

/// A 16.15 complex sample.
struct CplxFx {
  std::int32_t re = 0;
  std::int32_t im = 0;
  bool operator==(const CplxFx&) const = default;
};

/// Twiddle factors of stage s (N/2 entries): W_N^{2^s * (i >> s)}, converted
/// to 16.15. Used both by the golden model and by the VWR2A host driver to
/// populate the twiddle planes in system memory.
std::vector<CplxFx> pease_twiddles_fx(unsigned n, unsigned stage);

/// One constant-geometry stage in exact VWR2A arithmetic:
///   out[2i]   = a + b
///   out[2i+1] = (a - b) * w_s(i)   (16.15 truncating multiply)
/// with a = in[i], b = in[i + N/2].
std::vector<CplxFx> pease_stage_fx(const std::vector<CplxFx>& in,
                                   const std::vector<CplxFx>& twiddles);

/// Full N-point CG-FFT in 16.15; output bit-reversed.
std::vector<CplxFx> pease_fft_fx_bitrev(const std::vector<CplxFx>& x);

/// Full N-point CG-FFT in 16.15 with natural-order output.
std::vector<CplxFx> pease_fft_fx(const std::vector<CplxFx>& x);

/// The device's complex FFT (runtime::CfftJob, kernels::FftKernels::cfft)
/// in exact VWR2A arithmetic, natural-order output: the CG-FFT up to 1024
/// points; at 2048 points the 1024-point transforms E/O of the even and
/// odd samples combined as X[k] = E[k] + W^k O[k] and
/// X[k+1024] = E[k] - W^k O[k], with 16.15 coefficients W^k.
std::vector<CplxFx> cfft_fx(const std::vector<CplxFx>& x);

/// Inverse FFT in exact VWR2A arithmetic: conj -> forward CG-FFT -> conj,
/// then an arithmetic shift by log2(N) (the 1/N scale). Matches the VWR2A
/// cifft kernel bit-for-bit.
std::vector<CplxFx> pease_ifft_fx(const std::vector<CplxFx>& x);

/// Real-input FFT via the N/2 complex trick (paper Sec 3.4), in exact 16.15
/// arithmetic. Input: N reals; output: N/2+1 spectrum bins (X[0]..X[N/2]).
/// The untangling weights e^{-2*pi*j*k/N} are 16.15 as well.
std::vector<CplxFx> rfft_fx(const std::vector<std::int32_t>& x);

/// Double-precision real FFT via the same algorithm (error reference).
std::vector<cplx> rfft(const std::vector<double>& x);

// --- FIR -----------------------------------------------------------------------

/// Direct-form FIR, double precision. y[n] = sum_t h[t] * x[n-t]; the first
/// taps-1 outputs use zero-padded history.
std::vector<double> fir(const std::vector<double>& x, const std::vector<double>& h);

/// Direct-form FIR in exact VWR2A arithmetic (16.15 coefficients, 32-bit
/// wrap adds, truncating fixed-point multiplies).
std::vector<std::int32_t> fir_fx(const std::vector<std::int32_t>& x,
                                 const std::vector<std::int32_t>& h_q15);

// --- statistics -----------------------------------------------------------------

double mean(const std::vector<double>& v);
double rms(const std::vector<double>& v);
/// Median with the lower-middle convention for even sizes (matches the
/// integer bisection kernels: the smallest m such that at least
/// floor(n/2)+1 elements are <= m).
std::int32_t median_i32(const std::vector<std::int32_t>& v);

/// Integer mean with truncating division (matches the kernels).
std::int32_t mean_i32(const std::vector<std::int32_t>& v);

/// Integer RMS: floor(sqrt(sum(x^2) / n)) on 64-bit accumulation.
std::int32_t rms_i32(const std::vector<std::int32_t>& v);

/// Signal energy in exact VWR2A arithmetic: 32-bit wrap-around sum of the
/// fixed-point squares fxp_mul(x, x) -- bit-for-bit what the sum-of-squares
/// reduction kernel accumulates across the RCs.
std::int32_t energy_fx(const std::vector<std::int32_t>& v);

// --- delineation ----------------------------------------------------------------

/// A detected extremum.
struct Extremum {
  unsigned index = 0;
  bool is_max = false;
  bool operator==(const Extremum&) const = default;
};

/// Threshold-hysteresis min/max delineation (the paper's Sec 4.4.2 step):
/// records an extremum when the signal retreats by more than `threshold`
/// from the running candidate, alternating max/min. Serial over all samples.
std::vector<Extremum> delineate(const std::vector<std::int32_t>& x,
                                std::int32_t threshold);

/// Candidate-compressed delineation: hysteresis applied only at local
/// extremum candidates. Produces identical output to delineate(); this is
/// the algorithm the VWR2A mapping vectorizes (tests assert the equality).
std::vector<Extremum> delineate_candidates(const std::vector<std::int32_t>& x,
                                           std::int32_t threshold);

// --- SVM ------------------------------------------------------------------------

/// Linear SVM decision: sign(w . f + b), in 16.15 arithmetic.
std::int32_t svm_decision_fx(const std::vector<std::int32_t>& features,
                             const std::vector<std::int32_t>& weights_q15,
                             std::int32_t bias_q15);

} // namespace vwr2a::dsp
