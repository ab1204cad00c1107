#pragma once
// Model of the SoC's fixed-function FFT accelerator (paper Sec 4.1): a
// MUSEIC-style engine computing FFTs and inverse FFTs up to 4096 points
// with a mixed radix-2/radix-4 flow, an optimized path for real-valued
// inputs, twiddle ROMs, a dual-port working memory, and an 18-bit internal
// representation with dynamic scaling (block floating point) to avoid
// overflow.
//
// The real engine is closed; this model is functional (18-bit saturating
// datapath, per-stage block scaling) with an analytic cycle model whose
// constants are fitted to the paper's Table 2 FFT ACCEL column, and
// event-based energy calibrated against Table 3. See DESIGN.md Sec 3.

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "cpu/kernels_q15.hpp"
#include "energy/meter.hpp"

namespace vwr2a::accel {

/// Internal datapath width (bits) of the engine.
inline constexpr unsigned kAccelBits = 18;

/// Maximum transform size.
inline constexpr unsigned kMaxPoints = 4096;

/// Cycle-model constants (fitted to Table 2; bench_table2_fft_performance
/// prints the fit against the paper).
struct FftAccelTiming {
  /// Host programming + start + completion interrupt handling.
  unsigned setup_cycles = 90;
  /// Per input/output point: AHB transfer + dual-port memory fill/drain.
  double io_cycles_per_point = 9.0;
  /// Per butterfly slot (a radix-4 butterfly, or one radix-2 pair).
  double cycles_per_bfly = 3.5;
  /// Per point of the real-FFT split stage.
  double split_cycles_per_point = 1.0;
};

/// Result of one accelerator run.
struct FftAccelResult {
  std::vector<std::int32_t> re;  ///< 18-bit spectrum, natural order
  std::vector<std::int32_t> im;
  int scale_exp = 0;             ///< X_true = X * 2^scale_exp (input q15 scale)
  Cycle cycles = 0;              ///< end-to-end occupancy incl. I/O and setup
};

/// The accelerator.
class FftAccel {
 public:
  explicit FftAccel(energy::EnergyMeter& meter, FftAccelTiming timing = {})
      : meter_(&meter), timing_(timing) {}

  /// Complex FFT of a q15 interleaved input (size a power of two <= 4096).
  FftAccelResult cfft(const std::vector<cpu::CplxQ15>& x);

  /// Real-valued FFT (optimized flow): N q15 reals in, N/2+1 bins out.
  FftAccelResult rfft(const std::vector<fx::q15_t>& x);

  /// Power gating: while gated the engine consumes no leakage. run() calls
  /// implicitly wake the engine.
  void set_gated(bool gated) { gated_ = gated; }
  bool gated() const { return gated_; }

  /// Number of butterfly slots the mixed radix-2/4 flow executes for an
  /// n-point complex transform (radix-4 stages first, one radix-2 stage if
  /// log2(n) is odd).
  static unsigned butterfly_slots(unsigned n);

 private:
  /// Runs the 18-bit block-floating-point complex FFT core.
  void cfft_core(std::vector<std::int64_t>& re, std::vector<std::int64_t>& im,
                 int& scale_exp);

  energy::EnergyMeter* meter_;
  FftAccelTiming timing_;
  bool gated_ = true;
};

} // namespace vwr2a::accel
