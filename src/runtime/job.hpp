#pragma once
// Job descriptions and results for the multi-device runtime. A Job is a
// self-contained request (kernel family, problem size, input data); the
// pool copies nothing heavy because inputs are shared immutable buffers --
// batched submissions of the same signal or the same filter taps alias one
// allocation across all jobs and devices.
//
// The catalog covers every kernel family of the reproduction (see README's
// job-catalog table): FIR-11, complex FFT, real FFT, inverse FFT, the
// scalar reductions (min/max/mean/energy), min/max delineation, and the
// whole MBioTracker application window. Every variant is pinned to its
// dsp::reference golden model by tests/test_runtime_jobs.cpp before it is
// allowed in a fleet.
//
// Results carry the per-job simulated cost as a soc::Platform::Snapshot
// delta, so callers get the same cycle/energy separation (CPU / VWR2A /
// accelerator) as a standalone run. Per-job deltas are bit- and cycle-
// deterministic: a job's cost depends only on the job stream of the device
// it is pinned to, never on worker scheduling (see pool.hpp).

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "app/mbiotracker.hpp"
#include "common/status.hpp"
#include "common/types.hpp"
#include "soc/platform.hpp"

namespace vwr2a::runtime {

/// Shared immutable sample buffer (16.15 or coefficient fixed point).
using SharedBuffer = std::shared_ptr<const std::vector<std::int32_t>>;

/// Convenience: wraps a vector into a shared immutable buffer.
inline SharedBuffer make_buffer(std::vector<std::int32_t> data) {
  return std::make_shared<const std::vector<std::int32_t>>(std::move(data));
}

/// FIR-11 filtering of n samples (16.15) with 11 coefficient-format taps.
struct FirJob {
  unsigned n = 0;
  SharedBuffer taps;   ///< kernels::kFirTaps coefficients
  SharedBuffer input;  ///< n samples
};

/// Complex FFT, n in {256, 512, 1024, 2048}; input/output are 2n words of
/// interleaved re,im in 16.15, natural order.
struct CfftJob {
  unsigned n = 0;
  SharedBuffer input;  ///< 2n interleaved words
};

/// Real FFT, n in {512, 1024, 2048}: n real samples (16.15) in, n/2+1
/// complex bins out (n+2 interleaved words, natural order). Matches
/// dsp::rfft_fx bit-for-bit.
struct RfftJob {
  unsigned n = 0;
  SharedBuffer input;  ///< n real samples
};

/// Inverse complex FFT, n in {256, 512, 1024}; input/output are 2n words of
/// interleaved re,im in 16.15, natural order. Matches dsp::pease_ifft_fx.
struct IfftJob {
  unsigned n = 0;
  SharedBuffer input;  ///< 2n interleaved words
};

/// Scalar reduction flavour of a ReduceJob.
enum class ReduceOp : std::uint8_t {
  kMin = 0,  ///< minimum element (host-driven bisection over count_le)
  kMax,      ///< maximum element (same bisection)
  kMean,     ///< truncating integer mean (sum kernel + host divide)
  kEnergy,   ///< 32-bit wrap sum of fixed-point squares (sum-of-squares kernel)
};

/// Scalar reduction over n samples, n a multiple of 128 (whole SPM rows),
/// n <= 4096. Values must lie in the 18-bit signal range [-2^17, 2^17)
/// (any 16.15 signal in (-2, 2) qualifies); min/max resolve it by
/// bisection. Output is one word.
struct ReduceJob {
  ReduceOp op = ReduceOp::kMin;
  unsigned n = 0;
  SharedBuffer input;  ///< n samples
};

/// Threshold-hysteresis min/max delineation of n samples (16.15), n a
/// multiple of 128, n <= 2048. Output is one record per detected extremum,
/// encoded (index << 1) | is_max in submission order -- the kernel's native
/// record format. At most kernels::kMaxExtrema records fit one run; inputs
/// whose hysteresis fires more often fail the job (future rethrows).
struct DelineationJob {
  unsigned n = 0;
  std::int32_t threshold = 0;  ///< hysteresis threshold (16.15)
  SharedBuffer input;          ///< n samples
};

/// FIR -> rFFT -> reduce feature pipeline over one n-sample window, n in
/// {512, 1024} (the FIR driver caps n at 1024): FIR-11 preprocessing of the
/// window, the energy (32-bit wrap sum of fixed-point squares, matching
/// dsp::energy_fx) of the filtered signal, and its real FFT. The wire-
/// friendly spectral-feature job a streaming session emits when it is not
/// running the whole MBioTracker application. Output:
///   word 0:        energy of the filtered window
///   words 1..n+2:  the n/2+1 interleaved re,im spectrum bins
struct PipelineJob {
  unsigned n = 0;
  SharedBuffer taps;   ///< kernels::kFirTaps coefficients
  SharedBuffer input;  ///< holds samples [offset, offset + n)
  /// First sample within `input`: streaming sessions pass windows as views
  /// into a shared staging segment (overlap staged once per segment, not
  /// copied per window); plain callers leave it 0 with an exact-size buffer.
  unsigned offset = 0;
};

/// One whole MBioTracker application window (app::kWindow = 512 samples in
/// 16.15, natural units in (-1, 1)) run end-to-end on the selected target:
/// FIR preprocessing, delineation, feature extraction, SVM class. Output:
///   word 0: SVM class (+1 / -1)
///   word 1: detected extrema count
///   words 2..7: the six features, quantized to 16.15
struct BioTrackerJob {
  app::Target target = app::Target::kCpuVwr2a;
  SharedBuffer input;  ///< holds app::kWindow samples at `offset`
  unsigned offset = 0; ///< first sample within `input` (see PipelineJob)
};

/// One runtime request. `pin` selects the scheduling policy: -1 (default)
/// lets the pool place the job on device `seq % devices`; 0..devices-1
/// forces the job onto one device -- how an ablation sweep routes each
/// variant's jobs to the device built with that soc::ArchConfig.
struct Job {
  std::variant<FirJob, CfftJob, RfftJob, IfftJob, ReduceJob, DelineationJob,
               PipelineJob, BioTrackerJob>
      work;
  std::string tag;  ///< caller label, echoed into the result
  int pin = -1;     ///< pin_to_device: fixed device index, or -1 for round-robin
  /// Observability correlation id (obs::window_id for stream windows,
  /// 0 = untraced). Carried through placement, queueing and Device::run so
  /// the flight recorder can chain one window's spans across threads.
  /// Never consulted by scheduling or execution.
  std::uint64_t trace_id = 0;
};

/// Completed-job report.
struct JobResult {
  /// Per-stage host/simulated timing of the job's life in the pool,
  /// stamped only while obs::spans_enabled() (all-zero otherwise). The
  /// gateway folds it into the protocol-v6 WINDOW_RESULT span breakdown.
  /// Observability only: never consulted by scheduling or execution.
  struct Timing {
    std::uint64_t enq_ns = 0;        ///< host ns at pool submission
    std::uint64_t run_begin_ns = 0;  ///< host ns when Device::run started
    std::uint64_t run_end_ns = 0;    ///< host ns when Device::run returned
    std::uint64_t place_cycles = 0;  ///< estimated device clock at placement
    std::uint64_t sim_begin = 0;     ///< device-local cycle at run begin
    bool stamped() const { return run_end_ns != 0; }
  };

  std::vector<std::int32_t> output;  ///< kernel output words
  soc::Platform::Snapshot cost;      ///< per-job cycle/energy delta
  unsigned device = 0;               ///< device the job ran on
  std::uint64_t seq = 0;             ///< global submission index
  unsigned launches = 0;             ///< kernel launches issued
  std::string tag;
  Timing timing;                     ///< spans-gated, see above
};

/// Future side of a submitted job. get() blocks for completion and rethrows
/// any error the job raised on its worker.
class JobHandle {
 public:
  JobHandle() = default;
  explicit JobHandle(std::future<JobResult> future)
      : future_(std::move(future)) {}

  bool valid() const { return future_.valid(); }
  void wait() const { future_.wait(); }
  template <class Rep, class Period>
  std::future_status wait_for(
      const std::chrono::duration<Rep, Period>& d) const {
    return future_.wait_for(d);
  }

  /// Blocks for the result (one-shot). Throws HostError -- instead of the
  /// bare std::future_error the underlying future would raise -- when the
  /// handle never held a job or was already consumed.
  JobResult get() {
    if (!future_.valid()) {
      throw HostError(
          "JobHandle: get() on an invalid handle (default-constructed, "
          "moved-from, or result already retrieved)");
    }
    return future_.get();
  }

  /// get() for a caller that reports a failed job instead of handling its
  /// exception: stores the result in `out`, or returns the failure's
  /// message. The message is read while this handle still holds the job's
  /// shared state, so a worker that drops the state last (destroying the
  /// exception) is ordered after the read by the state's reference count,
  /// which ThreadSanitizer sees; the exception's own count lives in the
  /// uninstrumented C++ runtime, and a read after future::get() released
  /// the state reports as a race.
  std::optional<std::string> get_or_error(JobResult& out) {
    const std::shared_future<JobResult> state = future_.share();
    try {
      out = state.get();
    } catch (const std::exception& e) {
      return e.what();
    }
    return std::nullopt;
  }

 private:
  std::future<JobResult> future_;
};

} // namespace vwr2a::runtime
