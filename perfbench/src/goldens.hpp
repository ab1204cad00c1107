#pragma once
// Seeded inputs and their golden outputs. Kernel jobs and pipeline windows
// are checked against the dsp::reference models, bio windows against a
// fresh-platform app::MBioTracker run; every check compares output digests
// (harness.hpp), computed before or after the timed region, never in it.

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "runtime/job.hpp"

namespace perfbench {

/// A job and the digest of its correct output.
struct CheckedJob {
  vwr2a::runtime::Job job;
  std::uint64_t golden = 0;
};

/// Kernel families of the `kernels` workload.
CheckedJob make_fir(unsigned n, vwr2a::Rng& rng);
CheckedJob make_cfft(unsigned n, vwr2a::Rng& rng);
CheckedJob make_rfft(unsigned n, vwr2a::Rng& rng);
CheckedJob make_ifft(unsigned n, vwr2a::Rng& rng);
CheckedJob make_reduce(vwr2a::runtime::ReduceOp op, unsigned n,
                       vwr2a::Rng& rng);
/// A delineation job whose signal stays within the kernel's extrema limit.
CheckedJob make_delineation(unsigned n, vwr2a::Rng& rng);
CheckedJob make_pipeline(unsigned n, vwr2a::Rng& rng);
CheckedJob make_bio(vwr2a::Rng& rng);

/// Golden digests of one 512-sample window.
std::uint64_t pipeline_golden(const std::vector<std::int32_t>& window);
std::uint64_t bio_golden(const std::vector<std::int32_t>& window);

/// One tenant's sample stream: a seeded period of kPeriod samples repeated
/// forever, so the distinct windows -- and the golden outputs to compute --
/// are bounded (kPeriod / hop of them) however long a run streams.
struct StreamSpec {
  static constexpr unsigned kPeriod = 4096;
  static constexpr unsigned kWindow = 512;
  static constexpr unsigned kChunk = 256;  ///< push granularity

  bool bio = true;
  unsigned hop = kWindow;
  std::vector<std::int32_t> period;
  std::vector<std::uint64_t> golden;  ///< per window position in the period

  /// Samples [pos, pos + kChunk) of the stream (pos a multiple of kChunk).
  std::span<const std::int32_t> chunk(std::uint64_t pos) const {
    return std::span<const std::int32_t>(period).subspan(pos % kPeriod, kChunk);
  }
  /// Golden digest of window `index`.
  std::uint64_t golden_of(std::uint64_t index) const {
    return golden[index % golden.size()];
  }
  /// Index of the chunk holding window `index`'s last sample.
  std::uint64_t last_chunk(std::uint64_t index) const {
    return (index * hop + kWindow - 1) / kChunk;
  }
};

/// Builds `kinds.size()` streams (kinds[i]: bio?, hops[i]: hop) from
/// `seed`, computing their goldens on up to four threads.
std::vector<StreamSpec> make_streams(const std::vector<bool>& kinds,
                                     const std::vector<unsigned>& hops,
                                     std::uint64_t seed);

} // namespace perfbench
