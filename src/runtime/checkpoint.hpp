#pragma once
// Device checkpoint: the serialized resident state of one runtime::Device,
// captured when the pool fail-stops the device so an in-flight streaming
// session can be re-placed onto a healthy device and continue bit-
// identically (docs/operations.md is the normative description).
//
// What is resident on a device, and therefore worth moving, is exactly the
// state the residency machinery tracks: the MBioTracker application image
// (its system-SRAM region at Device::kBioBase -- twiddle tables, FIR zero
// block, band masks, SVM weights, window staging) plus the SPM band-mask
// rows (app::kMaskRowFirst..+kMaskRowCount) together with their write
// stamps, which prove whether the image was intact at capture time. Every
// per-window job is stateless given that image, so restoring it onto any
// healthy device -- of any architecture variant -- reproduces the exact
// output words the dead device would have produced.
//
// The encoding goes through the shared codec (common/codec.hpp): a magic
// u64, a format version and a codec::fnv1a checksum, then the payload,
// which is DeviceCheckpoint's field list (`tie`) walked by the codec's
// generic put/get. A corrupt blob is rejected cleanly (decode returns
// false with a reason); the pool then restores nothing and the target
// device re-stages the image from scratch, which costs cycles but never
// correctness.

#include <array>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hpp"

namespace vwr2a::runtime {

/// Checkpoint file magic: "VWR2CKP\0" little-endian.
inline constexpr std::uint64_t kCheckpointMagic = 0x00504b4332525756ull;

/// Checkpoint format version (bump on any layout change).
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// One SPM row image: data plus the row's write stamp at capture.
struct SpmRowImage {
  std::uint32_t row = 0;
  std::array<Word, arch::kVwrWords> data{};
  std::uint64_t stamp = 0;

  /// Wire fields in wire order (the stamp precedes the data).
  static constexpr auto tie(auto& r) {
    return std::tie(r.row, r.stamp, r.data);
  }
};

/// The resident state of one device (see the header comment).
struct DeviceCheckpoint {
  std::string arch;            ///< soc::ArchConfig::name() of the source
  std::uint32_t sys_base = 0;  ///< SRAM base of the resident app image
  bool bio_resident = false;   ///< mask rows were intact at capture time
  std::vector<Word> sram;      ///< [sys_base, sys_base + size) app region
  std::vector<SpmRowImage> spm_rows;  ///< band-mask rows + write stamps
  std::uint64_t write_gen = 0;        ///< source SPM generation at capture

  /// The payload's wire fields in wire order (checkpoint.cpp has the
  /// whole layout).
  static constexpr auto tie(auto& c) {
    return std::tie(c.arch, c.sys_base, c.bio_resident, c.write_gen, c.sram,
                    c.spm_rows);
  }
};

/// Serializes a checkpoint (shared codec, see above).
std::vector<std::uint8_t> encode_checkpoint(const DeviceCheckpoint& c);

/// Parses a checkpoint blob. Returns false (and a reason, when `why` is
/// non-null) on any magic/version/checksum/bounds violation; `out` is then
/// unspecified. Never throws on malformed input.
bool decode_checkpoint(const std::vector<std::uint8_t>& blob,
                       DeviceCheckpoint* out, std::string* why = nullptr);

} // namespace vwr2a::runtime
