#include "runtime/checkpoint.hpp"

#include "common/codec.hpp"

namespace vwr2a::runtime {

// Layout (all little-endian, through the codec's field-list walker):
//   u64 magic, u32 version, u64 payload_fnv
//   payload (DeviceCheckpoint::tie):
//     str arch
//     u32 sys_base, u8 bio_resident
//     u64 write_gen
//     u32 sram_words, u32 x sram_words
//     u32 row_count, then per row (SpmRowImage::tie): u32 row, u64 stamp,
//     u32 x kVwrWords
// The checksum covers everything after the fixed 20-byte prologue, so a
// truncated or bit-flipped blob is rejected before any field is trusted.

std::vector<std::uint8_t> encode_checkpoint(const DeviceCheckpoint& c) {
  std::vector<std::uint8_t> out;
  codec::Writer w(out);
  w.u64(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(0);  // payload checksum, patched below
  const std::size_t payload_off = out.size();
  codec::put(w, c);
  codec::patch_u64(out, 12,
                   codec::fnv1a(out.data() + payload_off,
                                out.size() - payload_off));
  return out;
}

bool decode_checkpoint(const std::vector<std::uint8_t>& blob,
                       DeviceCheckpoint* out, std::string* why) {
  const auto reject = [why](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  constexpr std::size_t kPrologue = 8 + 4 + 8;
  if (blob.size() < kPrologue) return reject("checkpoint: truncated prologue");
  codec::Reader r(blob.data(), blob.size());
  if (r.u64() != kCheckpointMagic) return reject("checkpoint: bad magic");
  if (r.u32() != kCheckpointVersion) {
    return reject("checkpoint: unsupported version");
  }
  const std::uint64_t want = r.u64();
  const std::uint64_t got =
      codec::fnv1a(blob.data() + kPrologue, blob.size() - kPrologue);
  if (want != got) return reject("checkpoint: payload checksum mismatch");

  // With the checksum good, a read can only fail on a count the remaining
  // bytes cannot hold (the codec's count rule, applied before anything is
  // allocated) or on a bool byte other than 0 or 1. The field it stopped
  // at names the reject, and the domain bounds are checked once the arrays
  // are read. Fields in tie order: arch, sys_base, bio_resident,
  // write_gen, sram, spm_rows.
  DeviceCheckpoint c;
  const std::size_t fields = codec::get_fields(r, c);
  if (fields == 2 && r.remaining() > 0) {
    return reject("checkpoint: bio_resident is not 0 or 1");
  }
  if (fields < 4) return reject("checkpoint: truncated payload");
  if (fields == 4 || c.sram.size() > arch::kSramBytes / 4) {
    return reject("checkpoint: SRAM region out of bounds");
  }
  if (fields == 5 || c.spm_rows.size() > arch::kSpmRows) {
    return reject("checkpoint: SPM row count out of bounds");
  }
  for (const SpmRowImage& row : c.spm_rows) {
    if (row.row >= arch::kSpmRows) {
      return reject("checkpoint: SPM row index out of range");
    }
  }
  if (!r.at_end()) return reject("checkpoint: trailing bytes");
  *out = std::move(c);
  return true;
}

} // namespace vwr2a::runtime
