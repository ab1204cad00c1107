#include "runtime/checkpoint.hpp"

#include "common/codec.hpp"

namespace vwr2a::runtime {

// Layout (all little-endian, through codec::Writer):
//   u64 magic, u32 version, u64 payload_fnv
//   payload:
//     str arch
//     u32 sys_base, u8 bio_resident
//     u64 write_gen
//     u32 sram_words, i32 x sram_words
//     u32 row_count, then per row: u32 row, u64 stamp, i32 x kVwrWords
// The checksum covers everything after the fixed 20-byte prologue, so a
// truncated or bit-flipped blob is rejected before any field is trusted.

std::vector<std::uint8_t> encode_checkpoint(const DeviceCheckpoint& c) {
  std::vector<std::uint8_t> out;
  codec::Writer w(out);
  w.u64(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  w.u64(0);  // payload checksum, patched below
  const std::size_t payload_off = out.size();
  w.str(c.arch);
  w.u32(c.sys_base);
  w.u8(c.bio_resident ? 1 : 0);
  w.u64(c.write_gen);
  w.u32(static_cast<std::uint32_t>(c.sram.size()));
  for (Word v : c.sram) w.i32(v);
  w.u32(static_cast<std::uint32_t>(c.spm_rows.size()));
  for (const SpmRowImage& r : c.spm_rows) {
    w.u32(r.row);
    w.u64(r.stamp);
    for (Word v : r.data) w.i32(v);
  }
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

  DeviceCheckpoint c;
  c.arch = r.str();
  c.sys_base = r.u32();
  c.bio_resident = r.u8() != 0;
  c.write_gen = r.u64();
  const std::uint32_t sram_words = r.u32();
  if (!r.ok() || sram_words > arch::kSramBytes / 4 ||
      sram_words * 4ull > r.remaining()) {
    return reject("checkpoint: SRAM region out of bounds");
  }
  c.sram.reserve(sram_words);
  for (std::uint32_t i = 0; i < sram_words; ++i) c.sram.push_back(r.i32());
  const std::uint32_t rows = r.u32();
  if (!r.ok() || rows > arch::kSpmRows) {
    return reject("checkpoint: SPM row count out of bounds");
  }
  c.spm_rows.reserve(rows);
  for (std::uint32_t i = 0; i < rows; ++i) {
    SpmRowImage row;
    row.row = r.u32();
    row.stamp = r.u64();
    if (!r.ok() || row.row >= arch::kSpmRows) {
      return reject("checkpoint: SPM row index out of range");
    }
    for (Word& v : row.data) v = r.i32();
    c.spm_rows.push_back(row);
  }
  if (!r.ok()) return reject("checkpoint: truncated payload");
  if (!r.at_end()) return reject("checkpoint: trailing bytes");
  *out = std::move(c);
  return true;
}

} // namespace vwr2a::runtime
