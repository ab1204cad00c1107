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
// (both count-prefixed codec arrays: Writer::array / Reader::array)
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
  w.array(c.sram, [](codec::Writer& o, Word v) { o.i32(v); });
  w.array(c.spm_rows, [](codec::Writer& o, const SpmRowImage& r) {
    o.u32(r.row);
    o.u64(r.stamp);
    for (Word v : r.data) o.i32(v);
  });
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
  // The arrays' counts follow the codec's count rule (a count the
  // remaining bytes cannot hold fails the reader before anything is
  // allocated); the domain bounds are checked once the arrays are read.
  c.sram = r.array<Word>(4, [](codec::Reader& in) {
    return static_cast<Word>(in.i32());
  });
  if (!r.ok() || c.sram.size() > arch::kSramBytes / 4) {
    return reject("checkpoint: SRAM region out of bounds");
  }
  constexpr std::size_t kRowBytes = 4 + 8 + 4 * arch::kVwrWords;
  c.spm_rows = r.array<SpmRowImage>(kRowBytes, [](codec::Reader& in) {
    SpmRowImage row;
    row.row = in.u32();
    row.stamp = in.u64();
    for (Word& v : row.data) v = static_cast<Word>(in.i32());
    return row;
  });
  if (!r.ok() || c.spm_rows.size() > arch::kSpmRows) {
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
