#pragma once
// On-disk layout of the VWR2A binary artifact (the nextpnr-"chipdb"-style
// persistent cache of assembled kernel images and compiled trace
// superblocks). docs/artifact.md is the normative spec; this header is its
// code mirror: layout constants, the header fields, the FNV-1a checksum,
// and the bounds-checked little-endian readers/writers every parse in the
// subsystem goes through.
//
// Integrity model, in two layers:
//   1. checksums -- the header carries an FNV-1a 64 over itself (with the
//      checksum field zeroed) and one over the entire payload, both
//      verified by Store::open before any entry is trusted. Random
//      corruption (bit flips, truncation, appended garbage) is rejected
//      here, before an index is built.
//   2. bounded parsing -- every read goes through Reader, which can never
//      read outside the mapped file, and every enum tag / index loaded
//      into a simulator structure is range-validated. Even a corruption
//      the checksum misses cannot produce out-of-bounds access.
// Rejection is always clean: open() returns null with a reason, never
// throws through the loader, and callers fall back to in-process
// assembly/compilation.
//
// Determinism: the writer emits entries in sorted key order with no
// timestamps, absolute paths, pointers or floats, so the same inputs
// produce a byte-identical file (CI cmp-gates two independent builds).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace vwr2a::artifact {

/// File magic: "VWR2ART\0" little-endian.
inline constexpr std::uint64_t kMagic = 0x0054524132525756ull;

/// Format version. Bump on any layout or serialized-structure change
/// (including enum renumbering in isa/opcodes.hpp or cgra/tracecache.hpp:
/// serialized tags are the enums' numeric values).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Architecture fingerprint baked into the header: an artifact built
/// against different architectural constants is rejected wholesale.
inline constexpr std::uint32_t arch_tag() {
  return (arch::kSlotsPerColumn << 24) | (arch::kRcsPerColumn << 16) |
         (arch::kNumColumns << 8) | arch::kProgramWords;
}

/// Fixed header size in bytes (the payload begins right after).
inline constexpr std::uint64_t kHeaderBytes = 88;

/// Header field offsets (all scalars little-endian).
inline constexpr std::uint64_t kOffMagic = 0;
inline constexpr std::uint64_t kOffVersion = 8;
inline constexpr std::uint64_t kOffArchTag = 12;
inline constexpr std::uint64_t kOffFileSize = 16;
inline constexpr std::uint64_t kOffPayloadFnv = 24;
inline constexpr std::uint64_t kOffHeaderFnv = 32;
inline constexpr std::uint64_t kOffImageIndexOff = 40;
inline constexpr std::uint64_t kOffImageCount = 48;
inline constexpr std::uint64_t kOffTraceIndexOff = 56;
inline constexpr std::uint64_t kOffTraceCount = 64;
inline constexpr std::uint64_t kOffBlobOff = 72;
inline constexpr std::uint64_t kOffReserved = 80;

/// Index entry sizes (see docs/artifact.md).
inline constexpr std::uint64_t kImageEntryBytes = 32;  ///< 4 x u64
inline constexpr std::uint64_t kTraceEntryBytes = 48;  ///< 6 x u64

/// Checksum: 8 interleaved FNV-1a 64 lanes (byte i feeds lane i mod 8,
/// lane l seeded with offset-basis + l), folded FNV-style into one value.
/// Interleaving breaks the serial multiply dependency of plain FNV-1a, so
/// wide cores run ~8 lanes in parallel -- Store::open checksums the whole
/// payload before trusting anything, and that scan sits directly on the
/// warm-start path. Detection quality for random corruption is unchanged:
/// every byte still feeds a full FNV chain.
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  constexpr std::uint64_t kBasis = 1469598103934665603ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t lane[8];
  for (unsigned l = 0; l < 8; ++l) lane[l] = kBasis + l;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned l = 0; l < 8; ++l) {
      lane[l] = (lane[l] ^ data[i + l]) * kPrime;
    }
  }
  for (; i < n; ++i) lane[i % 8] = (lane[i % 8] ^ data[i]) * kPrime;
  std::uint64_t h = kBasis;
  for (unsigned l = 0; l < 8; ++l) {
    for (unsigned b = 0; b < 8; ++b) {
      h = (h ^ static_cast<std::uint8_t>(lane[l] >> (8 * b))) * kPrime;
    }
  }
  return h;
}

// --- little-endian writer -----------------------------------------------------

/// Appends little-endian scalars to a byte vector. The single encoder used
/// by the builder, so byte order and field packing cannot drift between
/// sections.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v), 4); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }

  std::size_t size() const { return out_->size(); }

 private:
  void put(std::uint64_t v, unsigned bytes) {
    for (unsigned i = 0; i < bytes; ++i) {
      out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<std::uint8_t>* out_;
};

/// Patches a u64 already written at `off` (header fix-ups).
inline void patch_u64(std::vector<std::uint8_t>& buf, std::uint64_t off,
                      std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// --- bounds-checked little-endian reader --------------------------------------

/// A cursor over a byte range that can never read outside it: every
/// primitive sets `ok = false` (and returns 0) instead of over-reading.
/// Callers check ok once at the end of a parse -- sticky-failure style, so
/// a truncated or lying buffer degrades to a clean reject, never UB.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : p_(data), n_(n) {}

  bool ok() const { return ok_; }
  std::size_t remaining() const { return n_ - pos_; }
  bool at_end() const { return pos_ == n_; }

  std::uint8_t u8() { return static_cast<std::uint8_t>(get(1)); }
  std::uint16_t u16() { return static_cast<std::uint16_t>(get(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get(4)); }
  std::uint64_t u64() { return get(8); }
  std::int32_t i32() { return static_cast<std::int32_t>(get(4)); }

  /// Length-prefixed string; the length is validated against the remaining
  /// bytes before anything is copied, so a lying prefix cannot
  /// over-allocate.
  std::string str() {
    const std::uint32_t len = u32();
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(p_ + pos_), len);
    pos_ += len;
    return s;
  }

  /// Marks the parse failed (semantic validation, e.g. an enum tag out of
  /// range).
  void fail() { ok_ = false; }

 private:
  std::uint64_t get(unsigned bytes) {
    if (!ok_ || bytes > remaining()) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
    }
    pos_ += bytes;
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

} // namespace vwr2a::artifact
