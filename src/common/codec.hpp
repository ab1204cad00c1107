#pragma once
// The one binary codec behind the repo's on-disk and wire formats: device
// checkpoints (runtime/checkpoint.cpp), traffic journals (.vwr2jrn,
// obs/journal.cpp), trace captures (.vwr2trc, obs/capture.cpp) and the
// gateway wire protocol (gateway/protocol.cpp, whose frames are field
// lists walked over this Writer and Reader). It holds a little-endian
// Writer, a bounds-checked sticky-failure Reader, the FNV-1a checksum the
// checksummed formats are defined with and the plain word-wise FNV-1a the
// digests use. Keeping one implementation means byte order, string and
// array framing and the reject-on-truncation discipline cannot drift
// between formats. Every count prefix (strings, arrays) follows one rule:
// count x element wire size must fit the bytes that remain, checked before
// anything is allocated.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace vwr2a::codec {

/// FNV-1a 64 parameters.
inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Plain word-wise FNV-1a: folds one whole value (not its bytes) into `h`.
/// A digest starts at kFnvBasis and folds its values in order. Journal
/// per-stream output digests are defined this way (one step per output
/// word, as uint32), so changing it changes .vwr2jrn files.
constexpr std::uint64_t fnv1a_word(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Checksum: 8 interleaved FNV-1a 64 lanes (byte i feeds lane i mod 8,
/// lane l seeded with offset-basis + l), folded FNV-style into one value.
/// Interleaving breaks the serial multiply dependency of plain FNV-1a, so
/// wide cores run ~8 lanes in parallel; every byte still feeds a full FNV
/// chain, so random-corruption detection matches plain FNV-1a. The value is
/// part of the checkpoint and journal formats: changing it changes files.
inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint64_t lane[8];
  for (unsigned l = 0; l < 8; ++l) lane[l] = kFnvBasis + l;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    for (unsigned l = 0; l < 8; ++l) lane[l] = fnv1a_word(lane[l], data[i + l]);
  }
  for (; i < n; ++i) lane[i % 8] = fnv1a_word(lane[i % 8], data[i]);
  std::uint64_t h = kFnvBasis;
  for (unsigned l = 0; l < 8; ++l) {
    for (unsigned b = 0; b < 8; ++b) {
      h = fnv1a_word(h, static_cast<std::uint8_t>(lane[l] >> (8 * b)));
    }
  }
  return h;
}

/// Appends little-endian scalars to a byte vector.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) { put(v, 2); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v), 4); }
  /// IEEE-754 bit pattern as a u64: NaN payloads survive the round trip.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
  }
  /// u32 count, then each element written by `elem(writer, element)`.
  template <class T, class Elem>
  void array(const std::vector<T>& v, Elem&& elem) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const T& x : v) elem(*this, x);
  }

 private:
  /// Appends `n` bytes for the caller to fill: one capacity check per
  /// scalar, not one per byte.
  std::uint8_t* grow(std::size_t n) {
    out_->resize(out_->size() + n);
    return out_->data() + out_->size() - n;
  }
  void put(std::uint64_t v, unsigned bytes) {
    std::uint8_t* p = grow(bytes);
    for (unsigned i = 0; i < bytes; ++i) {
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  std::vector<std::uint8_t>* out_;
};

/// Patches a u32 already written at `off` (length-prefix fix-ups).
inline void patch_u32(std::vector<std::uint8_t>& buf, std::uint64_t off,
                      std::uint32_t v) {
  for (unsigned i = 0; i < 4; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Patches a u64 already written at `off` (header fix-ups).
inline void patch_u64(std::vector<std::uint8_t>& buf, std::uint64_t off,
                      std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) {
    buf[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// A cursor over a byte range that can never read outside it: every
/// primitive sets `ok = false` (and returns 0) instead of over-reading.
/// Callers check ok after a group of reads -- sticky-failure style, so a
/// truncated or lying buffer degrades to a clean reject, never UB.
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
  double f64() { return std::bit_cast<double>(get(8)); }

  /// The next `len` raw bytes, consumed; empty (and the reader failed)
  /// when fewer remain. The span points into the reader's buffer.
  std::span<const std::uint8_t> bytes(std::size_t len) {
    if (!ok_ || len > remaining()) {
      ok_ = false;
      return {};
    }
    const std::span<const std::uint8_t> b(p_ + pos_, len);
    pos_ += len;
    return b;
  }

  /// Length-prefixed string (Writer::str).
  std::string str() {
    const std::span<const std::uint8_t> b = bytes(count(1));
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// Count-prefixed array (Writer::array): `elem(reader)` reads one
  /// element of at least `elem_bytes` (> 0) wire bytes.
  template <class T, class Elem>
  std::vector<T> array(std::size_t elem_bytes, Elem&& elem) {
    const std::uint32_t n = count(elem_bytes);
    std::vector<T> v;
    v.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) v.push_back(elem(*this));
    return v;
  }

 private:
  /// Reads a u32 count and applies the count-vs-remaining rule before the
  /// caller allocates: a lying count fails the reader (and yields 0)
  /// instead of over-allocating or over-reading.
  std::uint32_t count(std::size_t elem_bytes) {
    const std::uint32_t n = u32();
    if (!ok_ || n > remaining() / elem_bytes) {
      ok_ = false;
      return 0;
    }
    return n;
  }

  std::uint64_t get(unsigned bytes) {
    if (!ok_ || bytes > remaining()) {
      ok_ = false;
      return 0;
    }
    std::uint64_t v = 0;
    if constexpr (std::endian::native == std::endian::little) {
      // One unaligned load instead of a byte loop GCC does not merge:
      // decoding sample arrays is on every gateway window's path.
      std::memcpy(&v, p_ + pos_, bytes);
    } else {
      for (unsigned i = 0; i < bytes; ++i) {
        v |= static_cast<std::uint64_t>(p_[pos_ + i]) << (8 * i);
      }
    }
    pos_ += bytes;
    return v;
  }

  const std::uint8_t* p_;
  std::size_t n_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

} // namespace vwr2a::codec
