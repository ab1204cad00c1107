#pragma once
// The one binary codec behind the repo's on-disk and wire formats: device
// checkpoints (runtime/checkpoint.cpp), traffic journals (.vwr2jrn,
// obs/journal.cpp), trace captures (.vwr2trc, obs/capture.cpp) and the
// gateway wire protocol (gateway/protocol.cpp). It holds a little-endian
// Writer, a bounds-checked sticky-failure Reader, the FNV-1a checksum the
// checksummed formats are defined with, the plain word-wise FNV-1a the
// digests use, and the field-list walker (put/get/wire_size) every format
// encodes and decodes its records with. A record lists its wire fields
// once, in wire order, in a static `tie`; the walker maps the member types
// onto wire widths: fixed-width integers at their width (bool as a u8),
// double as an f64 bit pattern, strings u32-length-prefixed, vectors
// u32-count-prefixed, std::array as its elements with no prefix, and a
// nested record as its own `tie`. Keeping one implementation means byte
// order, string and array framing and the reject-on-truncation discipline
// cannot drift between formats. Every count prefix, u32 or u64, follows
// one rule: count x element wire size must fit the bytes that remain,
// checked before anything is allocated.

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
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

  /// Any integer, bool included, as its sizeof(I) low bytes.
  template <class I>
  void integer(I v) { put(static_cast<std::uint64_t>(v), sizeof(I)); }
  void u8(std::uint8_t v) { out_->push_back(v); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  /// IEEE-754 bit pattern as a u64: NaN payloads survive the round trip.
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// u32 length, then the bytes.
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    if (!s.empty()) std::memcpy(grow(s.size()), s.data(), s.size());
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

  /// Any integer, bool included; a bool byte other than 0 or 1 fails the
  /// reader, so every encoding stays canonical.
  template <class I>
  I integer() {
    const std::uint64_t v = get(sizeof(I));
    if constexpr (std::is_same_v<I, bool>) {
      if (v > 1) ok_ = false;
      return v == 1;
    }
    return static_cast<I>(v);
  }
  std::uint8_t u8() { return integer<std::uint8_t>(); }
  std::uint32_t u32() { return integer<std::uint32_t>(); }
  std::uint64_t u64() { return get(8); }
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
    const std::span<const std::uint8_t> b = bytes(count<std::uint32_t>(1));
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// Reads a `Count` (u32 or u64) count prefix and applies the
  /// count-vs-remaining rule before the caller allocates: a count whose
  /// `elem_bytes` (> 0) wire bytes per element cannot fit the bytes that
  /// remain fails the reader (and yields 0) instead of over-allocating or
  /// over-reading.
  template <class Count>
  std::size_t count(std::size_t elem_bytes) {
    static_assert(std::is_same_v<Count, std::uint32_t> ||
                  std::is_same_v<Count, std::uint64_t>);
    const std::uint64_t n = get(sizeof(Count));
    if (!ok_ || n > remaining() / elem_bytes) {
      ok_ = false;
      return 0;
    }
    return static_cast<std::size_t>(n);
  }

 private:
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

// --- the field-list walker ----------------------------------------------------

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

template <class T>
constexpr bool kIsArray = false;
template <class T, std::size_t N>
constexpr bool kIsArray<std::array<T, N>> = true;

/// Wire bytes of one T -- for strings and vectors, of their empty form.
/// Array elements are sized with it for the count-vs-remaining rule.
template <class T>
constexpr std::size_t wire_size() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsVector<T> || std::is_same_v<T, std::string>) {
    return 4;
  } else if constexpr (kIsArray<T>) {
    return std::tuple_size_v<T> * wire_size<typename T::value_type>();
  } else {
    // Summed over the field types alone: no T is built, so a record with
    // string fields still sizes at compile time.
    using Tie = decltype(T::tie(std::declval<T&>()));
    return []<class... F>(std::type_identity<std::tuple<F...>>) {
      return (std::size_t{0} + ... + wire_size<std::remove_cvref_t<F>>());
    }(std::type_identity<Tie>{});
  }
}

/// The one generic writer: integers and doubles map onto Writer, strings
/// and vectors are u32-prefixed, std::arrays are their elements, and a
/// record writes its `tie` fields in order.
template <class T>
void put(Writer& w, const T& v) {
  if constexpr (std::is_integral_v<T>) {
    w.integer(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (kIsVector<T>) {
    w.u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& x : v) put(w, x);
  } else if constexpr (kIsArray<T>) {
    for (const auto& x : v) put(w, x);
  } else {
    std::apply([&w](const auto&... f) { (put(w, f), ...); }, T::tie(v));
  }
}

/// The one generic reader, field for field the mirror of put(). Reads are
/// sticky-failure: the caller checks the reader once at the end.
template <class T>
void get(Reader& r, T& v) {
  if constexpr (std::is_integral_v<T>) {
    v = r.integer<T>();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (kIsVector<T>) {
    // The count passes the count rule before the vector is sized from it.
    v.resize(r.count<std::uint32_t>(wire_size<typename T::value_type>()));
    for (auto& x : v) get(r, x);
  } else if constexpr (kIsArray<T>) {
    for (auto& x : v) get(r, x);
  } else {
    std::apply([&r](auto&... f) { (get(r, f), ...); }, T::tie(v));
  }
}

/// get() of a record that returns how many `tie` fields were read before
/// the reader failed (all of them on success), so a decoder can name the
/// field a truncation or a lying count stopped at.
template <class T>
std::size_t get_fields(Reader& r, T& v) {
  return std::apply(
      [&r](auto&... f) {
        std::size_t read = 0;
        ((get(r, f), read += r.ok() ? 1 : 0), ...);
        return read;
      },
      T::tie(v));
}

} // namespace vwr2a::codec
