#include "gateway/protocol.hpp"

#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/codec.hpp"

namespace vwr2a::gateway {

namespace {

template <class T>
constexpr bool kIsVector = false;
template <class T>
constexpr bool kIsVector<std::vector<T>> = true;

/// Wire bytes of one T -- for strings and vectors, of their empty form.
/// Array elements are sized with it for the count-vs-remaining check.
template <class T>
constexpr std::size_t wire_size() {
  if constexpr (std::is_arithmetic_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsVector<T> || std::is_same_v<T, std::string>) {
    return 4;
  } else {
    // Summed over the field types alone: no T is built, so a struct with
    // string fields still sizes at compile time.
    using Tie = decltype(T::tie(std::declval<T&>()));
    return []<class... F>(std::type_identity<std::tuple<F...>>) {
      return (std::size_t{0} + ... + wire_size<std::remove_cvref_t<F>>());
    }(std::type_identity<Tie>{});
  }
}

/// The one generic writer: scalars and strings map onto codec::Writer,
/// vectors are count-prefixed arrays, and a struct writes its `tie` fields
/// in order.
template <class T>
void put(codec::Writer& w, const T& v) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    w.u8(v);
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    w.u16(v);
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    w.u32(v);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    w.u64(v);
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    w.i32(v);
  } else if constexpr (std::is_same_v<T, double>) {
    w.f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.str(v);
  } else if constexpr (kIsVector<T>) {
    w.array(v, [](codec::Writer& w, const auto& x) { put(w, x); });
  } else {
    std::apply([&w](const auto&... f) { (put(w, f), ...); }, T::tie(v));
  }
}

/// The one generic reader, field for field the mirror of put(). Reads are
/// sticky-failure: the caller checks the reader once at the end.
template <class T>
void get(codec::Reader& r, T& v) {
  if constexpr (std::is_same_v<T, std::uint8_t>) {
    v = r.u8();
  } else if constexpr (std::is_same_v<T, std::uint16_t>) {
    v = r.u16();
  } else if constexpr (std::is_same_v<T, std::uint32_t>) {
    v = r.u32();
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    v = r.u64();
  } else if constexpr (std::is_same_v<T, std::int32_t>) {
    v = r.i32();
  } else if constexpr (std::is_same_v<T, double>) {
    v = r.f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    v = r.str();
  } else if constexpr (kIsVector<T>) {
    using E = typename T::value_type;
    constexpr std::size_t kElemBytes = wire_size<E>();
    v = r.array<E>(kElemBytes, [](codec::Reader& r) {
      E x;
      get(r, x);
      return x;
    });
  } else {
    std::apply([&r](auto&... f) { (get(r, f), ...); }, T::tie(v));
  }
}

/// Decodes the payload of the Frame alternative whose kType is `type`.
template <std::size_t I = 0>
Frame decode_payload(FrameType type, codec::Reader& r) {
  if constexpr (I == std::variant_size_v<Frame>) {
    throw ProtocolError("gateway: unknown frame type",
                        ErrorCode::kUnknownType);
  } else {
    using T = std::variant_alternative_t<I, Frame>;
    if (type != T::kType) return decode_payload<I + 1>(type, r);
    T f;
    get(r, f);
    return f;
  }
}

} // namespace

FrameType frame_type(const Frame& f) {
  return std::visit([](const auto& v) { return v.kType; }, f);
}

void encode(const Frame& f, std::vector<std::uint8_t>& out) {
  const std::size_t len_at = out.size();
  codec::Writer w(out);
  w.u32(0);  // patched below
  w.u8(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(frame_type(f)));
  std::visit([&w](const auto& v) { put(w, v); }, f);
  const std::size_t body = out.size() - len_at - 4;  // ver + type + payload
  if (body - 2 > kMaxFramePayload) {
    throw ProtocolError("gateway: frame payload exceeds kMaxFramePayload");
  }
  codec::patch_u32(out, len_at, static_cast<std::uint32_t>(body));
}

std::vector<std::uint8_t> encode(const Frame& f) {
  std::vector<std::uint8_t> out;
  encode(f, out);
  return out;
}

void Decoder::feed(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, so the buffer stays
  // O(one frame + one receive chunk).
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<Frame> Decoder::next() {
  if (poisoned_) {
    throw ProtocolError("gateway: decoder poisoned by an earlier bad frame");
  }
  if (buffered() < 4) return std::nullopt;
  const std::uint8_t* p = buf_.data() + pos_;
  const std::uint32_t len = codec::Reader(p, 4).u32();
  if (len < 2 || len - 2 > kMaxFramePayload) {
    poisoned_ = true;
    throw ProtocolError("gateway: frame length prefix out of bounds");
  }
  if (buffered() < 4ull + len) return std::nullopt;
  try {
    const std::uint8_t ver = p[4];
    if (ver != kProtocolVersion) {
      throw ProtocolError("gateway: protocol version mismatch",
                          ErrorCode::kBadVersion);
    }
    codec::Reader r(p + 6, len - 2);
    Frame f = decode_payload(static_cast<FrameType>(p[5]), r);
    if (!r.ok()) {
      throw ProtocolError("gateway: frame payload truncated");
    }
    if (!r.at_end()) {
      throw ProtocolError("gateway: trailing bytes in frame payload");
    }
    pos_ += 4ull + len;
    return f;
  } catch (...) {
    poisoned_ = true;
    throw;
  }
}

} // namespace vwr2a::gateway
