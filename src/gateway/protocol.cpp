#include "gateway/protocol.hpp"

#include "common/codec.hpp"

namespace vwr2a::gateway {

namespace {

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
    codec::get(r, f);
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
  std::visit([&w](const auto& v) { codec::put(w, v); }, f);
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
