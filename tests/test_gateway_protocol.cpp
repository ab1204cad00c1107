// Gateway frame codec: round-trip property tests for every frame type
// (random payloads, chunked incremental feeding) and decoder hardening --
// truncated, oversized, corrupted and random byte streams must raise
// ProtocolError (or wait for more bytes), never crash, over-read, or
// blow up an allocation.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <variant>
#include <vector>

#include "alloc_cap.hpp"
#include "common/codec.hpp"
#include "common/rng.hpp"
#include "fuzz_util.hpp"
#include "gateway/protocol.hpp"
#include "runtime/pool.hpp"

namespace vwr2a::gateway {
namespace {

/// Fills `v` with random wire values by walking the same field lists the
/// codec walks; sample arrays get up to 600 words, load arrays up to 8
/// records, strings up to 120 bytes.
template <class T>
void randomize(Rng& rng, T& v) {
  if constexpr (std::is_same_v<T, double>) {
    v = rng.next_range(-1e12, 1e12);
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(rng.next_u64());
  } else if constexpr (std::is_same_v<T, std::string>) {
    v.resize(rng.next_below(121));
    for (char& c : v) c = static_cast<char>(rng.next_below(256));
  } else if constexpr (requires { typename T::value_type; }) {
    v.resize(rng.next_below(
        std::is_integral_v<typename T::value_type> ? 601 : 9));
    for (auto& x : v) randomize(rng, x);
  } else {
    std::apply([&rng](auto&... f) { (randomize(rng, f), ...); }, T::tie(v));
  }
}

/// A random frame of wire type `i` (mod the type count): round-robin by
/// `i` covers every type.
template <std::size_t I = 0>
Frame random_frame(Rng& rng, std::size_t i) {
  if constexpr (I + 1 < std::variant_size_v<Frame>) {
    if (i % std::variant_size_v<Frame> != I) {
      return random_frame<I + 1>(rng, i);
    }
  }
  std::variant_alternative_t<I, Frame> f;
  randomize(rng, f);
  return f;
}

std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 15];
  }
  return s;
}

/// One fixed frame of every wire type with its encoding: the wire bytes
/// are the protocol (journals store re-encoded frames), so a reordered
/// field or a changed width must fail here.
struct PinnedFrame {
  Frame frame;
  const char* hex;
};

const std::vector<PinnedFrame>& pinned_frames() {
  static const Stats kStats{
      {{"fleet.jobs_completed", 41},
       {"fleet.total_pj", std::bit_cast<std::uint64_t>(3.25)},
       {"gateway.frames_in", 7}},
      {{100, 3, 0}, {200, 4, 1}},
      {{9, 1, 10, 9, 2, 500}}};
  static const std::vector<PinnedFrame> kFrames = {
      {OpenSession{0x01020304, 7, 1, 2, 1, 512, 256, 4, 2048},
       "1d0000000a010403020107000000010201000200000001000004000000000800"
       "00"},
      {PushSamples{9, {1, -2, 0x7fffffff}},
       "160000000a02090000000300000001000000feffffffffffff7f"},
      {Flush{3},
       "060000000a0303000000"},
      {Close{4},
       "060000000a0404000000"},
      {StatsRequest{},
       "020000000a05"},
      {OpenOk{5, 0x1122334455667788ull, 6},
       "120000000a8105000000887766554433221106000000"},
      {WindowResult{5, 123, 2, 456, 1.5, {10, -20, 30}, 7, 8, 9, 10, 11},
       "5a0000000a82050000007b0000000000000002000000c8010000000000000000"
       "00000000f83f030000000a000000ecffffff1e00000007000000000000000800"
       "00000000000009000000000000000a000000000000000b00000000000000"},
      {FlushOk{5, 42},
       "0e0000000a83050000002a00000000000000"},
      {CloseOk{5, 1, 2, 3, 4, 5, 6, 7, 8},
       "460000000a840500000001000000000000000200000000000000030000000000"
       "0000040000000000000005000000000000000600000000000000070000000000"
       "00000800000000000000"},
      {kStats,
       "b30000000a850300000014000000666c6565742e6a6f62735f636f6d706c6574"
       "656429000000000000000e000000666c6565742e746f74616c5f706a00000000"
       "00000a4011000000676174657761792e6672616d65735f696e07000000000000"
       "00020000006400000000000000030000000000000000c8000000000000000400"
       "00000000000001010000000900000000000000010000000a0000000000000009"
       "000000000000000200000000000000f401000000000000"},
      {Error{kConnectionStream, 4, "bad params"},
       "160000000a86ffffffff04000a00000062616420706172616d73"},
  };
  return kFrames;
}

TEST(GatewayProtocol, EveryFrameTypeEncodesToPinnedBytes) {
  std::set<FrameType> types;
  for (const PinnedFrame& p : pinned_frames()) {
    const std::vector<std::uint8_t> wire = encode(p.frame);
    types.insert(frame_type(p.frame));
    EXPECT_EQ(to_hex(wire), p.hex);
    Decoder dec;
    dec.feed(wire);
    const auto got = dec.next();
    ASSERT_TRUE(got.has_value()) << p.hex;
    EXPECT_EQ(to_hex(encode(*got)), p.hex);
  }
  EXPECT_EQ(types.size(), std::variant_size_v<Frame>);
}

TEST(GatewayProtocol, RoundTripsEveryFrameType) {
  Rng rng(11001);
  for (unsigned i = 0; i < 220; ++i) {
    const Frame want = random_frame(rng, i);
    Decoder dec;
    dec.feed(encode(want));
    const auto got = dec.next();
    ASSERT_TRUE(got.has_value()) << "frame " << i;
    EXPECT_TRUE(*got == want) << "frame " << i;
    EXPECT_EQ(dec.buffered(), 0u) << "frame " << i;
    EXPECT_FALSE(dec.next().has_value());
  }
}

TEST(GatewayProtocol, DecodesByteAtATimeAndInBursts) {
  // The incremental decoder must produce the same frames regardless of how
  // the byte stream is chunked.
  Rng rng(11002);
  std::vector<Frame> want;
  std::vector<std::uint8_t> wire;
  for (unsigned i = 0; i < 22; ++i) {
    want.push_back(random_frame(rng, i));
    encode(want.back(), wire);
  }
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3},
                                  std::size_t{17}, wire.size()}) {
    Decoder dec;
    std::vector<Frame> got;
    for (std::size_t off = 0; off < wire.size(); off += chunk) {
      const std::size_t n = std::min(chunk, wire.size() - off);
      dec.feed(wire.data() + off, n);
      while (auto f = dec.next()) got.push_back(std::move(*f));
    }
    ASSERT_EQ(got.size(), want.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_TRUE(got[i] == want[i]) << "chunk " << chunk << " frame " << i;
    }
  }
}

TEST(GatewayProtocol, IncompleteFrameWaitsForMoreBytes) {
  const std::vector<std::uint8_t> wire =
      encode(PushSamples{7, {1, 2, 3, 4, 5}});
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    Decoder dec;
    dec.feed(wire.data(), cut);
    EXPECT_FALSE(dec.next().has_value()) << "cut " << cut;  // never throws
    dec.feed(wire.data() + cut, wire.size() - cut);
    EXPECT_TRUE(dec.next().has_value()) << "cut " << cut;
  }
}

TEST(GatewayProtocol, RejectsOversizedLengthPrefixBeforeAllocating) {
  // length = 0xffffffff: must throw on the 4-byte prefix alone, without
  // waiting for (or allocating) 4 GiB.
  Decoder dec;
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  dec.feed(huge, sizeof huge);
  EXPECT_THROW(dec.next(), ProtocolError);
  // Poisoned: connection-fatal semantics.
  EXPECT_THROW(dec.next(), ProtocolError);
}

TEST(GatewayProtocol, RejectsRuntLengthPrefix) {
  Decoder dec;
  const std::uint8_t runt[4] = {1, 0, 0, 0};  // length 1 < ver + type
  dec.feed(runt, sizeof runt);
  EXPECT_THROW(dec.next(), ProtocolError);
}

TEST(GatewayProtocol, RejectsBadVersionAndUnknownType) {
  {
    std::vector<std::uint8_t> wire = encode(Flush{1});
    wire[4] = kProtocolVersion + 1;
    Decoder dec;
    dec.feed(wire);
    try {
      dec.next();
      FAIL() << "bad version accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, ErrorCode::kBadVersion);
    }
  }
  // 0x06 and 0x87 were STATS_SUBSCRIBE and STATS_PUSH before v10.
  for (const std::uint8_t type : {0x7f, 0x06, 0x87}) {
    std::vector<std::uint8_t> wire = encode(Flush{1});
    wire[5] = type;  // no such frame type
    Decoder dec;
    dec.feed(wire);
    try {
      dec.next();
      FAIL() << "unknown type " << int{type} << " accepted";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, ErrorCode::kUnknownType);
    }
  }
}

/// Feeds `wire` to a fresh decoder: it must throw (with `code`, when
/// given) and stay poisoned -- the next call throws too.
void expect_rejected_and_poisoned(const fuzz::Bytes& wire,
                                  const std::string& what,
                                  std::optional<ErrorCode> code = {}) {
  Decoder dec;
  dec.feed(wire);
  try {
    dec.next();
    ADD_FAILURE() << what << ": accepted";
  } catch (const ProtocolError& e) {
    if (code) {
      EXPECT_EQ(e.code, *code) << what;
    }
  }
  EXPECT_THROW(dec.next(), ProtocolError) << what;
}

TEST(GatewayProtocol, RejectsLyingArrayCountWithoutOverReading) {
  // Every count prefix patched by the shared fuzzer to claim more than its
  // frame holds: the decoder must reject the frame (kBadFrame) before
  // touching bytes past it or allocating count * element size -- the
  // allocation cap at the top of this file turns a buffer sized from the
  // lie into a failure here.
  struct Case {
    Frame frame;
    std::size_t count_at;  ///< wire offset of the count prefix
    std::uint32_t count;   ///< its honest value
  };
  const Case cases[] = {
      {PushSamples{9, {1, 2, 3}}, 10, 3},
      {WindowResult{5, 1, 2, 3, 0.5, {4, 5}}, 38, 2},
      {Error{1, 2, "abc"}, 12, 3},
      {Stats{{{"a", 1}, {"bc", 2}}, {}, {}}, 6, 2},  // STATS row count
      {Stats{{{"abcd", 1}}, {}, {}}, 10, 4},         // row name length
      {Stats{{}, {{1, 2, 0}}, {}}, 10, 1},           // device count
      {Stats{{}, {}, {{1, 2, 3, 4, 5, 6}}}, 14, 1},  // session count
  };
  for (const Case& c : cases) {
    fuzz::lying_counts(encode(c.frame),
                       {{.at = c.count_at, .value = c.count}},
                       [](const fuzz::Bytes& bad, const std::string& label) {
                         expect_rejected_and_poisoned(bad, label,
                                                      ErrorCode::kBadFrame);
                       });
  }
}

TEST(GatewayProtocol, RejectsTrailingBytesInsidePayload) {
  // A frame longer than its payload needs: strict framing rejects it.
  std::vector<std::uint8_t> wire = encode(Flush{3});
  wire.push_back(0xab);                // extra payload byte...
  wire[0] = static_cast<std::uint8_t>(wire[0] + 1);  // ...covered by length
  Decoder dec;
  dec.feed(wire);
  EXPECT_THROW(dec.next(), ProtocolError);
}

/// Every truncation the shared fuzzer makes of `f`, with the length
/// prefix patched to cover exactly what is left, so the payload ends early
/// (or, for the one trailing byte, late): each must throw (truncated read,
/// count-vs-remaining or trailing-byte reject), never crash or over-read,
/// and poison the decoder. Cuts inside the 6-byte header only wait.
void expect_every_truncation_throws(const Frame& f) {
  const fuzz::Bytes full = encode(f);
  const std::string type = std::to_string(static_cast<int>(frame_type(f)));
  fuzz::truncations(full, fuzz::Sweep{.head = full.size()},
                    [&](fuzz::Bytes wire, const std::string& label) {
                      if (wire.size() < 6) return;
                      const auto len = static_cast<std::uint32_t>(wire.size());
                      codec::patch_u32(wire, 0, len - 4);
                      expect_rejected_and_poisoned(
                          wire, "type " + type + " " + label);
                    });
}

TEST(GatewayProtocol, TruncatedPayloadFieldsThrowNotCrash) {
  for (const PinnedFrame& p : pinned_frames()) {
    expect_every_truncation_throws(p.frame);
  }
}

TEST(GatewayProtocol, TruncatedStatsLoadsThrowNotCrash) {
  // Longer load arrays than the pinned STATS: every truncation must throw
  // before allocating either array.
  Stats st;
  st.rows = {{"fleet.devices", 4}, {"gateway.sessions", 2}};
  st.devices.resize(3);
  st.sessions.resize(2);
  expect_every_truncation_throws(st);
}

TEST(GatewayProtocol, UnknownStatsRowRoundTripsAndTypedViewIgnoresIt) {
  // Forward compatibility of the v9 named rows: a STATS frame from a peer
  // with a counter this build does not know re-encodes byte-exact (rows
  // are kept verbatim), its typed view ignores the unknown row, and a
  // table row the peer did not send reads 0.
  runtime::FleetCounters want;
  std::uint64_t k = 100;
  for (const auto& f : runtime::kFleetFields) {
    if (f.kind != obs::StatKind::kF64) want.*f.u64 = ++k;
  }
  want.total_pj = 12.5;
  Stats st;
  obs::to_rows<runtime::kFleetFields>(want, st.rows);
  st.rows.insert(st.rows.begin() + 3, StatRow{"fleet.from_a_newer_peer", 7});
  ASSERT_EQ(st.rows.back().name, "fleet.replay_sync_points");
  st.rows.pop_back();  // an older peer: one row missing
  want.replay_sync_points = 0;

  const std::vector<std::uint8_t> wire = encode(st);
  Decoder dec;
  dec.feed(wire);
  const auto got = dec.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(encode(*got), wire);
  const Stats& back = std::get<Stats>(*got);
  EXPECT_EQ(back.rows, st.rows);
  EXPECT_TRUE(obs::view<runtime::kFleetFields>(back.rows) == want);
}

TEST(GatewayProtocol, RandomByteFuzzNeverCrashes) {
  // Pure noise: the decoder either waits for more, yields a (meaningless
  // but type-safe) frame, or throws ProtocolError. 2k streams.
  Rng rng(11003);
  for (unsigned round = 0; round < 2000; ++round) {
    Decoder dec;
    const unsigned len = 1 + rng.next_below(200);
    std::vector<std::uint8_t> junk(len);
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.next_below(256));
    }
    // Bias some prefixes toward plausible headers so deeper paths fuzz too.
    if (round % 4 == 0 && junk.size() >= 6) {
      junk[0] = static_cast<std::uint8_t>(junk.size() - 4);
      junk[1] = junk[2] = junk[3] = 0;
      junk[4] = kProtocolVersion;
      junk[5] = static_cast<std::uint8_t>(1 + rng.next_below(12));
    }
    dec.feed(junk);
    try {
      while (dec.next().has_value()) {
      }
    } catch (const ProtocolError&) {
      // fine: rejected
    }
  }
}

TEST(GatewayProtocol, CorruptedFrameFuzzRoundTrips) {
  // Flip one byte of a valid frame anywhere: decode must yield a frame,
  // wait, or throw -- never crash. The codec is canonical: a corrupted
  // frame that still decodes re-encodes to exactly the bytes it was
  // decoded from (the journal stores re-encoded inbound frames and relies
  // on this to replay byte-identical traffic). fuzz::check holds both
  // rules.
  Rng rng(11004);
  unsigned decoded = 0;
  for (unsigned round = 0; round < 2600; ++round) {
    const Frame f = random_frame(rng, round);
    std::vector<std::uint8_t> wire = encode(f);
    const std::size_t at = rng.next_below(static_cast<unsigned>(wire.size()));
    wire[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    decoded += fuzz::check(fuzz::frames, fuzz::Policy::kRejectOrCanonical,
                           wire, "round " + std::to_string(round))
                   .values;
  }
  EXPECT_GT(decoded, 1300u);  // most single-byte flips still parse
}

} // namespace
} // namespace vwr2a::gateway
