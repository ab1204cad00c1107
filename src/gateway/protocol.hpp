#pragma once
// The gateway wire protocol: length-prefixed binary frames over any
// byte-stream transport (TCP, in-process loopback). See docs/protocol.md
// for the normative layout. Summary:
//
//   u32 length   payload length + 2, little-endian (bounds the read)
//   u8  version  kProtocolVersion
//   u8  type     FrameType
//   ...          type-specific payload, little-endian scalars
//
// Strings are u32-length-prefixed UTF-8; sample/output arrays are
// u32-count-prefixed arrays of i32. The decoder is incremental (feed bytes
// as they arrive, poll complete frames) and hardened: every read is
// bounds-checked against the declared frame length, a malformed, truncated
// or oversized frame raises ProtocolError -- it never crashes, over-reads,
// or allocates more than kMaxFramePayload + a small constant.

#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "common/status.hpp"

namespace vwr2a::gateway {

/// The versioning byte every frame carries, bumped on breaking changes
/// (history: docs/protocol.md "Version history"). v10 made STATS the one
/// stats frame: it carries the device and session loads too.
inline constexpr std::uint8_t kProtocolVersion = 10;
/// Hard bound on one frame's payload; larger length prefixes are rejected
/// before any allocation happens.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;
/// ERROR frames not tied to one stream use this stream id.
inline constexpr std::uint32_t kConnectionStream = 0xffffffffu;

/// Error codes carried by ERROR frames.
enum class ErrorCode : std::uint16_t {
  kBadFrame = 1,        ///< malformed frame from the peer
  kBadVersion = 2,      ///< version byte mismatch
  kUnknownType = 3,     ///< unknown frame type
  kBadParams = 4,       ///< OPEN_SESSION parameters rejected
  kQuotaSessions = 5,   ///< per-tenant or server session cap hit
  kQuotaInflight = 6,   ///< requested max_inflight above the cap
  kQuotaRate = 7,       ///< tenant byte-rate exceeded; frame dropped
  kUnknownStream = 8,   ///< frame names a stream id never opened (or closed)
  kDuplicateStream = 9, ///< OPEN_SESSION reuses a live stream id
  kJobFailed = 10,      ///< a window's job raised on the device
  kShutdown = 11,       ///< server is stopping
};

/// A malformed/truncated/oversized frame (decode side) or an attempt to
/// encode an invalid frame. Carries the ERROR code the gateway reports for
/// it (kBadFrame unless the decoder saw something more specific).
class ProtocolError : public SimError {
 public:
  explicit ProtocolError(const std::string& msg,
                         ErrorCode code = ErrorCode::kBadFrame)
      : SimError(msg), code(code) {}
  ErrorCode code;
};

/// Frame discriminator on the wire.
enum class FrameType : std::uint8_t {
  // client -> server
  kOpenSession = 0x01,
  kPushSamples = 0x02,
  kFlush = 0x03,
  kClose = 0x04,
  kStatsRequest = 0x05,
  // server -> client
  kOpenOk = 0x81,
  kWindowResult = 0x82,
  kFlushOk = 0x83,
  kCloseOk = 0x84,
  kStats = 0x85,
  kError = 0x86,
};

// --- frame structs ------------------------------------------------------------
//
// Each frame struct lists its wire fields once, in wire order, in `tie`;
// the field-list walker of common/codec.hpp walks that list to encode and
// decode, so a frame's layout is written nowhere else. The member types
// are the wire widths: u8/u16/u32/u64 scalars, double as an f64 bit
// pattern, strings u32-length-prefixed, vectors u32-count-prefixed.
// `kType` is the frame's FrameType.

/// Opens one logical stream on the connection. `stream` is a client-chosen
/// id, unique among the connection's live streams.
struct OpenSession {
  static constexpr FrameType kType = FrameType::kOpenSession;
  std::uint32_t stream = 0;
  std::uint32_t tenant = 0;      ///< quota accounting key
  std::uint8_t kind = 0;         ///< stream::SessionKind
  std::uint8_t target = 0;       ///< app::Target for bio sessions
  std::uint8_t lossy = 0;        ///< 1: try_push semantics (drops counted)
  std::uint32_t window = 512;
  std::uint32_t hop = 512;
  std::uint32_t max_inflight = 4;
  std::uint32_t buffer_capacity = 0;  ///< staging samples; 0 = 4 * window

  static constexpr auto tie(auto& f) {
    return std::tie(f.stream, f.tenant, f.kind, f.target, f.lossy, f.window,
                    f.hop, f.max_inflight, f.buffer_capacity);
  }
  bool operator==(const OpenSession&) const = default;
};

struct OpenOk {
  static constexpr FrameType kType = FrameType::kOpenOk;
  std::uint32_t stream = 0;
  std::uint64_t session = 0;  ///< server-side session id
  std::uint32_t device = 0;   ///< soft-pin device the session landed on

  static constexpr auto tie(auto& f) {
    return std::tie(f.stream, f.session, f.device);
  }
  bool operator==(const OpenOk&) const = default;
};

struct PushSamples {
  static constexpr FrameType kType = FrameType::kPushSamples;
  std::uint32_t stream = 0;
  std::vector<std::int32_t> samples;  ///< 16.15 fixed point

  static constexpr auto tie(auto& f) { return std::tie(f.stream, f.samples); }
  bool operator==(const PushSamples&) const = default;
};

struct Flush {
  static constexpr FrameType kType = FrameType::kFlush;
  std::uint32_t stream = 0;

  static constexpr auto tie(auto& f) { return std::tie(f.stream); }
  bool operator==(const Flush&) const = default;
};

/// Sent after every window of a FLUSH (full windows + zero-padded tail)
/// has been delivered as WINDOW_RESULT frames.
struct FlushOk {
  static constexpr FrameType kType = FrameType::kFlushOk;
  std::uint32_t stream = 0;
  std::uint64_t windows_delivered = 0;  ///< stream-lifetime total

  static constexpr auto tie(auto& f) {
    return std::tie(f.stream, f.windows_delivered);
  }
  bool operator==(const FlushOk&) const = default;
};

struct Close {
  static constexpr FrameType kType = FrameType::kClose;
  std::uint32_t stream = 0;

  static constexpr auto tie(auto& f) { return std::tie(f.stream); }
  bool operator==(const Close&) const = default;
};

/// Final per-stream accounting, sent after the stream's last window.
struct CloseOk {
  static constexpr FrameType kType = FrameType::kCloseOk;
  std::uint32_t stream = 0;
  std::uint64_t windows_submitted = 0;
  std::uint64_t windows_delivered = 0;
  std::uint64_t windows_failed = 0;
  std::uint64_t samples_in = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t dropped_pushes = 0;
  std::uint64_t latency_cycles_total = 0;
  std::uint64_t latency_cycles_max = 0;

  static constexpr auto tie(auto& f) {
    return std::tie(f.stream, f.windows_submitted, f.windows_delivered,
                    f.windows_failed, f.samples_in, f.dropped_samples,
                    f.dropped_pushes, f.latency_cycles_total,
                    f.latency_cycles_max);
  }
  bool operator==(const CloseOk&) const = default;
};

struct StatsRequest {
  static constexpr FrameType kType = FrameType::kStatsRequest;

  static constexpr auto tie(auto&) { return std::tie(); }
  bool operator==(const StatsRequest&) const = default;
};

/// One named counter of a STATS frame. `value` is the row's u64, or the
/// IEEE-754 bit pattern of an f64 row.
struct StatRow {
  std::string name;  ///< the counter's registry name, e.g. fleet.jobs_failed
  std::uint64_t value = 0;

  static constexpr auto tie(auto& f) { return std::tie(f.name, f.value); }
  bool operator==(const StatRow&) const = default;
};

/// One device's live load in a STATS frame (index in the array = device id).
struct DeviceLoad {
  std::uint64_t cycles = 0;  ///< device-local clock (simulated)
  std::uint64_t jobs = 0;    ///< jobs completed on this device
  std::uint8_t dead = 0;     ///< 1 while fail-stopped

  static constexpr auto tie(auto& f) {
    return std::tie(f.cycles, f.jobs, f.dead);
  }
  bool operator==(const DeviceLoad&) const = default;
};

/// One session's live load in a STATS frame.
struct SessionLoad {
  std::uint64_t id = 0;
  std::uint32_t device = 0;  ///< device of the last delivered window
  std::uint64_t windows_submitted = 0;
  std::uint64_t windows_delivered = 0;
  std::uint64_t dropped_samples = 0;
  std::uint64_t latency_cycles_total = 0;

  static constexpr auto tie(auto& f) {
    return std::tie(f.id, f.device, f.windows_submitted, f.windows_delivered,
                    f.dropped_samples, f.latency_cycles_total);
  }
  bool operator==(const SessionLoad&) const = default;
};

/// Server + fleet telemetry, all from live non-blocking snapshots
/// (runtime::DevicePool::peek_stats: batch-boundary freshness). `rows` has
/// one row per row of the fleet and gateway counter tables, in table
/// order; obs::view reads a table's block back by name. The rows are kept
/// verbatim, so a frame re-encodes to its input bytes even when it carries
/// rows this build does not know. `sessions` carries at most the newest
/// kMaxSessionLoads sessions.
struct Stats {
  static constexpr FrameType kType = FrameType::kStats;
  static constexpr std::size_t kMaxSessionLoads = 256;
  std::vector<StatRow> rows;
  std::vector<DeviceLoad> devices;
  std::vector<SessionLoad> sessions;

  static constexpr auto tie(auto& f) {
    return std::tie(f.rows, f.devices, f.sessions);
  }
  bool operator==(const Stats&) const = default;
};

struct WindowResult {
  static constexpr FrameType kType = FrameType::kWindowResult;
  std::uint32_t stream = 0;
  std::uint64_t index = 0;   ///< window index within the stream, from 0
  std::uint32_t device = 0;  ///< device the window ran on
  std::uint64_t cycles = 0;  ///< per-window service cost (simulated)
  double pj = 0.0;           ///< per-window energy
  std::vector<std::int32_t> output;  ///< kernel output words
  /// v6 server-side span breakdown, keyed by window_id(session, index)
  /// client-side. All zero when the server's obs spans are off (the
  /// fields still travel -- a v6 frame has one layout). Host spans are
  /// wall-clock ns measured on the server; the two cycle fields are
  /// simulated device-local clocks, the same timebase as `cycles`.
  std::uint64_t queue_ns = 0;      ///< pool submit -> device claimed the job
  std::uint64_t run_ns = 0;        ///< Device::run wall time
  std::uint64_t deliver_ns = 0;    ///< run end -> WINDOW_RESULT enqueued
  std::uint64_t place_cycles = 0;  ///< estimated device backlog at placement
  std::uint64_t sim_begin = 0;     ///< device-local cycle when the run began

  static constexpr auto tie(auto& f) {
    return std::tie(f.stream, f.index, f.device, f.cycles, f.pj, f.output,
                    f.queue_ns, f.run_ns, f.deliver_ns, f.place_cycles,
                    f.sim_begin);
  }
  bool operator==(const WindowResult&) const = default;
};

struct Error {
  static constexpr FrameType kType = FrameType::kError;
  std::uint32_t stream = kConnectionStream;
  std::uint16_t code = 0;  ///< ErrorCode
  std::string message;

  static constexpr auto tie(auto& f) {
    return std::tie(f.stream, f.code, f.message);
  }
  bool operator==(const Error&) const = default;
};

/// Every frame type, one alternative each; decode dispatch walks the
/// alternatives for the one whose kType matches the type byte.
using Frame = std::variant<OpenSession, PushSamples, Flush, Close,
                           StatsRequest, OpenOk, WindowResult, FlushOk,
                           CloseOk, Stats, Error>;

/// The FrameType a Frame alternative encodes as (its kType).
FrameType frame_type(const Frame& f);

// --- codec --------------------------------------------------------------------

/// Appends `f`'s wire encoding to `out`. Throws ProtocolError if the frame
/// would exceed kMaxFramePayload.
void encode(const Frame& f, std::vector<std::uint8_t>& out);

/// Convenience: encodes into a fresh buffer.
std::vector<std::uint8_t> encode(const Frame& f);

/// Incremental frame decoder: feed arbitrary byte chunks, poll frames.
class Decoder {
 public:
  /// Appends received bytes to the internal buffer.
  void feed(const std::uint8_t* data, std::size_t n);
  void feed(const std::vector<std::uint8_t>& data) {
    feed(data.data(), data.size());
  }

  /// Decodes the next complete frame, or nullopt when more bytes are
  /// needed. Throws ProtocolError on malformed input (oversized length
  /// prefix, bad version, unknown type, payload that under- or over-runs
  /// its declared length); the decoder is then poisoned and every further
  /// call throws, matching connection-fatal semantics.
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool poisoned_ = false;
};

} // namespace vwr2a::gateway
