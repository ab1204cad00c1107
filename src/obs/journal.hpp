#pragma once
// Black-box traffic journal (.vwr2jrn): the gateway's wire-level flight
// recorder. While gateway::Server runs with Config::journal_path set, every
// inbound frame of every connection is recorded -- re-encoded through the
// canonical codec, so the recorded bytes are exactly what the peer sent --
// together with its connection id, a global arrival sequence number and an
// injectable-clock timestamp. Alongside the traffic the journal accumulates
// a per-(connection, stream) digest of the *outputs* the server delivered
// (window count + FNV-1a over the output words in index order): the
// bit-identity contract a replay is gated against.
//
// Why outputs, not response frames: the simulation is bit/cycle/energy
// deterministic in its outputs regardless of placement and thread
// interleave (the repo's core invariant), but response *frames* carry
// wall-clock v6 span fields that legitimately differ run to run. Hashing
// output words makes "replay reproduces the soak" a meaningful bit-exact
// gate on any machine and any fleet shape.
//
// File layout (all little-endian; records and digests go through the
// field-list walker of src/common/codec.hpp -- see docs/observability.md):
//
//   header (48 bytes)
//     u64 magic      "VWR2AJRN"
//     u32 version    kJournalVersion
//     u32 protocol   gateway wire version the traffic was recorded under
//     u64 file_size  total bytes, trailing-garbage/truncation check
//     u64 payload_fnv  codec::fnv1a over bytes [48, file_size)
//     u64 header_fnv   codec::fnv1a over the header, this field zeroed
//     u64 trailer_off  absolute offset of the digest trailer
//   records, in global arrival order (head: JournalRecord::tie)
//     u8 kind (1 conn-open, 2 frame, 3 conn-close), u32 conn, u64 seq,
//     u64 ts_ns; kind 2 adds u32 len + the encoded frame bytes
//   trailer
//     u32 count, then per stream (JournalDigest::tie): u32 conn,
//     u32 stream, u64 windows, u64 fnv (offset-basis FNV-1a folding each
//     output word: h = (h ^ u32(word)) * prime)
//
// Every byte is covered by header_fnv or payload_fnv, so any single-bit
// flip or truncation is rejected at load -- cleanly (false + reason),
// never an exception or over-read.
//
// The writer buffers records in memory and emits the whole checksummed
// file in finalize() (called from Server::stop()): a journal is a
// post-mortem artifact, not a crash-safe WAL. All writer entry points are
// thread-safe (connection readers and delivery lanes call in
// concurrently); when no journal is configured the server skips the calls
// entirely -- the disabled cost is one pointer test per frame.

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <tuple>
#include <vector>

namespace vwr2a::obs {

/// File magic: "VWR2AJRN" little-endian.
inline constexpr std::uint64_t kJournalMagic = 0x4e524a4132525756ull;
/// Journal format version; bump on any layout change.
inline constexpr std::uint32_t kJournalVersion = 1;

/// One recorded event, in global arrival order.
struct JournalRecord {
  enum Kind : std::uint8_t {
    kConnOpen = 1,   ///< a connection was accepted
    kFrame = 2,      ///< one inbound frame (bytes = canonical encoding)
    kConnClose = 3,  ///< the connection's reader exited (EOF/teardown)
  };
  std::uint8_t kind = kFrame;
  std::uint32_t conn = 0;   ///< journal-assigned connection id, from 0
  std::uint64_t seq = 0;    ///< global arrival sequence, from 0
  std::uint64_t ts_ns = 0;  ///< Server::now_ns() at the event
  std::vector<std::uint8_t> bytes;  ///< kFrame only: the full wire frame

  /// The record head's wire fields; a kFrame record's `bytes` follow it as
  /// a length-prefixed tail.
  static constexpr auto tie(auto& r) {
    return std::tie(r.kind, r.conn, r.seq, r.ts_ns);
  }
};

/// Delivered-output digest of one stream: the replay identity contract.
struct JournalDigest {
  std::uint32_t conn = 0;
  std::uint32_t stream = 0;      ///< client-chosen stream id
  std::uint64_t windows = 0;     ///< WINDOW_RESULT frames delivered
  std::uint64_t fnv = 0;         ///< FNV-1a over output words, index order

  static constexpr auto tie(auto& d) {
    return std::tie(d.conn, d.stream, d.windows, d.fnv);
  }
};

/// A fully validated journal, as loaded from disk.
struct JournalFile {
  std::uint32_t protocol = 0;  ///< wire version the traffic speaks
  std::vector<JournalRecord> records;
  std::vector<JournalDigest> digests;
};

/// The recording side, owned by gateway::Server.
class Journal {
 public:
  /// Creates/truncates `path` (fail-fast on an unwritable location) and
  /// starts recording traffic of wire version `protocol`. False + reason
  /// on failure; the journal is then inert.
  bool open(const std::string& path, std::uint32_t protocol,
            std::string* why = nullptr);

  /// Registers a new connection; returns its journal connection id.
  std::uint32_t conn_open(std::uint64_t ts_ns);
  void conn_close(std::uint32_t conn, std::uint64_t ts_ns);

  /// Records one inbound frame (its canonical wire encoding).
  void frame(std::uint32_t conn, std::uint64_t ts_ns,
             const std::vector<std::uint8_t>& bytes);

  /// Folds one delivered window's output words into the stream's digest.
  void result(std::uint32_t conn, std::uint32_t stream,
              const std::vector<std::int32_t>& output);

  /// Writes the checksummed file. Idempotent; false + reason on I/O error.
  bool finalize(std::string* why = nullptr);

  const std::string& path() const { return path_; }

 private:
  mutable std::mutex mu_;
  std::string path_;
  std::uint32_t protocol_ = 0;
  std::uint32_t next_conn_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<std::uint8_t> records_;  ///< serialized record stream
  /// Digest accumulators in first-delivery order (keyed linearly: stream
  /// counts are small and the order makes the trailer deterministic given
  /// one delivery order).
  std::vector<JournalDigest> digests_;
  bool finalized_ = false;
  bool failed_ = false;  ///< open() failed; all recording is a no-op

  /// Appends the next record head (under mu_, recording).
  void head_locked(std::uint8_t kind, std::uint32_t conn,
                   std::uint64_t ts_ns);
};

/// Fully validates journal bytes. False + reason on any corruption (bad
/// magic/version/checksum, truncation, malformed record stream); `out` is
/// then untouched. Never throws on malformed input.
bool decode_journal(std::span<const std::uint8_t> bytes, JournalFile* out,
                    std::string* why = nullptr);

/// Reads `path`, then decode_journal().
bool load_journal(const std::string& path, JournalFile* out,
                  std::string* why = nullptr);

} // namespace vwr2a::obs
