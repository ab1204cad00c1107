#include "obs/journal.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/codec.hpp"

namespace vwr2a::obs {

namespace {

// Header field offsets (see journal.hpp for the layout).
constexpr std::uint64_t kHeaderBytes = 48;
constexpr std::uint64_t kOffFileSize = 16;
constexpr std::uint64_t kOffPayloadFnv = 24;
constexpr std::uint64_t kOffHeaderFnv = 32;
constexpr std::uint64_t kOffTrailerOff = 40;

bool fail(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

} // namespace

bool Journal::open(const std::string& path, std::uint32_t protocol,
                   std::string* why) {
  std::lock_guard<std::mutex> lock(mu_);
  // Fail fast on an unwritable path: a journal that silently records to
  // nowhere is worse than a refused one.
  std::ofstream probe(path, std::ios::binary | std::ios::trunc);
  if (!probe) {
    failed_ = true;
    return fail(why, "journal: cannot open '" + path + "' for writing");
  }
  path_ = path;
  protocol_ = protocol;
  return true;
}

void Journal::head_locked(std::uint8_t kind, std::uint32_t conn,
                          std::uint64_t ts_ns) {
  codec::Writer w(records_);
  JournalRecord head;
  head.kind = kind;
  head.conn = conn;
  head.seq = next_seq_++;
  head.ts_ns = ts_ns;
  codec::put(w, head);
}

std::uint32_t Journal::conn_open(std::uint64_t ts_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint32_t conn = next_conn_++;
  if (failed_ || finalized_) return conn;
  head_locked(JournalRecord::kConnOpen, conn, ts_ns);
  return conn;
}

void Journal::conn_close(std::uint32_t conn, std::uint64_t ts_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || finalized_) return;
  head_locked(JournalRecord::kConnClose, conn, ts_ns);
}

void Journal::frame(std::uint32_t conn, std::uint64_t ts_ns,
                    const std::vector<std::uint8_t>& bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || finalized_) return;
  head_locked(JournalRecord::kFrame, conn, ts_ns);
  codec::Writer w(records_);
  codec::put(w, bytes);
}

void Journal::result(std::uint32_t conn, std::uint32_t stream,
                     const std::vector<std::int32_t>& output) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_ || finalized_) return;
  JournalDigest* d = nullptr;
  for (JournalDigest& cand : digests_) {
    if (cand.conn == conn && cand.stream == stream) {
      d = &cand;
      break;
    }
  }
  if (d == nullptr) {
    digests_.push_back(JournalDigest{conn, stream, 0, codec::kFnvBasis});
    d = &digests_.back();
  }
  ++d->windows;
  for (std::int32_t word : output) {
    d->fnv = codec::fnv1a_word(d->fnv, static_cast<std::uint32_t>(word));
  }
}

bool Journal::finalize(std::string* why) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_) return !failed_;
  if (failed_) return fail(why, "journal: open() failed; nothing recorded");
  finalized_ = true;

  std::vector<std::uint8_t> file;
  file.reserve(kHeaderBytes + records_.size() + 16 + 24 * digests_.size());
  codec::Writer w(file);
  w.u64(kJournalMagic);
  w.u32(kJournalVersion);
  w.u32(protocol_);
  w.u64(0);  // file_size, patched below
  w.u64(0);  // payload_fnv, patched below
  w.u64(0);  // header_fnv, patched last
  w.u64(0);  // trailer_off, patched below
  file.insert(file.end(), records_.begin(), records_.end());
  const std::uint64_t trailer_off = file.size();
  codec::put(w, digests_);
  codec::patch_u64(file, kOffFileSize, file.size());
  codec::patch_u64(file, kOffTrailerOff, trailer_off);
  codec::patch_u64(
      file, kOffPayloadFnv,
      codec::fnv1a(file.data() + kHeaderBytes, file.size() - kHeaderBytes));
  // header_fnv is computed with its own field still zero.
  codec::patch_u64(file, kOffHeaderFnv,
                   codec::fnv1a(file.data(), kHeaderBytes));

  std::ofstream f(path_, std::ios::binary | std::ios::trunc);
  if (!f) return fail(why, "journal: cannot reopen '" + path_ + "'");
  f.write(reinterpret_cast<const char*>(file.data()),
          static_cast<std::streamsize>(file.size()));
  f.flush();
  if (!f) return fail(why, "journal: short write to '" + path_ + "'");
  return true;
}

bool decode_journal(std::span<const std::uint8_t> buf, JournalFile* out,
                    std::string* why) {
  if (buf.size() < kHeaderBytes) {
    return fail(why, "journal: file shorter than the header");
  }

  codec::Reader hdr(buf.data(), kHeaderBytes);
  if (hdr.u64() != kJournalMagic) {
    return fail(why, "journal: bad magic (not a .vwr2jrn file)");
  }
  if (hdr.u32() != kJournalVersion) {
    return fail(why, "journal: unsupported format version");
  }
  JournalFile jf;
  jf.protocol = hdr.u32();
  const std::uint64_t file_size = hdr.u64();
  const std::uint64_t payload_fnv = hdr.u64();
  const std::uint64_t header_fnv = hdr.u64();
  const std::uint64_t trailer_off = hdr.u64();
  if (file_size != buf.size()) {
    return fail(why, "journal: file size mismatch (truncated or appended)");
  }
  // Verify the header checksum over a copy with its field zeroed.
  std::uint8_t hcopy[kHeaderBytes];
  std::memcpy(hcopy, buf.data(), kHeaderBytes);
  for (unsigned i = 0; i < 8; ++i) hcopy[kOffHeaderFnv + i] = 0;
  if (codec::fnv1a(hcopy, kHeaderBytes) != header_fnv) {
    return fail(why, "journal: header checksum mismatch");
  }
  if (codec::fnv1a(buf.data() + kHeaderBytes, buf.size() - kHeaderBytes) !=
      payload_fnv) {
    return fail(why, "journal: payload checksum mismatch");
  }
  if (trailer_off < kHeaderBytes || trailer_off > buf.size()) {
    return fail(why, "journal: trailer offset out of bounds");
  }

  // Record stream: bytes [kHeaderBytes, trailer_off).
  codec::Reader r(buf.data() + kHeaderBytes, trailer_off - kHeaderBytes);
  std::uint64_t expect_seq = 0;
  while (!r.at_end()) {
    JournalRecord rec;
    codec::get(r, rec);
    if (!r.ok()) return fail(why, "journal: truncated record");
    if (rec.kind != JournalRecord::kConnOpen &&
        rec.kind != JournalRecord::kFrame &&
        rec.kind != JournalRecord::kConnClose) {
      return fail(why, "journal: unknown record kind");
    }
    if (rec.seq != expect_seq++) {
      return fail(why, "journal: arrival sequence out of order");
    }
    if (rec.kind == JournalRecord::kFrame) {
      codec::get(r, rec.bytes);
      if (!r.ok()) return fail(why, "journal: frame record overruns the file");
    }
    jf.records.push_back(std::move(rec));
  }

  // Trailer: bytes [trailer_off, file end).
  codec::Reader t(buf.data() + trailer_off, buf.size() - trailer_off);
  codec::get(t, jf.digests);
  if (!t.ok()) return fail(why, "journal: truncated digest trailer");
  if (!t.at_end()) {
    return fail(why, "journal: trailing bytes after the digest trailer");
  }

  *out = std::move(jf);
  return true;
}

bool load_journal(const std::string& path, JournalFile* out,
                  std::string* why) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return fail(why, "journal: cannot open '" + path + "'");
  const std::vector<std::uint8_t> buf((std::istreambuf_iterator<char>(f)),
                                      std::istreambuf_iterator<char>());
  return decode_journal(buf, out, why);
}

} // namespace vwr2a::obs
