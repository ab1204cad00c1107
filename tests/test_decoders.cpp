// Every decoder of untrusted or on-disk bytes -- gateway frames, device
// checkpoints, traffic journals and trace captures -- under the one shared
// mutation fuzzer (tests/fuzz_util.hpp): bit flips, truncations, lying
// length and count fields, and splices of two valid inputs. The binary
// refuses any single allocation above 4 MiB, so a decoder that sizes a
// buffer from a lying count fails here even where the sanitizers would
// not.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "alloc_cap.hpp"
#include "common/codec.hpp"
#include "fuzz_util.hpp"
#include "gateway/protocol.hpp"
#include "obs/capture.hpp"
#include "obs/journal.hpp"
#include "runtime/checkpoint.hpp"

namespace vwr2a {
namespace {

using fuzz::Bytes;
using fuzz::Count;

// --- frames -----------------------------------------------------------------

fuzz::Target frame_target() {
  using namespace gateway;
  fuzz::Target t{.name = "frames", .decode = fuzz::frames};
  // Each frame's u32 length prefix sits at 0; payloads start at 6.
  auto add = [&t](const std::vector<Frame>& frames, std::vector<Count> c) {
    Bytes wire;
    for (const Frame& f : frames) encode(f, wire);
    t.inputs.push_back(std::move(wire));
    t.counts.push_back(std::move(c));
  };
  add({PushSamples{9, {1, 2, 3}}},
      {{.value = 22}, {.at = 10, .elem_bytes = 4, .value = 3}});
  add({WindowResult{5, 1, 2, 3, 0.5, {4, 5}}},
      {{.value = 86}, {.at = 38, .elem_bytes = 4, .value = 2}});
  add({Error{1, 2, "abc"}}, {{.value = 15}, {.at = 12, .value = 3}});
  // STATS: two rows (13 + 14 bytes from 10), then one device load (at 37)
  // and one session load (at 58).
  add({Stats{{{"a", 1}, {"bc", 2}}, {{1, 2, 0}}, {{1, 2, 3, 4, 5, 6}}}},
      {{.at = 6, .elem_bytes = codec::wire_size<StatRow>(), .value = 2},
       {.at = 10, .value = 1},
       {.at = 37, .elem_bytes = codec::wire_size<DeviceLoad>(), .value = 1},
       {.at = 58, .elem_bytes = codec::wire_size<SessionLoad>(),
        .value = 1}});
  // A two-frame stream: the second length prefix follows the first frame.
  add({Flush{3}, Close{4}}, {{.value = 6}, {.at = 10, .value = 6}});
  return t;
}

// --- checkpoints ------------------------------------------------------------

/// The count fields of a checkpoint: arch length, SRAM words, SPM rows.
std::vector<Count> checkpoint_counts(const runtime::DeviceCheckpoint& c) {
  const std::size_t arch_at = 8 + 4 + 8;
  const std::size_t sram_at = arch_at + 4 + c.arch.size() + 4 + 1 + 8;
  const std::size_t rows_at = sram_at + 4 + 4 * c.sram.size();
  return {{.at = arch_at, .value = c.arch.size()},
          {.at = sram_at, .elem_bytes = 4, .value = c.sram.size()},
          {.at = rows_at,
           .elem_bytes = codec::wire_size<runtime::SpmRowImage>(),
           .value = c.spm_rows.size()}};
}

fuzz::Target checkpoint_target() {
  fuzz::Target t{.name = "checkpoint",
                 .decode = fuzz::checkpoint,
                 .policy = fuzz::Policy::kRejectAll,
                 .reseal = [](Bytes& b) {
                   constexpr std::size_t kPrologue = 8 + 4 + 8;
                   codec::patch_u64(b, 12,
                                    codec::fnv1a(b.data() + kPrologue,
                                                 b.size() - kPrologue));
                 }};
  runtime::DeviceCheckpoint a;
  a.arch = "vwr3-simd32";
  a.sys_base = 32768;
  a.bio_resident = true;
  a.write_gen = 9001;
  a.sram = {1u, 0xfffffffeu, 3u, 0xfffffffcu, 5u};
  runtime::SpmRowImage row;
  row.row = 7;
  row.stamp = 41;
  for (unsigned i = 0; i < arch::kVwrWords; ++i) {
    row.data[i] = static_cast<Word>(i * 2654435761u);
  }
  a.spm_rows.push_back(row);
  runtime::DeviceCheckpoint b;
  b.arch = "vwr2a";
  b.sram = {42u};
  for (const runtime::DeviceCheckpoint* c : {&a, &b}) {
    t.inputs.push_back(runtime::encode_checkpoint(*c));
    t.counts.push_back(checkpoint_counts(*c));
  }
  return t;
}

// --- journals ---------------------------------------------------------------

constexpr std::size_t kJournalHeader = 48;

/// A hand-fed journal under a fixed clock, as file bytes.
Bytes journal_bytes(const std::string& name, unsigned conns) {
  const std::string path = ::testing::TempDir() + name;
  obs::Journal j;
  EXPECT_TRUE(j.open(path, gateway::kProtocolVersion));
  std::uint64_t ts = 1000;
  for (unsigned c = 0; c < conns; ++c) j.conn_open(ts += 10);
  for (unsigned c = 0; c < conns; ++c) {
    j.frame(c, ts += 10, gateway::encode(gateway::Flush{c}));
    j.frame(c, ts += 10, {0xaa});
    j.result(c, 7 + c, {1, -2, static_cast<std::int32_t>(c)});
    j.conn_close(c, ts += 10);
  }
  EXPECT_TRUE(j.finalize());
  std::ifstream is(path, std::ios::binary);
  Bytes b((std::istreambuf_iterator<char>(is)),
          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return b;
}

/// The length fields of a journal: file size and trailer offset in the
/// header, each frame record's length, and the digest count.
std::vector<Count> journal_counts(const Bytes& b) {
  obs::JournalFile jf;
  EXPECT_TRUE(obs::decode_journal(b, &jf));
  std::vector<Count> c = {{.at = 16, .width = 8, .value = b.size()}};
  std::size_t at = kJournalHeader;
  for (const obs::JournalRecord& r : jf.records) {
    at += codec::wire_size<obs::JournalRecord>();  // the record head
    if (r.kind == obs::JournalRecord::kFrame) {
      c.push_back({.at = at, .value = r.bytes.size()});
      at += 4 + r.bytes.size();
    }
  }
  c.push_back({.at = 40, .width = 8, .value = at});
  c.push_back({.at = at,
               .elem_bytes = codec::wire_size<obs::JournalDigest>(),
               .value = jf.digests.size()});
  return c;
}

fuzz::Target journal_target() {
  fuzz::Target t{.name = "journal",
                 .decode = fuzz::journal,
                 .policy = fuzz::Policy::kRejectAll,
                 .reseal = [](Bytes& b) {
                   // payload_fnv at 24, then header_fnv at 32 over the
                   // header with its own field zeroed.
                   codec::patch_u64(b, 24,
                                    codec::fnv1a(b.data() + kJournalHeader,
                                                 b.size() - kJournalHeader));
                   codec::patch_u64(b, 32, 0);
                   codec::patch_u64(b, 32,
                                    codec::fnv1a(b.data(), kJournalHeader));
                 }};
  for (unsigned conns : {1u, 2u}) {
    t.inputs.push_back(
        journal_bytes("decoders_" + std::to_string(conns) + ".vwr2jrn", conns));
    t.counts.push_back(journal_counts(t.inputs.back()));
  }
  return t;
}

// --- captures ---------------------------------------------------------------

/// The count fields of a capture: name count, each name's length, and the
/// u64 event count.
std::vector<Count> capture_counts(const obs::Capture& cap) {
  std::vector<Count> c = {
      {.at = 24, .elem_bytes = 4, .value = cap.names.size()}};
  std::size_t at = 28;
  for (const std::string& n : cap.names) {
    c.push_back({.at = at, .value = n.size()});
    at += 4 + n.size();
  }
  c.push_back({.at = at,
               .width = 8,
               .elem_bytes = codec::wire_size<obs::Capture::Ev>(),
               .value = cap.events.size()});
  return c;
}

fuzz::Target capture_target() {
  fuzz::Target t{.name = "capture", .decode = fuzz::capture};
  obs::Capture a;
  a.threads = 2;
  a.dropped = 5;
  a.names = {"test.span", "test.instant"};
  a.events.resize(3);
  a.events[0] = {0, 1, 0, 100, 20, 7, 7000, 250, 11, 12, 13};
  a.events[1] = {1, 2, 1, 130, 0, 0, 0, 0, ~std::uint64_t{0}, 0, 0};
  a.events[2] = {0, 1, 0, 160, 20, 7, 7000, 250, 11, 12, 13};
  obs::Capture b;
  b.threads = 1;
  b.names = {"x"};
  b.events.push_back({0, 3, 0, 5, 6, 0, 0, 0, 1, 2, 3});
  for (const obs::Capture* cap : {&a, &b}) {
    t.inputs.push_back(obs::encode_capture(*cap));
    t.counts.push_back(capture_counts(*cap));
  }
  return t;
}

TEST(Decoders, EveryDecoderSurvivesEveryMutation) {
  for (const fuzz::Target& t : {frame_target(), checkpoint_target(),
                                journal_target(), capture_target()}) {
    SCOPED_TRACE(t.name);
    const std::size_t checked = fuzz::survive_every_mutation(t);
    // The inputs are small enough for exhaustive bit flips.
    std::size_t bytes = 0;
    for (const Bytes& in : t.inputs) bytes += in.size();
    EXPECT_GT(checked, 8 * bytes);
  }
}

} // namespace
} // namespace vwr2a
