// Black-box journal (.vwr2jrn): record a live gateway soak under an
// injectable clock, validate the loaded record stream and digests, replay
// it bit-exactly onto a *different* fleet shape, and prove the decoder
// rejects -- cleanly, never a crash or over-read -- every single-bit flip
// and every truncation of the file (through the shared mutation fuzzer,
// tests/fuzz_util.hpp).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"
#include "dsp/signal.hpp"
#include "fuzz_util.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "obs/capture.hpp"
#include "obs/journal.hpp"
#include "obs/journal_replay.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace vwr2a::obs {
namespace {

std::uint64_t fold_fnv(std::uint64_t h, const std::vector<std::int32_t>& out) {
  for (std::int32_t w : out) {
    h = codec::fnv1a_word(h, static_cast<std::uint32_t>(w));
  }
  return h;
}

std::vector<std::int32_t> make_signal(unsigned windows, unsigned seed) {
  dsp::RespirationParams p;
  p.breath_hz = 0.2;
  Rng rng(seed);
  return dsp::respiration_q16_15(windows * 512, p, rng);
}

struct Recorded {
  std::vector<std::uint32_t> sids;     ///< client-chosen stream ids
  std::vector<std::uint64_t> fnv;      ///< per stream, client-side truth
  std::vector<std::uint64_t> windows;  ///< per stream
  runtime::FleetStats fleet;           ///< quiescent, after every close
};

/// Drives `streams` x `windows` (odd streams run the feature pipeline)
/// through a loopback gateway built from `cfg` under a fake nanosecond
/// clock and returns the client-side output digests plus the fleet totals.
Recorded drive_soak(gateway::Server::Config cfg, unsigned streams = 3,
                    unsigned windows = 2) {
  std::atomic<std::uint64_t> fake_ns{1'000'000'000};
  cfg.clock_ns = [&fake_ns] { return fake_ns.fetch_add(1000) + 1000; };
  gateway::Server server(cfg);
  gateway::Client client(server.connect_loopback());

  Recorded rec;
  rec.fnv.assign(streams, codec::kFnvBasis);
  rec.windows.assign(streams, 0);
  for (unsigned i = 0; i < streams; ++i) {
    gateway::Client::StreamOpts opts;
    opts.tenant = i;
    if (i % 2 == 1) opts.kind = 1;
    rec.sids.push_back(
        client.open(opts, [&rec, i](const gateway::WindowResult& wr) {
          rec.fnv[i] = fold_fnv(rec.fnv[i], wr.output);
          ++rec.windows[i];
        }));
  }
  for (unsigned i = 0; i < streams; ++i) {
    const std::vector<std::int32_t> sig = make_signal(windows, 9100 + i);
    client.push(rec.sids[i], sig);
  }
  for (std::uint32_t sid : rec.sids) client.flush(sid);
  for (std::uint32_t sid : rec.sids) client.close_stream(sid);
  // CLOSE_OK trails every WINDOW_RESULT of its stream, so the digests are
  // final; stats() waits for the fleet to go idle.
  rec.fleet = server.streams().stats().fleet;
  client.close();
  server.stop();  // finalizes the journal
  return rec;
}

/// A journaling soak of 3 streams x 2 windows on `devices` baseline devices.
Recorded record_soak(const std::string& path, unsigned devices) {
  gateway::Server::Config cfg;
  cfg.stream.pool.devices = devices;
  cfg.journal_path = path;
  return drive_soak(std::move(cfg));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(is),
                                   std::istreambuf_iterator<char>());
}

TEST(Journal, RecordsValidatedTrafficWithInjectedClockAndDigests) {
  const std::string path = ::testing::TempDir() + "journal_record.vwr2jrn";
  const Recorded rec = record_soak(path, 2);

  JournalFile jf;
  std::string why;
  ASSERT_TRUE(load_journal(path, &jf, &why)) << why;
  EXPECT_EQ(jf.protocol, gateway::kProtocolVersion);

  // One connection: open first, close last, every frame in between carries
  // its id; global sequence numbers are 0..n-1 (the loader enforces the
  // ordering, we spot-check the endpoints).
  ASSERT_GE(jf.records.size(), 3u);
  EXPECT_EQ(jf.records.front().kind, JournalRecord::kConnOpen);
  EXPECT_EQ(jf.records.back().kind, JournalRecord::kConnClose);
  EXPECT_EQ(jf.records.front().seq, 0u);
  EXPECT_EQ(jf.records.back().seq, jf.records.size() - 1);
  std::size_t frames = 0;
  std::uint64_t prev_ts = 0;
  for (const JournalRecord& r : jf.records) {
    EXPECT_EQ(r.conn, jf.records.front().conn);
    // The injected clock ticks 1 us per read and started at 1 s, so every
    // timestamp is a fake-clock value, not wall time.
    EXPECT_GE(r.ts_ns, 1'000'000'000u);
    EXPECT_LT(r.ts_ns, 2'000'000'000u);
    EXPECT_GE(r.ts_ns, prev_ts);  // one reader: arrival order is time order
    prev_ts = r.ts_ns;
    if (r.kind == JournalRecord::kFrame) {
      ++frames;
      // Each recorded frame is one canonical wire frame: the codec decodes
      // it completely and leaves nothing behind.
      gateway::Decoder dec;
      dec.feed(r.bytes);
      EXPECT_TRUE(dec.next().has_value());
      EXPECT_FALSE(dec.next().has_value());
    } else {
      EXPECT_TRUE(r.bytes.empty());
    }
  }
  // 3 opens + 3 pushes + 3 flushes + 3 closes (+ the client teardown's
  // extras, if any) -- at minimum the 12 stream frames.
  EXPECT_GE(frames, 12u);

  // Digests carry the exact client-observed output identity.
  ASSERT_EQ(jf.digests.size(), 3u);
  for (const JournalDigest& d : jf.digests) {
    std::size_t idx = rec.sids.size();
    for (std::size_t i = 0; i < rec.sids.size(); ++i) {
      if (rec.sids[i] == d.stream) idx = i;
    }
    ASSERT_LT(idx, rec.sids.size()) << "unknown stream " << d.stream;
    EXPECT_EQ(d.windows, rec.windows[idx]);
    EXPECT_EQ(d.fnv, rec.fnv[idx]);
  }
}

TEST(Journal, ReplayReproducesEveryStreamOnADifferentFleet) {
  const std::string path = ::testing::TempDir() + "journal_replay.vwr2jrn";
  record_soak(path, 2);

  JournalFile jf;
  std::string why;
  ASSERT_TRUE(load_journal(path, &jf, &why)) << why;

  // Replay against 3 devices (recorded on 2): output identity is the
  // repo's core invariant, so the digests must still match exactly.
  gateway::Server::Config cfg;
  cfg.stream.pool.devices = 3;
  gateway::Server server(cfg);
  JournalReplayer replayer(server);
  const ReplayReport rep = replayer.replay(jf);
  server.stop();

  EXPECT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.connections, 1u);
  ASSERT_EQ(rep.streams.size(), 3u);
  for (const ReplayStream& s : rep.streams) {
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.got_windows, s.expected_windows);
    EXPECT_EQ(s.got_fnv, s.expected_fnv);
  }
}

/// Switches the whole recorder off and clears its singletons on scope exit.
struct RecorderOffOnExit {
  ~RecorderOffOnExit() {
    set_metrics(false);
    set_tracing(false);
    set_spans(false);
    Tracer::get().reset();
    Registry::get().reset();
  }
};

TEST(Journal, FullRecorderLeavesOutputsCyclesAndEnergyUntouched) {
  // The observer-effect identity: the same gateway traffic on a 4-device
  // mixed trace-mode fleet, once with everything off and once with
  // metrics, tracing, v6 spans and the journal all on, must agree on
  // every stream's outputs and on the fleet's cycles and energy. The
  // recorder reads the simulation; it never steers it. The capture and
  // journal stay in the test temp dir for `vwr2a_trace verify` and
  // `vwr2a_replay verify`.
  constexpr unsigned kStreams = 8;
  constexpr unsigned kWindows = 4;
  RecorderOffOnExit restore;
  auto mixed_fleet = [] {
    gateway::Server::Config cfg;
    cfg.stream.pool.devices = 4;
    constexpr auto kTrace = cgra::ExecMode::kTraceCache;
    cfg.stream.pool.device_arch = {
        soc::ArchConfig{.exec_mode = kTrace},
        soc::ArchConfig{.vwr_count = 2, .exec_mode = kTrace},
        soc::ArchConfig{.vwr_count = 4, .exec_mode = kTrace},
        soc::ArchConfig{.simd_width = 16, .exec_mode = kTrace}};
    return cfg;
  };

  const Recorded off = drive_soak(mixed_fleet(), kStreams, kWindows);

  Tracer::get().reset();
  Registry::get().reset();
  set_metrics(true);
  set_tracing(true);
  set_spans(true);
  const std::string stem = ::testing::TempDir() + "recorder_identity";
  gateway::Server::Config cfg = mixed_fleet();
  cfg.journal_path = stem + ".vwr2jrn";
  const Recorded on = drive_soak(std::move(cfg), kStreams, kWindows);
  set_tracing(false);

  EXPECT_EQ(on.windows, off.windows);
  EXPECT_EQ(on.fnv, off.fnv);
  EXPECT_EQ(on.fleet.fleet_makespan, off.fleet.fleet_makespan);
  EXPECT_EQ(on.fleet.total_device_cycles, off.fleet.total_device_cycles);
  EXPECT_EQ(on.fleet.total_pj, off.fleet.total_pj);

  // Every traced window reconstructs push -> ... -> deliver across the
  // connection reader, a pool worker and a delivery lane.
  const Tracer::Snapshot snap = Tracer::get().snapshot();
  std::string why;
  ASSERT_TRUE(save_capture(snap, stem + ".vwr2trc", &why)) << why;
  const Capture cap = to_capture(snap);
  EXPECT_EQ(cap.dropped, 0u);
  const std::vector<WindowChain> chains = analyze_windows(cap);
  EXPECT_EQ(chains.size(), std::size_t{kStreams} * kWindows);
  for (const WindowChain& c : chains) {
    EXPECT_TRUE(c.complete()) << "window " << c.window;
    EXPECT_GE(c.distinct_tids, 3u) << "window " << c.window;
  }
}

TEST(Journal, ReplayerRefusesProtocolMismatch) {
  const std::string path = ::testing::TempDir() + "journal_proto.vwr2jrn";
  record_soak(path, 1);
  JournalFile jf;
  ASSERT_TRUE(load_journal(path, &jf));
  jf.protocol = gateway::kProtocolVersion + 1;

  gateway::Server::Config cfg;
  cfg.stream.pool.devices = 1;
  gateway::Server server(cfg);
  JournalReplayer replayer(server);
  const ReplayReport rep = replayer.replay(jf);
  server.stop();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("protocol"), std::string::npos);
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

/// A journal fed by hand under a fixed clock: the file bytes are the
/// format (vwr2a_replay reads journals of older builds), so a reordered
/// field, a changed width or a moved checksum must fail here.
TEST(Journal, FinalizedJournalMatchesPinnedBytes) {
  const std::string path = ::testing::TempDir() + "journal_pinned.vwr2jrn";
  Journal j;
  std::string why;
  ASSERT_TRUE(j.open(path, 10, &why)) << why;
  const std::uint32_t conn = j.conn_open(1000);
  j.frame(conn, 2000, {0x01, 0x02, 0x03});
  j.frame(conn, 3000, {0xaa});
  j.result(conn, 7, {1, -2});
  j.conn_close(conn, 4000);
  ASSERT_TRUE(j.finalize(&why)) << why;
  const std::vector<std::uint8_t> got = read_file(path);
  std::remove(path.c_str());
  // Header (magic, version, protocol, file size, payload and header
  // checksums, trailer offset), four records (open, two frames, close),
  // then the one-stream digest trailer.
  EXPECT_EQ(to_hex(got),
            "56575232414a524e010000000a000000ac0000000000000080868b14acf80c4e"
            "9aaceaaf5aaa9e7c9000000000000000"
            "01000000000000000000000000e803000000000000"
            "02000000000100000000000000d0070000000000000300000001020302000000"
            "000200000000000000b80b00000000000001000000aa"
            "03000000000300000000000000a00f000000000000"
            "0100000000000000070000000100000000000000c826ba3a2adf7900");
}

TEST(Journal, EverySingleBitFlipRejectsCleanly) {
  const std::string path = ::testing::TempDir() + "journal_fuzz.vwr2jrn";
  record_soak(path, 1);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GE(good.size(), 48u);
  JournalFile jf;
  ASSERT_TRUE(load_journal(path, &jf));

  // Exhaustive over the header and the trailer neighborhood (the
  // structured regions), strided across the bulk so the sweep stays fast
  // while still touching every region of every record. Each flip must be
  // rejected with a reason.
  std::size_t tried = 0;
  fuzz::bit_flips(good, {.head = 48, .tail = 64},
                  [&](const fuzz::Bytes& bad, const std::string& label) {
                    fuzz::check(fuzz::journal, fuzz::Policy::kRejectAll, bad,
                                label);
                    ++tried;
                  });
  EXPECT_GE(tried, (48u + 64u) * 8u);
}

TEST(Journal, EveryTruncationRejectsCleanly) {
  const std::string path = ::testing::TempDir() + "journal_trunc.vwr2jrn";
  record_soak(path, 1);
  const std::vector<std::uint8_t> good = read_file(path);
  ASSERT_GE(good.size(), 48u);

  // Every boundary-ish length exhaustively, the middle strided, then one
  // trailing garbage byte (a size mismatch too): each rejected.
  fuzz::truncations(good, {.head = 96, .tail = 64},
                    [](const fuzz::Bytes& bad, const std::string& label) {
                      fuzz::check(fuzz::journal, fuzz::Policy::kRejectAll,
                                  bad, label);
                    });

  // And the pristine bytes still load -- the harness itself is sound.
  JournalFile out;
  ASSERT_TRUE(decode_journal(good, &out));
}

TEST(Journal, UnwritableJournalPathFailsServerConstructionFast) {
  gateway::Server::Config cfg;
  cfg.stream.pool.devices = 1;
  cfg.journal_path = "/nonexistent_dir_vwr2a/journal.vwr2jrn";
  EXPECT_THROW({ gateway::Server server(cfg); }, HostError);
}

} // namespace
} // namespace vwr2a::obs
