#include "obs/journal_replay.hpp"

#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/codec.hpp"
#include "gateway/protocol.hpp"
#include "gateway/server.hpp"
#include "gateway/transport.hpp"

namespace vwr2a::obs {

namespace {

/// Digest accumulator for one replayed stream.
struct StreamAcc {
  std::uint64_t windows = 0;
  std::uint64_t fnv = codec::kFnvBasis;
};

} // namespace

ReplayReport JournalReplayer::replay(const JournalFile& journal,
                                     std::uint64_t timeout_ms) {
  ReplayReport report;
  if (journal.protocol != gateway::kProtocolVersion) {
    report.error = "journal records protocol v" +
                   std::to_string(journal.protocol) + ", this build speaks v" +
                   std::to_string(gateway::kProtocolVersion);
    return report;
  }

  // Shared accumulation state: reader threads fold WINDOW_RESULT outputs
  // in, the replay thread waits on the cv for the expected window counts.
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::pair<std::uint32_t, std::uint32_t>, StreamAcc> got;
  std::uint64_t errors_received = 0;

  struct Conn {
    std::unique_ptr<gateway::Transport> t;
    std::thread reader;
  };
  std::map<std::uint32_t, Conn> conns;

  auto reader_loop = [&](std::uint32_t conn_id, gateway::Transport* t) {
    std::vector<std::uint8_t> buf(1u << 16);
    gateway::Decoder dec;
    try {
      for (;;) {
        const std::size_t n = t->recv(buf.data(), buf.size());
        if (n == 0) return;
        dec.feed(buf.data(), n);
        while (auto f = dec.next()) {
          if (const auto* wr = std::get_if<gateway::WindowResult>(&*f)) {
            std::lock_guard<std::mutex> lock(mu);
            StreamAcc& acc = got[{conn_id, wr->stream}];
            ++acc.windows;
            for (std::int32_t w : wr->output) {
              acc.fnv = codec::fnv1a_word(acc.fnv, static_cast<std::uint32_t>(w));
            }
            cv.notify_all();
          } else if (std::get_if<gateway::Error>(&*f) != nullptr) {
            std::lock_guard<std::mutex> lock(mu);
            ++errors_received;
          }
          // Acks (OPEN_OK/FLUSH_OK/CLOSE_OK/STATS) need no routing: the
          // recorded client's blocking round trips already shaped the
          // frame order the journal preserves.
        }
      }
    } catch (const std::exception&) {
      // Malformed response bytes: the digest comparison below will report
      // the shortfall; nothing useful to do here.
    }
  };

  // Send every record in global arrival order from this one thread --
  // each transport send completes (bytes in the peer's ring) before the
  // next record goes out, so arrival interleave matches the recording.
  for (const JournalRecord& rec : journal.records) {
    switch (rec.kind) {
      case JournalRecord::kConnOpen: {
        Conn c;
        c.t = server_->connect_loopback();
        gateway::Transport* t = c.t.get();
        c.reader = std::thread([&reader_loop, conn = rec.conn, t] {
          reader_loop(conn, t);
        });
        conns.emplace(rec.conn, std::move(c));
        ++report.connections;
        break;
      }
      case JournalRecord::kFrame: {
        const auto it = conns.find(rec.conn);
        if (it == conns.end()) {
          report.error = "journal: frame for a connection never opened";
          break;
        }
        if (!it->second.t->send(rec.bytes.data(), rec.bytes.size())) {
          report.error = "replay: connection " + std::to_string(rec.conn) +
                         " died mid-replay";
          break;
        }
        ++report.frames_sent;
        break;
      }
      case JournalRecord::kConnClose:
        // Deferred: the transport stays open until the expected windows
        // arrived, else in-flight WINDOW_RESULTs would be dropped.
        break;
    }
    if (!report.error.empty()) break;
  }

  // Wait (with an idle timeout) until every digest's expected window count
  // is delivered.
  if (report.error.empty()) {
    std::unique_lock<std::mutex> lock(mu);
    const auto deadline = [&] {
      return std::chrono::steady_clock::now() +
             std::chrono::milliseconds(timeout_ms);
    };
    const bool all = cv.wait_until(lock, deadline(), [&] {
      for (const JournalDigest& d : journal.digests) {
        const auto it = got.find({d.conn, d.stream});
        if (it == got.end() || it->second.windows < d.windows) return false;
      }
      return true;
    });
    if (!all) report.error = "replay: timed out waiting for window delivery";
  }

  for (auto& [id, c] : conns) c.t->shutdown();
  for (auto& [id, c] : conns) {
    if (c.reader.joinable()) c.reader.join();
  }

  {
    std::lock_guard<std::mutex> lock(mu);
    report.errors_received = errors_received;
    for (const JournalDigest& d : journal.digests) {
      ReplayStream s;
      s.conn = d.conn;
      s.stream = d.stream;
      s.expected_windows = d.windows;
      s.expected_fnv = d.fnv;
      const auto it = got.find({d.conn, d.stream});
      if (it != got.end()) {
        s.got_windows = it->second.windows;
        s.got_fnv = it->second.fnv;
      } else {
        s.got_fnv = codec::kFnvBasis;
      }
      report.streams.push_back(s);
    }
    // Streams the replay delivered that the recording never did (can only
    // happen on a divergent replay) fail the gate too.
    for (const auto& [key, acc] : got) {
      bool known = false;
      for (const JournalDigest& d : journal.digests) {
        if (d.conn == key.first && d.stream == key.second) {
          known = true;
          break;
        }
      }
      if (!known) {
        ReplayStream s;
        s.conn = key.first;
        s.stream = key.second;
        s.expected_fnv = codec::kFnvBasis;
        s.got_windows = acc.windows;
        s.got_fnv = acc.fnv;
        report.streams.push_back(s);
      }
    }
  }

  report.ok = report.error.empty();
  for (const ReplayStream& s : report.streams) {
    if (!s.ok()) report.ok = false;
  }
  return report;
}

} // namespace vwr2a::obs
