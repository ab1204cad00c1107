// The counter tables (runtime::kFleetFields, gateway::kTelemetryFields)
// are the one schema every telemetry export derives from. This drives a
// gateway over a heterogeneous pool through a scripted kill + revive, a
// failing job, a rate-limited push and the metrics recorder, so every row
// but one carries a nonzero value, then checks that each row reads the
// same in FleetStats / Server::telemetry(), in a decoded STATS frame and
// -- for counter rows -- in the obs registry and its Prometheus text. The
// STATS device loads match FleetStats' per-device vectors.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "app/mbiotracker.hpp"
#include "common/rng.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "gateway/client.hpp"
#include "gateway/server.hpp"
#include "obs/metrics.hpp"
#include "runtime/pool.hpp"

namespace vwr2a::gateway {
namespace {

using runtime::FleetCounters;
using runtime::kFleetFields;

/// Decodes exactly one frame of type F from `wire`.
template <class F>
F decode_one(const std::vector<std::uint8_t>& wire) {
  Decoder dec;
  dec.feed(wire);
  const auto f = dec.next();
  EXPECT_TRUE(f.has_value());
  EXPECT_EQ(dec.buffered(), 0u);
  return std::get<F>(*f);
}

/// The Prometheus name dump_prometheus() gives a registry name.
std::string sanitize(std::string_view name) {
  std::string n(name);
  for (char& c : n) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    if (!ok) c = '_';
  }
  return n;
}

std::vector<std::int32_t> samples(std::size_t n, unsigned seed) {
  dsp::RespirationParams p;
  p.breath_hz = 0.25;
  Rng rng(seed);
  return dsp::respiration_q16_15(static_cast<unsigned>(n), p, rng);
}

TEST(Telemetry, TablesNameEveryRowOnce) {
  std::set<std::string_view> names;
  for (const auto& f : kFleetFields) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
    EXPECT_EQ(f.name.substr(0, 6), "fleet.");
    EXPECT_NE(f.u64 == nullptr, f.f64 == nullptr) << f.name;
  }
  for (const auto& f : kTelemetryFields) {
    EXPECT_TRUE(names.insert(f.name).second) << f.name;
    EXPECT_EQ(f.name.substr(0, 8), "gateway.");
    EXPECT_NE(f.u64 == nullptr, f.f64 == nullptr) << f.name;
  }
  // Two rows reading one member would export one value under two names.
  for (std::size_t i = 0; i < kFleetFields.size(); ++i) {
    for (std::size_t j = i + 1; j < kFleetFields.size(); ++j) {
      if (kFleetFields[i].u64 != nullptr) {
        EXPECT_FALSE(kFleetFields[i].u64 == kFleetFields[j].u64)
            << kFleetFields[i].name << " / " << kFleetFields[j].name;
      }
    }
  }
  for (std::size_t i = 0; i < kTelemetryFields.size(); ++i) {
    for (std::size_t j = i + 1; j < kTelemetryFields.size(); ++j) {
      EXPECT_FALSE(kTelemetryFields[i].u64 == kTelemetryFields[j].u64)
          << kTelemetryFields[i].name << " / " << kTelemetryFields[j].name;
    }
  }
}

TEST(Telemetry, EveryCounterReachesEveryExport) {
  obs::set_metrics(true);
  obs::Registry::get().reset();

  // Device 0 (traced) hosts the bio image and is killed after 2 jobs with
  // 3 bio windows still queued: they are rescued onto device 2, which
  // adopts the checkpoint; device 0 revives after 6 jobs and device 2
  // fail-stops after 7 and stays dead. Device 1 interprets. One worker
  // and one job per claim keep the fault timeline deterministic.
  Server::Config cfg;
  runtime::DevicePool::Config& pc = cfg.stream.pool;
  pc.devices = 3;
  pc.workers = 1;
  pc.max_batch = 1;
  pc.device_arch = {
      soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache},
      soc::ArchConfig{.exec_mode = cgra::ExecMode::kInterpret},
      soc::ArchConfig{.exec_mode = cgra::ExecMode::kTraceCache}};
  pc.faults.events = {{0, 2, 6}, {2, 7, 0}};
  // Two 512-sample pushes fit the bucket; the third is rejected (the
  // refill of 1 byte/s is negligible over the test).
  cfg.quotas.bytes_per_second = 1.0;
  cfg.quotas.burst_bytes = 2 * 4 * 512;
  Server server(cfg);
  runtime::DevicePool& pool = server.streams().pool();

  const runtime::SharedBuffer taps =
      runtime::make_buffer(dsp::fir11_lowpass_q15());
  const runtime::SharedBuffer window =
      runtime::make_buffer(samples(app::kWindow, 501));
  std::vector<runtime::Job> jobs;
  for (unsigned i = 0; i < 5; ++i) {
    jobs.emplace_back().work = runtime::BioTrackerJob{
        app::Target::kCpuVwr2a, window, 0};
    jobs.back().pin = 0;
  }
  jobs.emplace_back().work =
      runtime::FirJob{256, taps, runtime::make_buffer(samples(256, 502))};
  jobs.back().pin = 1;
  // n = 256 is not a pipeline size: the device throws, the job fails.
  jobs.emplace_back().work = runtime::PipelineJob{
      256, taps, runtime::make_buffer(samples(256, 503)), 0};
  jobs.back().pin = 1;
  jobs.emplace_back().work =
      runtime::CfftJob{256, runtime::make_buffer(samples(512, 504))};
  jobs.back().pin = 2;
  std::vector<runtime::JobHandle> handles = pool.submit_batch(jobs);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (i == 6) {
      EXPECT_THROW(handles[i].get(), HostError);
    } else {
      EXPECT_NO_THROW(handles[i].get()) << "job " << i;
    }
  }
  pool.wait_idle();

  // Gateway traffic: a pipeline stream left open, one push rejected by the
  // byte-rate bucket.
  Client client(server.connect_loopback());
  std::vector<std::uint16_t> errors;
  Client::StreamOpts opts;
  opts.kind = static_cast<std::uint8_t>(stream::SessionKind::kPipeline);
  const std::uint32_t sid =
      client.open(opts, [](const WindowResult&) {},
                  [&errors](const Error& e) { errors.push_back(e.code); });
  const std::vector<std::int32_t> pcm = samples(512, 505);
  client.push(sid, pcm);
  client.push(sid, pcm);
  client.push(sid, pcm);
  client.flush(sid);  // barrier: results and the ERROR precede FLUSH_OK
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0], static_cast<std::uint16_t>(ErrorCode::kQuotaRate));

  // Quiet point: the fleet is idle and every frame is on the wire.
  const runtime::FleetStats fleet = pool.stats();
  const Telemetry tel = server.telemetry();
  const Stats st = decode_one<Stats>(encode(server.build_stats()));
  std::map<std::string, const obs::Counter*> registry;
  for (const obs::Registry::Entry& e : obs::Registry::get().entries()) {
    if (e.kind == obs::Registry::Entry::Kind::kCounter) {
      registry[e.name] = e.counter;
    }
  }
  const std::string prom = obs::Registry::get().dump_prometheus();
  obs::set_metrics(false);

  // The STATS rows are the two tables, in table order.
  ASSERT_EQ(st.rows.size(), kFleetFields.size() + kTelemetryFields.size());

  std::size_t row = 0;
  auto check = [&](const auto& fields, const auto& block) {
    for (const auto& f : fields) {
      SCOPED_TRACE(std::string(f.name));
      const std::uint64_t want = f.get(block);
      // Rollbacks need a dynamically addressed cross-column SPM conflict,
      // which no catalog kernel has (TraceCache tests drive that tier with
      // hand-written programs); every other row is exercised here.
      if (f.name != "fleet.replay_rollbacks") {
        EXPECT_NE(want, 0u);
      }
      ASSERT_LT(row, st.rows.size());
      EXPECT_EQ(st.rows[row].name, f.name);
      EXPECT_EQ(st.rows[row].value, want);
      ++row;
      if (f.kind != obs::StatKind::kCounter) continue;
      const auto it = registry.find(std::string(f.name));
      ASSERT_NE(it, registry.end());
      EXPECT_EQ(it->second->value(), want);
      const std::string n = sanitize(f.name);
      EXPECT_NE(prom.find("# TYPE " + n + " counter\n" + n + " " +
                          std::to_string(want) + "\n"),
                std::string::npos);
    }
  };
  check(kFleetFields, static_cast<const FleetCounters&>(fleet));
  check(kTelemetryFields, tel);

  // The typed views read the same blocks back by name.
  EXPECT_TRUE(obs::view<kFleetFields>(st.rows) ==
              static_cast<const FleetCounters&>(fleet));
  EXPECT_TRUE(obs::view<kTelemetryFields>(st.rows) == tel);

  // One load per device, read from the same snapshot as the rows.
  ASSERT_EQ(st.devices.size(), fleet.device_cycles.size());
  ASSERT_EQ(fleet.device_jobs.size(), st.devices.size());
  ASSERT_EQ(fleet.device_dead.size(), st.devices.size());
  for (std::size_t d = 0; d < st.devices.size(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    EXPECT_EQ(st.devices[d].cycles, fleet.device_cycles[d]);
    EXPECT_EQ(st.devices[d].jobs, fleet.device_jobs[d]);
    EXPECT_EQ(st.devices[d].dead, fleet.device_dead[d]);
  }
  // Device 2 stays dead after its scripted kill; device 0 revived.
  EXPECT_EQ(st.devices[0].dead, 0u);
  EXPECT_EQ(st.devices[2].dead, 1u);

  client.close_stream(sid);
  client.close();
  server.stop();
}

} // namespace
} // namespace vwr2a::gateway
