// perfbench: the repo benchmark's runner binary (driven by perfbench/run.py).
//
//   perfbench --workload <kernels|stream|gateway|gateway-recorder>
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--commit ID] [--interpret] [--rate R] [--inject corrupt|stall]
//
// Runs one workload in this process and prints, last on stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones (every name in the
// catalogue below; a layer the workload does not exercise reads 0). The
// lines before it are a human-readable table and a stamp line.

#include <sys/personality.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "harness.hpp"

namespace {

using namespace perfbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"cpu_us_per_op", "us"},
    {"sim_cycles_per_s", "1/s"},
    {"sim_uj_per_op", "uJ"},
    {"sim_makespan_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"path.latency_us", "us"},
    {"path.late_us", "us"},
    {"path.handoff_us", "us"},
    {"path.queue_us", "us"},
    {"path.run_us", "us"},
    {"path.deliver_us", "us"},
    {"gateway.residual_us.p50", "us"},
    {"gateway.push_us.p50", "us"},
    {"gateway.push_us.p99", "us"},
    {"gateway.open_us.p50", "us"},
    {"gateway.bytes_per_window", "B"},
    {"stream.push_us.p50", "us"},
    {"stream.push_us.p99", "us"},
    {"stream.finish_ms", "ms"},
    {"runtime.queue_us.p50", "us"},
    {"runtime.queue_us.p99", "us"},
    {"runtime.run_us.p50", "us"},
    {"runtime.deliver_us.p50", "us"},
    {"runtime.run_share", "ratio"},
    {"runtime.submit_batch_ms", "ms"},
    {"runtime.stagings_per_op", "count"},
    {"runtime.batched_share", "ratio"},
    {"runtime.occupancy", "ratio"},
    {"kernels.fir.run_us", "us"},
    {"kernels.cfft.run_us", "us"},
    {"kernels.rfft.run_us", "us"},
    {"kernels.ifft.run_us", "us"},
    {"kernels.reduce.run_us", "us"},
    {"kernels.delineation.run_us", "us"},
    {"kernels.pipeline.run_us", "us"},
    {"kernels.bio.run_us", "us"},
    {"cgra.decoupled_share", "ratio"},
    {"cgra.lockstep_cycles", "cycles/op"},
    {"cgra.interpreted_cycles", "cycles/op"},
    {"cgra.rollback_ratio", "ratio"},
    {"cgra.sync_points", "count/op"},
    {"isa.image_builds", "count"},
    {"isa.trace_compiles", "count"},
    {"obs.trace_events", "count/op"},
    {"obs.trace_dropped", "count/op"},
    {"trace.overhead_pct", "%"},
    {"loadgen.late_ms.p99", "ms"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<kernels|stream|gateway|gateway-recorder> [--seed N] "
               "[--seconds S] [--trace 0|1] [--commit ID] [--interpret] "
               "[--rate R] [--inject corrupt|stall]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv, std::string& commit) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() != "0";
    } else if (a == "--commit") {
      commit = value();
    } else if (a == "--interpret") {
      o.interpret = true;
    } else if (a == "--rate") {
      o.rate = std::strtod(value().c_str(), nullptr);
    } else if (a == "--inject") {
      o.inject = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  if (!o.inject.empty() && o.inject != "corrupt" && o.inject != "stall") {
    usage("--inject takes corrupt or stall");
  }
  return o;
}

} // namespace

int main(int argc, char** argv) {
  // A fixed address-space layout. With randomization, placement luck alone
  // moved one seed's kernels throughput by up to 40% between runs; without
  // it the same runs agree within a few percent. execv returns only on
  // failure, and then the run simply stays randomized.
  if (const int persona = personality(0xffffffff);
      persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) != -1) {
    execv("/proc/self/exe", argv);
  }
  // The benchmark measures the program as configured here, never through
  // ambient switches that attach artifacts, captures or journals.
  for (const char* var : {"VWR2A_ARTIFACT", "VWR2A_TRACE", "VWR2A_JOURNAL",
                          "BENCH_RUNTIME_JSON"}) {
    unsetenv(var);
  }
  std::string commit = "unknown";
  const Options o = parse(argc, argv, commit);

  const unsigned nproc = std::thread::hardware_concurrency();
  const double parallelism = effective_parallelism(4);
  std::printf("stamp: {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d, \"commit\": \"%s\", "
              "\"nproc\": %u, \"effective_parallelism\": %.2f%s}\n",
              o.workload.c_str(), o.seed, o.seconds, o.trace ? 1 : 0,
              commit.c_str(), nproc, parallelism,
              o.interpret ? ", \"exec\": \"interpret\"" : "");

  Outcome out;
  if (o.workload == "kernels") {
    out = run_kernels(o);
  } else if (o.workload == "stream") {
    out = run_stream(o);
  } else if (o.workload == "gateway") {
    out = run_gateway(o, false);
  } else if (o.workload == "gateway-recorder") {
    out = run_gateway(o, true);
  } else {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }

  for (const std::string& n : out.notes) std::printf("  %s\n", n.c_str());
  std::string json;
  auto emit = [&](const MetricDef& m) {
    const auto it = out.values.find(m.name);
    const double v = it == out.values.end() ? 0.0 : it->second;
    std::printf("  %-28s %18.6f %s\n", m.name, v, m.unit);
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", m.name, v, m.unit);
    json += buf;
  };
  if (o.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
    const double parts = out.values["path.late_us"] + out.values["path.handoff_us"] +
                         out.values["path.queue_us"] + out.values["path.run_us"] +
                         out.values["path.deliver_us"] +
                         out.values["gateway.residual_us.p50"];
    std::printf("  path check: late+handoff+queue+run+deliver+residual = %.3f us "
                "of %.3f us median-band latency\n",
                parts, out.values["path.latency_us"]);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {%s}}\n",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed,
              json.c_str());
  return 0;
}
