#pragma once
// Shared rig and formatting for the experiment-reproduction benches. Every
// bench binary regenerates one table or figure of the paper and prints the
// measured values next to the paper's, with the ratio, so every
// measured-vs-paper claim can be audited from the bench output alone.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "app/mbiotracker.hpp"
#include "bus/ahb.hpp"
#include "cgra/vwr2a.hpp"
#include "common/fixed_point.hpp"
#include "common/rng.hpp"
#include "cpu/kernels_q15.hpp"
#include "dsp/reference.hpp"
#include "dsp/signal.hpp"
#include "energy/meter.hpp"
#include "kernels/fft.hpp"
#include "kernels/fir.hpp"
#include "kernels/host.hpp"
#include "mem/sram.hpp"
#include "soc/platform.hpp"

namespace vwr2a::bench {

/// A standalone VWR2A rig (block + bus + system SRAM), as used for the
/// kernel-level experiments.
struct Rig {
  energy::EnergyMeter sys_meter;
  mem::SystemSram sram{sys_meter};
  bus::AhbBus ahb{sram, sys_meter};
  cgra::Vwr2a acc{ahb};
  kernels::Host host{acc, sram, nullptr};
};

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// One row of a paper-vs-measured comparison.
inline void row(const char* label, double paper, double measured,
                const char* unit) {
  std::printf("  %-28s paper %10.1f %-6s measured %10.1f %-6s ratio %5.2f\n",
              label, paper, unit, measured, unit,
              paper > 0 ? measured / paper : 0.0);
}

/// Random 16.15 complex input placed interleaved at `base`.
inline void place_complex_input(Rig& rig, unsigned n, unsigned base, Rng& rng) {
  for (unsigned i = 0; i < 2 * n; ++i) {
    rig.sram.poke(base + i, static_cast<Word>(
                                fx::to_q16_15(rng.next_range(-0.4, 0.4))));
  }
}

/// Microseconds at the 80 MHz architectural clock.
inline double us(Cycle cycles) {
  return static_cast<double>(cycles) / arch::kClockHz * 1e6;
}

// --- machine-readable perf records (BENCH_runtime.json) ----------------------
// Each runtime bench appends one JSON object per measured configuration, so
// nightly CI can upload the file as an artifact and the perf trajectory
// (host wall-clock, simulated cycles per host second, makespan) is tracked
// run over run. The file is a valid JSON array; appending rewrites only the
// closing bracket.

/// One record under construction. Finish with write().
class JsonRecord {
 public:
  explicit JsonRecord(std::string bench) {
    os_ << "  {\"bench\": \"" << bench << "\"";
  }

  JsonRecord& field(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    os_ << ", \"" << key << "\": " << buf;
    return *this;
  }
  JsonRecord& field(const std::string& key, std::uint64_t v) {
    os_ << ", \"" << key << "\": " << v;
    return *this;
  }
  JsonRecord& field(const std::string& key, const std::string& v) {
    os_ << ", \"" << key << "\": \"" << v << "\"";
    return *this;
  }
  JsonRecord& field(const std::string& key, bool v) {
    os_ << ", \"" << key << "\": " << (v ? "true" : "false");
    return *this;
  }

  /// Appends the record to the report file (default BENCH_runtime.json in
  /// the working directory; override with $BENCH_RUNTIME_JSON).
  void write() const {
    const char* env = std::getenv("BENCH_RUNTIME_JSON");
    const std::string path = env != nullptr ? env : "BENCH_runtime.json";
    std::string body;
    {
      std::ifstream in(path);
      if (in) {
        std::ostringstream all;
        all << in.rdbuf();
        body = all.str();
      }
    }
    // Strip the closing "\n]\n" of an existing array, or start a new one.
    const std::string tail = "\n]\n";
    if (body.size() >= tail.size() &&
        body.compare(body.size() - tail.size(), tail.size(), tail) == 0) {
      body.resize(body.size() - tail.size());
      body += ",\n";
    } else {
      body = "[\n";
    }
    body += os_.str() + "}" + tail;
    std::ofstream out(path, std::ios::trunc);
    out << body;
  }

 private:
  std::ostringstream os_;
};

} // namespace vwr2a::bench
