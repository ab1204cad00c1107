#pragma once
// Simulated totals of the fixed prefixes of `kernels` and `stream` on the
// default seed. Simulated cycles and energy are exactly reproducible, so any
// drift is a model change or a bug. The values were taken once from a
// trace-cache run and confirmed equal under ExecMode::kInterpret
// (`perfbench --interpret`), which the identity contract requires.

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "harness.hpp"

namespace perfbench {

struct RecordedPrefix {
  const char* workload;
  std::uint64_t ops;
  vwr2a::Cycle total_cycles;
  vwr2a::Cycle makespan;
  double pj;
};

inline constexpr RecordedPrefix kRecorded[] = {
    {"kernels", 320, 4524574, 1167972, 186056931.03000003},
    {"stream", 192, 3754538, 407702, 163756480.71500006},
};

/// Notes the prefix totals and, on the default seed, counts a failed
/// operation when they differ from the recorded ones.
inline void check_recorded(const char* workload, const Options& o,
                           std::uint64_t ops, const SimDelta& d, Outcome& out) {
  char line[256];
  std::snprintf(line, sizeof line,
                "sim prefix: ops=%" PRIu64 " cycles=%" PRIu64 " makespan=%" PRIu64
                " pj=%.17g",
                ops, static_cast<std::uint64_t>(d.total_cycles),
                static_cast<std::uint64_t>(d.makespan), d.pj);
  out.notes.push_back(line);
  if (o.seed != kDefaultSeed) return;
  for (const RecordedPrefix& r : kRecorded) {
    if (std::strcmp(r.workload, workload) != 0) continue;
    if (r.ops != ops || r.total_cycles != d.total_cycles ||
        r.makespan != d.makespan || r.pj != d.pj) {
      out.fail(std::string(workload) + " simulated prefix differs from recorded totals");
    } else {
      out.notes.push_back("sim prefix matches the recorded totals");
    }
  }
}

} // namespace perfbench
