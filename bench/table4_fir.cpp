// Table 4: FIR filter kernel (11 taps) performance and energy comparison,
// CPU vs VWR2A, 256/512/1024 points.

#include "bench/bench_util.hpp"

namespace vwr2a::bench {
namespace {

struct PaperRow {
  unsigned n;
  double cpu_cycles, cpu_uj, vwr_cycles, vwr_uj, speedup, savings_pct;
};
const PaperRow kPaper[] = {
    {256, 24747, 0.37, 1849, 0.11, 13.4, 69.9},
    {512, 49253, 0.73, 3260, 0.21, 15.1, 71.7},
    {1024, 98283, 1.45, 6091, 0.40, 16.1, 72.4},
};

} // namespace
} // namespace vwr2a::bench

int main() {
  using namespace vwr2a;
  using namespace vwr2a::bench;
  Rng rng(5);
  header("Table 4: FIR-11 performance and energy");
  std::printf("  %-8s | %10s %8s | %10s %8s | %8s %9s\n", "points", "CPU cyc",
              "CPU uJ", "VWR2A cyc", "VWR2A uJ", "speedup", "savings");
  for (const auto& p : kPaper) {
    // CPU (q15 CMSIS-style).
    Cycle cpu_cycles = 0;
    double cpu_uj = 0;
    {
      energy::EnergyMeter m;
      cpu::M4Meter m4(m);
      std::vector<fx::q15_t> x(p.n);
      for (auto& v : x) v = fx::to_q15(rng.next_range(-0.8, 0.8));
      std::vector<fx::q15_t> taps(kernels::kFirTaps);
      const auto coeff = dsp::fir11_lowpass_q15();
      for (unsigned i = 0; i < taps.size(); ++i) {
        taps[i] = fx::to_q15(fx::from_coeff(coeff[i]));
      }
      cpu::fir_q15(m4, x, taps);
      cpu_cycles = m4.cycles();
      cpu_uj = m.total_uj();
    }
    const FirCell vwr = vwr2a_fir11(p.n, rng);
    std::printf("  %-8u | %10llu %8.3f | %10llu %8.3f | %7.1fx %8.1f%%\n", p.n,
                static_cast<unsigned long long>(cpu_cycles), cpu_uj,
                static_cast<unsigned long long>(vwr.cycles), vwr.uj,
                static_cast<double>(cpu_cycles) / static_cast<double>(vwr.cycles),
                100.0 * (1.0 - vwr.uj / cpu_uj));
    std::printf("    paper  | %10.0f %8.3f | %10.0f %8.3f | %7.1fx %8.1f%%\n",
                p.cpu_cycles, p.cpu_uj, p.vwr_cycles, p.vwr_uj, p.speedup,
                p.savings_pct);
  }
  return 0;
}
