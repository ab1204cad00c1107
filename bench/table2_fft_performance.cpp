// Table 2: FFT kernel performance comparison for various sizes.
// Columns: CPU cycles, FFT ACCEL cycles (+speedup), VWR2A cycles (+speedup),
// complex- and real-valued, 512/1024/2048 points, next to the paper's rows.

#include "accel/fft_accel.hpp"
#include "bench/bench_util.hpp"

namespace vwr2a::bench {
namespace {

struct PaperRow {
  unsigned n;
  bool real;
  double cpu, accel, vwr2a;
};

const PaperRow kPaper[] = {
    {512, false, 47926, 7099, 7125},   {1024, false, 84753, 13629, 12405},
    {2048, false, 219667, 31299, 30217}, {512, true, 24927, 3523, 3666},
    {1024, true, 62326, 8007, 7133},   {2048, true, 113489, 16490, 14427},
};

Cycle cpu_fft_cycles(unsigned n, bool real, Rng& rng) {
  energy::EnergyMeter m;
  cpu::M4Meter m4(m);
  if (real) {
    std::vector<fx::q15_t> x(n);
    for (auto& v : x) v = fx::to_q15(rng.next_range(-0.4, 0.4));
    cpu::rfft_q15(m4, x);
  } else {
    std::vector<cpu::CplxQ15> x(n);
    for (auto& v : x) {
      v = {fx::to_q15(rng.next_range(-0.4, 0.4)),
           fx::to_q15(rng.next_range(-0.4, 0.4))};
    }
    cpu::cfft_q15(m4, x);
  }
  return m4.cycles();
}

Cycle accel_fft_cycles(unsigned n, bool real, Rng& rng) {
  energy::EnergyMeter m;
  accel::FftAccel fa(m);
  if (real) {
    std::vector<fx::q15_t> x(n);
    for (auto& v : x) v = fx::to_q15(rng.next_range(-0.4, 0.4));
    return fa.rfft(x).cycles;
  }
  std::vector<cpu::CplxQ15> x(n);
  for (auto& v : x) {
    v = {fx::to_q15(rng.next_range(-0.4, 0.4)),
         fx::to_q15(rng.next_range(-0.4, 0.4))};
  }
  return fa.cfft(x).cycles;
}

} // namespace
} // namespace vwr2a::bench

int main() {
  using namespace vwr2a;
  using namespace vwr2a::bench;
  Rng rng(2);
  header("Table 2: FFT kernel performance (cycles)");
  std::printf("  %-16s | %10s | %10s %8s | %10s %8s\n", "kernel", "CPU",
              "FFT ACCEL", "speedup", "VWR2A", "speedup");
  for (const auto& p : kPaper) {
    const Cycle c = cpu_fft_cycles(p.n, p.real, rng);
    const Cycle a = accel_fft_cycles(p.n, p.real, rng);
    const Cycle v = vwr2a_fft_cycles(p.n, p.real, rng);
    std::printf("  %-8s %6u   | %10llu | %10llu %7.1fx | %10llu %7.1fx\n",
                p.real ? "real" : "complex", p.n,
                static_cast<unsigned long long>(c),
                static_cast<unsigned long long>(a),
                static_cast<double>(c) / static_cast<double>(a),
                static_cast<unsigned long long>(v),
                static_cast<double>(c) / static_cast<double>(v));
    std::printf("    paper          | %10.0f | %10.0f %7.1fx | %10.0f %7.1fx\n",
                p.cpu, p.accel, p.cpu / p.accel, p.vwr2a, p.cpu / p.vwr2a);
  }
  return 0;
}
