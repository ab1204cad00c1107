#pragma once
// Per-event energy calibration, in picojoules per event.
//
// The paper characterizes power with Synopsys PrimePower on a TSMC 40 nm LP
// post-synthesis netlist at 80 MHz (Sec 4.3). That flow is not reproducible
// in software, so this table carries the energy model instead. Values are
// engineering estimates for 40 nm LP standard-cell/SRAM-macro implementations
// chosen so that the *activity-weighted* totals land on the paper's Table 3
// power breakdown (VWR2A total 5.41 mW, FFT accelerator 0.983 mW, both while
// executing a 512-point real-valued FFT), and on the ~1.2 mW CPU+SRAM
// operating point implied by Tables 4 and 5.
//
// The absolute joules are NOT the claim of this reproduction; the claim is
// the shape: per-component ratios, kernel-level gaps, and application-level
// crossovers. The paper-table benches (bench/table2_fft_performance.cpp
// through bench/table5_bioapp.cpp) print the measured-vs-paper deltas.

namespace vwr2a::energy::cal {

// --- VWR2A SPM: 32 KiB built from concatenated narrow macros (Sec 5.1.1).
// A 4096-bit row access activates every macro at once.
inline constexpr double kSpmRowReadPj = 140.0;
inline constexpr double kSpmRowWritePj = 150.0;
// System-side narrow port (one macro).
inline constexpr double kSpmWordReadPj = 6.0;
inline constexpr double kSpmWordWritePj = 7.0;

// --- VWRs: latch arrays; the paper notes only the mux outputs switch each
// cycle, so the per-word read is cheap and the row write is the big cost.
inline constexpr double kVwrRowWritePj = 42.0;
inline constexpr double kVwrWordReadPj = 0.9;
inline constexpr double kVwrWordWritePj = 1.2;

// --- Register files.
inline constexpr double kSrfReadPj = 0.8;
inline constexpr double kSrfWritePj = 1.0;
inline constexpr double kRcRfReadPj = 0.3;
inline constexpr double kRcRfWritePj = 0.4;

// --- RC datapath (32-bit, operand isolation on idle operators).
inline constexpr double kAluOpPj = 2.2;
inline constexpr double kAluMulPj = 5.5;
inline constexpr double kAluFxpMulPj = 6.5;

// --- Shuffle unit: a 256-word wire permutation plus the VWR C row write is
// charged separately (kVwrRowWrite).
inline constexpr double kShuffleOpPj = 28.0;

// --- Control. Fetch is one 32-bit register-file read out of the 64-word
// program memory; there is no decoder (bits drive control signals directly).
inline constexpr double kInstrFetchRcPj = 0.22;
inline constexpr double kInstrFetchCtrlPj = 0.22;
inline constexpr double kPcUpdatePj = 0.15;
inline constexpr double kConfigWordPj = 1.0;

// --- Leakage: dominated by the VWR latches and the SPM periphery; 40 nm LP
// is a low-leak process. Charged per active cycle (power gating stops it).
inline constexpr double kLeakCyclePj = 4.0;

// --- VWR2A DMA.
inline constexpr double kDmaSetupPj = 30.0;
inline constexpr double kDmaBeatPj = 4.0;

// --- AMBA-AHB-like system bus.
inline constexpr double kBusSetupPj = 12.0;
inline constexpr double kBusBeatPj = 9.0;

// --- System SRAM (192 KiB in six 32 KiB banks).
inline constexpr double kSramReadPj = 13.0;
inline constexpr double kSramWritePj = 14.0;

// --- Host CPU (Cortex-M4F-like @ 40 nm LP). Core-only energy per cycle;
// memory traffic is charged through kSram*/kBus* events. The combination
// lands on the ~1.2 mW CPU+SRAM operating point implied by Tables 4/5.
inline constexpr double kCpuCyclePj = 11.5;
inline constexpr double kCpuFlashFetchPj = 0.0;

// --- FFT accelerator (18-bit datapath, 17 KiB dual-port memory, twiddle
// ROMs; Sec 4.1). Calibrated against Table 3's FFT ACCEL column.
inline constexpr double kAccelBflyPj = 42.0;
inline constexpr double kAccelMemAccessPj = 2.4;
inline constexpr double kAccelRomReadPj = 0.7;
inline constexpr double kAccelCtrlCyclePj = 0.8;
inline constexpr double kAccelLeakCyclePj = 0.6;
inline constexpr double kAccelIoWordPj = 0.25;
inline constexpr double kAccelDmaBeatPj = 0.15;

inline constexpr double kIrqPj = 5.0;

} // namespace vwr2a::energy::cal
