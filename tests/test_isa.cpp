// ISA encode/decode round-trips, field validation, disassembly, and the
// ImageCache compile-once regression.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "isa/image_cache.hpp"
#include "isa/instr.hpp"

namespace vwr2a::isa {
namespace {

class RcOps : public ::testing::TestWithParam<unsigned> {};

TEST_P(RcOps, EncodeDecodeRoundTrip) {
  Rng rng(GetParam());
  RcInstr i;
  i.op = static_cast<RcOp>(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    i.src_a = static_cast<RcSrc>(rng.next_below(static_cast<unsigned>(RcSrc::kCount)));
    i.src_b = static_cast<RcSrc>(rng.next_below(static_cast<unsigned>(RcSrc::kCount)));
    i.dst = static_cast<RcDst>(rng.next_below(static_cast<unsigned>(RcDst::kCount)));
    i.srf = static_cast<std::uint8_t>(rng.next_below(8));
    i.imm = static_cast<std::int8_t>(rng.next_u32());
    EXPECT_EQ(decode_rc(encode(i)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, RcOps,
                         ::testing::Range(0u, static_cast<unsigned>(RcOp::kCount)));

class LcuOps : public ::testing::TestWithParam<unsigned> {};

TEST_P(LcuOps, EncodeDecodeRoundTrip) {
  Rng rng(GetParam() + 100);
  LcuInstr i;
  i.op = static_cast<LcuOp>(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    i.rd = static_cast<std::uint8_t>(rng.next_below(4));
    i.ra = static_cast<std::uint8_t>(rng.next_below(4));
    i.rb = static_cast<std::uint8_t>(rng.next_below(4));
    i.srf = static_cast<std::uint8_t>(rng.next_below(8));
    i.target = static_cast<std::uint8_t>(rng.next_below(64));
    i.imm = static_cast<std::int16_t>(static_cast<int>(rng.next_below(1024)) - 512);
    EXPECT_EQ(decode_lcu(encode(i)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, LcuOps,
                         ::testing::Range(0u, static_cast<unsigned>(LcuOp::kCount)));

class LsuOps : public ::testing::TestWithParam<unsigned> {};

TEST_P(LsuOps, EncodeDecodeRoundTrip) {
  Rng rng(GetParam() + 200);
  LsuInstr i;
  i.op = static_cast<LsuOp>(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    i.vwr = static_cast<VwrSel>(rng.next_below(3));
    i.mode = static_cast<ShufMode>(rng.next_below(8));
    i.amode = static_cast<LsuAddrMode>(rng.next_below(4));
    i.srf_base = static_cast<std::uint8_t>(rng.next_below(8));
    i.srf_data = static_cast<std::uint8_t>(rng.next_below(8));
    i.imm = static_cast<std::int16_t>(rng.next_below(60));  // legal row
    EXPECT_EQ(decode_lsu(encode(i)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, LsuOps,
                         ::testing::Range(0u, static_cast<unsigned>(LsuOp::kCount)));

class MxcuOps : public ::testing::TestWithParam<unsigned> {};

TEST_P(MxcuOps, EncodeDecodeRoundTrip) {
  Rng rng(GetParam() + 300);
  MxcuInstr i;
  i.op = static_cast<MxcuOp>(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    i.srf = static_cast<std::uint8_t>(rng.next_below(8));
    i.imm = static_cast<std::int16_t>(static_cast<int>(rng.next_below(4096)) - 2048);
    EXPECT_EQ(decode_mxcu(encode(i)), i);
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, MxcuOps,
                         ::testing::Range(0u, static_cast<unsigned>(MxcuOp::kCount)));

TEST(Validation, RejectsOutOfRangeFields) {
  RcInstr rc;
  rc.srf = 8;
  EXPECT_THROW(encode(rc), AsmError);

  LcuInstr lcu;
  lcu.target = 64;
  EXPECT_THROW(encode(lcu), AsmError);
  lcu.target = 0;
  lcu.imm = 512;
  EXPECT_THROW(encode(lcu), AsmError);

  LsuInstr lsu;
  lsu.op = LsuOp::kLdVwr;
  lsu.imm = 64;  // SPM has 64 rows: 0..63
  EXPECT_THROW(encode(lsu), AsmError);

  MxcuInstr mx;
  mx.imm = 2048;
  EXPECT_THROW(encode(mx), AsmError);
}

TEST(Decode, RejectsBadOpcodes) {
  EXPECT_THROW(decode_rc(0xFFFFFFFFu), DecodeError);
  EXPECT_THROW(decode_lcu(0xFFFFFFFFu), DecodeError);
  EXPECT_THROW(decode_mxcu(0xFFFFFFFFu), DecodeError);
}

TEST(Disasm, NopIsAllZeros) {
  EXPECT_EQ(disassemble(Slot::LCU, 0), "nop");
  EXPECT_EQ(disassemble(Slot::LSU, 0), "nop");
  EXPECT_EQ(disassemble(Slot::MXCU, 0), "nop");
  EXPECT_EQ(disassemble(Slot::RC0, 0), "nop");
}

TEST(Disasm, RendersOperands) {
  RcInstr i;
  i.op = RcOp::kSadd;
  i.dst = RcDst::kVwrC;
  i.src_a = RcSrc::kVwrA;
  i.src_b = RcSrc::kSrf;
  i.srf = 3;
  EXPECT_EQ(to_asm(i), "sadd vwrc, vwra, srf3");

  LcuInstr b;
  b.op = LcuOp::kBlt;
  b.ra = 0;
  b.rb = 1;
  b.target = 5;
  EXPECT_EQ(to_asm(b), "blt r0, r1, @5");
}

// --- ImageCache compile-once regression ---------------------------------------

/// Many threads missing the same key concurrently must run the builder
/// exactly once (the old miss path could assemble the image once per racing
/// thread and publish one winner -- wasted work that Stats::builds now
/// makes observable).
TEST(ImageCache, BuildsOncePerKeyUnderRace) {
  ImageCache cache;
  std::atomic<unsigned> builder_runs{0};
  constexpr unsigned kThreads = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &builder_runs] {
      auto img = cache.get_or_build("contended", [&builder_runs] {
        builder_runs.fetch_add(1);
        // Widen the race window: every thread reaches the once-flag
        // before the first build finishes.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        KernelImage image;
        image.name = "contended";
        return image;
      });
      EXPECT_NE(img, nullptr);
      EXPECT_EQ(img->name, "contended");
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builder_runs.load(), 1u);
  const auto s = cache.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, kThreads - 1);
  EXPECT_EQ(s.entries, 1u);
  // All threads must share one image object, not copies.
  EXPECT_EQ(cache.get_or_build("contended", [] {
                 ADD_FAILURE() << "rebuilt a cached key";
                 return KernelImage{};
               })
                ->name,
            "contended");
}

} // namespace
} // namespace vwr2a::isa
