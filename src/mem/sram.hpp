#pragma once
// System SRAM: the host SoC's 192 KiB memory, divided into six banks that
// can be individually power gated (paper Sec 4.1). Word-addressed.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "common/status.hpp"
#include "common/types.hpp"
#include "energy/meter.hpp"

namespace vwr2a::mem {

/// The six-bank system SRAM on the AHB bus.
class SystemSram {
 public:
  explicit SystemSram(energy::EnergyMeter& meter)
      : meter_(&meter),
        data_(static_cast<Word*>(std::calloc(kWords, sizeof(Word)))) {
    if (data_ == nullptr) throw std::bad_alloc();
    gated_.fill(false);
  }

  /// Words in the SRAM.
  unsigned size_words() const { return kWords; }

  /// Reads one word (bus transaction side).
  Word read(unsigned word) {
    check_access(word);
    meter_->add(energy::Event::kSramRead);
    return data_[word];
  }

  /// Writes one word.
  void write(unsigned word, Word v) {
    check_access(word);
    meter_->add(energy::Event::kSramWrite);
    data_[word] = v;
  }

  /// Power-gates or wakes one bank. Accessing a gated bank throws.
  void set_bank_gated(unsigned bank, bool gated) {
    if (bank >= arch::kSramBanks) throw RangeError("SRAM: bad bank");
    gated_[bank] = gated;
  }

  bool bank_gated(unsigned bank) const {
    if (bank >= arch::kSramBanks) throw RangeError("SRAM: bad bank");
    return gated_[bank];
  }

  /// The bank containing a word address.
  static unsigned bank_of(unsigned word) {
    return word / (arch::kSramBytes / 4 / arch::kSramBanks);
  }

  // --- bulk transfers (bus block operations) ---------------------------------

  /// True when every word of [first, first + n) is in range and ungated.
  bool block_ok(unsigned first, std::uint64_t n) const {
    if (n == 0 || first + n > kWords) return false;
    for (unsigned b = bank_of(first); b <= bank_of(static_cast<unsigned>(first + n - 1)); ++b) {
      if (gated_[b]) return false;
    }
    return true;
  }

  /// Reads n consecutive words with per-word energy accounting (bulk add).
  void read_block(unsigned first, Word* dst, unsigned n) {
    meter_->add(energy::Event::kSramRead, n);
    std::copy_n(data_.get() + first, n, dst);
  }

  /// Writes n consecutive words with per-word energy accounting (bulk add).
  void write_block(unsigned first, const Word* src, unsigned n) {
    meter_->add(energy::Event::kSramWrite, n);
    std::copy_n(src, n, data_.get() + first);
  }

  /// True when all n strided words are in range and ungated.
  bool strided_ok(unsigned first, std::int32_t stride, std::uint32_t n) const {
    if (n == 0) return false;
    const std::int64_t last =
        static_cast<std::int64_t>(first) +
        static_cast<std::int64_t>(stride) * (static_cast<std::int64_t>(n) - 1);
    const std::int64_t lo = std::min<std::int64_t>(first, last);
    const std::int64_t hi = std::max<std::int64_t>(first, last);
    if (lo < 0 || hi >= static_cast<std::int64_t>(kWords)) return false;
    for (unsigned b = bank_of(static_cast<unsigned>(lo));
         b <= bank_of(static_cast<unsigned>(hi)); ++b) {
      if (gated_[b]) return false;  // conservative: any gated bank in span
    }
    return true;
  }

  /// Strided read with per-word energy accounting (caller checked).
  void read_strided(unsigned first, std::int32_t stride, std::uint32_t n,
                    Word* dst) {
    meter_->add(energy::Event::kSramRead, n);
    std::int64_t a = first;
    for (std::uint32_t i = 0; i < n; ++i, a += stride) dst[i] = data_[a];
  }

  /// Strided write with per-word energy accounting (caller checked).
  void write_strided(unsigned first, std::int32_t stride, std::uint32_t n,
                     const Word* src) {
    meter_->add(energy::Event::kSramWrite, n);
    std::int64_t a = first;
    for (std::uint32_t i = 0; i < n; ++i, a += stride) data_[a] = src[i];
  }

  /// Debug/testing backdoor.
  Word peek(unsigned word) const {
    check_range(word);
    return data_[word];
  }
  void poke(unsigned word, Word v) {
    check_range(word);
    data_[word] = v;
  }

 private:
  void check_access(unsigned word) const {
    check_range(word);
    if (gated_[bank_of(word)]) {
      throw HostError("SRAM: access to power-gated bank");
    }
  }
  void check_range(unsigned word) const {
    if (word >= kWords) throw RangeError("SRAM: word out of range");
  }

  static constexpr unsigned kWords = arch::kSramBytes / 4;
  struct Free {
    void operator()(Word* p) const { std::free(p); }
  };

  energy::EnergyMeter* meter_;
  /// Zeroed by calloc, so pages no access touches stay uncommitted: a
  /// device's 192 KiB costs host memory only where jobs stage data.
  std::unique_ptr<Word[], Free> data_;
  std::array<bool, arch::kSramBanks> gated_{};
};

} // namespace vwr2a::mem
