#pragma once
// One row per counter. A counter block (runtime::FleetCounters,
// gateway::Telemetry) is a plain struct of u64 / double members, and its
// descriptor table lists each member once: registry name, kind, member.
// Every export walks the table: Tally keeps a component's live values and
// mirrors counter rows into the obs::Registry; to_rows / view write
// and read the named rows of the gateway's STATS frame.
// Adding a counter is one member, one table row and its increment site.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/metrics.hpp"

namespace vwr2a::obs {

/// What a row's value means.
enum class StatKind : std::uint8_t {
  kCounter,  ///< monotone u64; mirrored into the registry counter `name`
  kValue,    ///< u64 point-in-time value (dead devices, makespan)
  kF64,      ///< double; exported as its IEEE-754 bit pattern
};

/// One row of a counter block's descriptor table.
template <class B>
struct StatField {
  using Block = B;

  std::string_view name;  ///< registry name, also the STATS row name
  StatKind kind = StatKind::kCounter;
  std::uint64_t Block::*u64 = nullptr;  ///< kCounter / kValue member
  double Block::*f64 = nullptr;         ///< kF64 member

  static_assert(sizeof(double) == sizeof(std::uint64_t));
  // A double row moves its bytes with memcpy: GCC 12 flags a std::bit_cast
  // of `b.*f64` as a maybe-uninitialized read once get() is inlined over a
  // block that has no double member.
  std::uint64_t get(const Block& b) const {
    if (f64 == nullptr) return b.*u64;
    std::uint64_t v = 0;
    std::memcpy(&v, &(b.*f64), sizeof v);
    return v;
  }
  void set(Block& b, std::uint64_t v) const {
    if (f64 == nullptr) {
      b.*u64 = v;
    } else {
      std::memcpy(&(b.*f64), &v, sizeof v);
    }
  }
};

/// The block type a descriptor table describes.
template <const auto& Fields>
using BlockOf =
    typename std::remove_cvref_t<decltype(Fields)>::value_type::Block;

/// One table of `Block` from several, rows of a base block included (their
/// member pointers convert to `Block`'s).
template <class Block, class... Parts>
constexpr auto join(const Parts&... parts) {
  std::array<StatField<Block>, (std::tuple_size_v<Parts> + ...)> out{};
  std::size_t i = 0;
  (
      [&] {
        for (const auto& f : parts) out[i++] = {f.name, f.kind, f.u64, f.f64};
      }(),
      ...);
  return out;
}

/// Index of the row reading u64 member `M` (a compile error when absent).
template <const auto& Fields, auto M>
consteval std::size_t field_index() {
  const std::uint64_t BlockOf<Fields>::*m = M;
  for (std::size_t i = 0; i < Fields.size(); ++i) {
    if (Fields[i].u64 == m) return i;
  }
  throw "obs: member has no row in this table";
}

/// Registry counter of counter row `i`. The table's counter rows are
/// resolved by name once, on first use.
template <const auto& Fields>
Counter& mirror(std::size_t i) {
  static const auto counters = [] {
    std::array<Counter*, Fields.size()> c{};
    for (std::size_t j = 0; j < Fields.size(); ++j) {
      if (Fields[j].kind == StatKind::kCounter) {
        c[j] = &Registry::get().counter(std::string(Fields[j].name));
      }
    }
    return c;
  }();
  return *counters[i];
}

/// A component's live counter block: one relaxed atomic per row, readable
/// while writers run. add() on a counter row also bumps its registry
/// counter while metrics are enabled.
template <const auto& Fields>
class Tally {
 public:
  template <auto M>
  void add(std::uint64_t n = 1) {
    constexpr std::size_t i = field_index<Fields, M>();
    v_[i].fetch_add(n, std::memory_order_relaxed);
    if constexpr (Fields[i].kind == StatKind::kCounter) {
      if (metrics_enabled()) mirror<Fields>(i).add(n);
    }
  }
  template <auto M>
  void sub(std::uint64_t n = 1) {
    constexpr std::size_t i = field_index<Fields, M>();
    static_assert(Fields[i].kind == StatKind::kValue, "counters only grow");
    v_[i].fetch_sub(n, std::memory_order_relaxed);
  }
  template <auto M>
  std::uint64_t get() const {
    return v_[field_index<Fields, M>()].load(std::memory_order_relaxed);
  }

  /// Every row's value; rows this tally never bumps read 0.
  BlockOf<Fields> snapshot() const {
    BlockOf<Fields> b{};
    for (std::size_t i = 0; i < Fields.size(); ++i) {
      Fields[i].set(b, v_[i].load(std::memory_order_relaxed));
    }
    return b;
  }

 private:
  std::array<std::atomic<std::uint64_t>, Fields.size()> v_{};
};

/// Appends one {name, value} row per table row (Row: an aggregate of a
/// std::string name and a u64 value).
template <const auto& Fields, class Row>
void to_rows(const BlockOf<Fields>& b, std::vector<Row>& out) {
  for (const auto& f : Fields) out.push_back({std::string(f.name), f.get(b)});
}

/// The typed view of named rows: each table row takes the value of the
/// first row with its name. Unknown rows are ignored; missing rows read 0.
template <const auto& Fields, class Row>
BlockOf<Fields> view(const std::vector<Row>& rows) {
  BlockOf<Fields> b{};
  for (const auto& f : Fields) {
    for (const Row& r : rows) {
      if (r.name == f.name) {
        f.set(b, r.value);
        break;
      }
    }
  }
  return b;
}

} // namespace vwr2a::obs
