#pragma once
// One mutation fuzzer for every decoder of untrusted or on-disk bytes:
// gateway frames, device checkpoints, traffic journals (.vwr2jrn) and
// trace captures (.vwr2trc). A decoder is adapted to one signature (bytes
// in, Outcome out) and every mutation of a valid input is checked against
// its format's policy:
//   - checksummed formats (checkpoint, journal) reject every mutation with
//     a reason;
//   - the others (frames, captures) reject with a reason, or decode bytes
//     that re-encode to exactly themselves (their encodings are canonical).
// Either way nothing may throw, crash, over-read or allocate from a lying
// count (run under ASan/UBSan, and with an allocation cap in the binaries
// that install one). The mutators:
//   - single-bit flips, exhaustive near both ends and strided through the
//     bulk;
//   - every truncation (likewise swept) plus one trailing byte;
//   - lying length and count fields, patched to remaining/elem+1,
//     0x7fffffff and 0xffffffff (resealed, for checksummed formats, so the
//     lie reaches the count rule instead of the checksum);
//   - splices of two valid inputs (a head of one, a tail of the other).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "gateway/protocol.hpp"
#include "obs/capture.hpp"
#include "obs/journal.hpp"
#include "runtime/checkpoint.hpp"

namespace vwr2a::fuzz {

using Bytes = std::vector<std::uint8_t>;

/// What a decoder made of one input.
struct Outcome {
  std::string why;           ///< non-empty: rejected, for this reason
  std::size_t consumed = 0;  ///< leading input bytes decoded into values
  Bytes reencoded;           ///< those values, encoded again
  std::size_t values = 0;    ///< values decoded (frames, captures, ...)
};

/// A decoder under test. Only its own documented rejects may surface, as
/// Outcome::why; anything it throws fails the check.
using Decode = std::function<Outcome(const Bytes&)>;

enum class Policy {
  kRejectAll,          ///< every mutation is rejected with a reason
  kRejectOrCanonical,  ///< reject with a reason, or decode whole, canonically
};

/// Runs `in` through `decode` and checks `policy`; failures name `what`.
inline Outcome check(const Decode& decode, Policy policy, const Bytes& in,
                     const std::string& what) {
  Outcome o;
  try {
    o = decode(in);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": decoder threw: " << e.what();
    return o;
  }
  if (policy == Policy::kRejectAll) {
    EXPECT_FALSE(o.why.empty()) << what << ": accepted";
  } else {
    EXPECT_TRUE(!o.why.empty() || o.consumed == in.size())
        << what << ": neither rejected with a reason nor decoded whole";
  }
  const Bytes decoded(in.begin(),
                      in.begin() + static_cast<long>(
                                       std::min(o.consumed, in.size())));
  EXPECT_TRUE(o.consumed <= in.size() && o.reencoded == decoded)
      << what << ": decoded bytes do not re-encode to themselves";
  return o;
}

// --- decoders ---------------------------------------------------------------

/// gateway::Decoder over a byte stream: every frame it yields is
/// re-encoded; a stream that ends inside a frame waits, which counts as a
/// reject of the unfinished tail.
inline Outcome frames(const Bytes& in) {
  Outcome o;
  gateway::Decoder dec;
  dec.feed(in);
  try {
    while (const auto f = dec.next()) {
      gateway::encode(*f, o.reencoded);
      ++o.values;
    }
    if (dec.buffered() != 0) o.why = "waits for the rest of a frame";
  } catch (const gateway::ProtocolError& e) {
    o.why = e.what();
  }
  o.consumed = in.size() - dec.buffered();
  return o;
}

inline Outcome checkpoint(const Bytes& in) {
  Outcome o;
  runtime::DeviceCheckpoint c;
  if (runtime::decode_checkpoint(in, &c, &o.why)) {
    o.consumed = in.size();
    o.reencoded = runtime::encode_checkpoint(c);
    o.values = 1;
  }
  return o;
}

/// Journals have no encoder from a JournalFile (the writer records
/// events), so an accepted journal reports nothing consumed.
inline Outcome journal(const Bytes& in) {
  Outcome o;
  obs::JournalFile jf;
  if (obs::decode_journal(in, &jf, &o.why)) o.values = 1;
  return o;
}

inline Outcome capture(const Bytes& in) {
  Outcome o;
  obs::Capture cap;
  if (obs::decode_capture(in, &cap, &o.why)) {
    o.consumed = in.size();
    o.reencoded = obs::encode_capture(cap);
    o.values = 1;
  }
  return o;
}

// --- mutators ---------------------------------------------------------------
//
// Each calls `fn(mutated_bytes, label)` once per mutation.

/// Which positions a sweep visits: all of the first `head` and the last
/// `tail`, and about `bulk` (> 0) strided through the rest.
struct Sweep {
  std::size_t head = 64;
  std::size_t tail = 64;
  std::size_t bulk = 2048;
};

template <class Fn>
void for_positions(std::size_t n, Sweep s, Fn&& fn) {
  const std::size_t head = std::min(s.head, n);
  const std::size_t tail_from = n - std::min(s.tail, n - head);
  const std::size_t stride =
      std::max<std::size_t>(1, (tail_from - head) / s.bulk);
  for (std::size_t at = 0; at < head; ++at) fn(at);
  for (std::size_t at = head; at < tail_from; at += stride) fn(at);
  for (std::size_t at = tail_from; at < n; ++at) fn(at);
}

template <class Fn>
void bit_flips(const Bytes& good, Sweep s, Fn&& fn) {
  for_positions(good.size(), s, [&](std::size_t at) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      Bytes bad = good;
      bad[at] = static_cast<std::uint8_t>(bad[at] ^ (1u << bit));
      fn(bad, "bit " + std::to_string(bit) + " of byte " + std::to_string(at));
    }
  });
}

/// Every proper prefix (swept), then the input plus one trailing byte.
template <class Fn>
void truncations(const Bytes& good, Sweep s, Fn&& fn) {
  for_positions(good.size(), s, [&](std::size_t len) {
    fn(Bytes(good.begin(), good.begin() + static_cast<long>(len)),
       "length " + std::to_string(len));
  });
  Bytes grown = good;
  grown.push_back(0);
  fn(grown, "one trailing byte");
}

/// A length or count prefix: its offset, its width (4 or 8 bytes), the
/// minimum wire size of one element it counts, and its honest value (read
/// back first, so a wrong offset fails instead of fuzzing nothing).
struct Count {
  std::size_t at = 0;
  unsigned width = 4;
  std::size_t elem_bytes = 1;
  std::uint64_t value = 0;
};

template <class Fn>
void lying_counts(const Bytes& good, const std::vector<Count>& counts,
                  Fn&& fn) {
  for (const Count& c : counts) {
    ASSERT_LE(c.at + c.width, good.size()) << "count at " << c.at;
    std::uint64_t honest = 0;
    for (unsigned i = 0; i < c.width; ++i) {
      honest |= std::uint64_t{good[c.at + i]} << (8 * i);
    }
    ASSERT_EQ(honest, c.value) << "count at " << c.at;
    const std::uint64_t remaining = good.size() - c.at - c.width;
    for (const std::uint64_t lie :
         {remaining / c.elem_bytes + 1, std::uint64_t{0x7fffffff},
          std::uint64_t{0xffffffff}}) {
      Bytes bad = good;
      for (unsigned i = 0; i < c.width; ++i) {
        bad[c.at + i] = static_cast<std::uint8_t>(lie >> (8 * i));
      }
      fn(bad, "count at " + std::to_string(c.at) + " = " + std::to_string(lie));
    }
  }
}

/// Heads of `a` joined to tails of `b`, about `cuts` cut points in each;
/// splices equal to either input are skipped.
template <class Fn>
void splices(const Bytes& a, const Bytes& b, std::size_t cuts, Fn&& fn) {
  const std::size_t sa = std::max<std::size_t>(1, a.size() / cuts);
  const std::size_t sb = std::max<std::size_t>(1, b.size() / cuts);
  for (std::size_t i = 0; i <= a.size(); i += sa) {
    for (std::size_t j = 0; j <= b.size(); j += sb) {
      Bytes s(a.begin(), a.begin() + static_cast<long>(i));
      s.insert(s.end(), b.begin() + static_cast<long>(j), b.end());
      if (s == a || s == b) continue;
      fn(s, "splice " + std::to_string(i) + "|" + std::to_string(j));
    }
  }
}

// --- the whole fuzzer -------------------------------------------------------

/// One decoder and the valid inputs its mutations start from.
struct Target {
  std::string name{};
  Decode decode{};
  Policy policy = Policy::kRejectOrCanonical;
  std::vector<Bytes> inputs{};               ///< valid encodings, two or more
  std::vector<std::vector<Count>> counts{};  ///< per input: its count fields
  /// Checksummed formats: recomputes the checksums after a lying count is
  /// patched in, so the lie reaches the decoder's count rule.
  std::function<void(Bytes&)> reseal{};
  Sweep sweep{};
};

/// Runs every mutator over every input of `t` (splices over every ordered
/// pair); returns the number of mutations checked.
inline std::size_t survive_every_mutation(const Target& t) {
  std::size_t checked = 0;
  auto run = [&](const std::string& kind, std::size_t i) {
    return [&, kind, i](const Bytes& bad, const std::string& label) {
      check(t.decode, t.policy, bad,
            t.name + " input " + std::to_string(i) + " " + kind + " " + label);
      ++checked;
    };
  };
  for (std::size_t i = 0; i < t.inputs.size(); ++i) {
    const Outcome o = t.decode(t.inputs[i]);
    EXPECT_TRUE(o.why.empty())
        << t.name << " input " << i << " rejected: " << o.why;
    bit_flips(t.inputs[i], t.sweep, run("flip", i));
    truncations(t.inputs[i], t.sweep, run("truncation", i));
    lying_counts(t.inputs[i], t.counts.at(i),
                 [&](Bytes bad, const std::string& label) {
                   if (t.reseal) t.reseal(bad);
                   run("lie", i)(bad, label);
                 });
    for (std::size_t j = 0; j < t.inputs.size(); ++j) {
      if (j != i) splices(t.inputs[i], t.inputs[j], 32, run("splice", i));
    }
  }
  return checked;
}

} // namespace vwr2a::fuzz
