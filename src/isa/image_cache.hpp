#pragma once
// Shared kernel-image cache. Assembling a CASM program into an encoded
// KernelImage is pure host-side work (it costs simulator time, not modeled
// cycles), but it is the dominant setup cost when a fleet of simulated
// VWR2A devices all need the same kernels. The cache assembles each image
// once, keyed by a caller-chosen string, and hands out shared ownership of
// the immutable result; every device's configuration memory then aliases
// the same image instead of keeping a private copy.
//
// Thread-safe, compile-once. Worker threads of the runtime pool race
// through get_or_build() when they lazily instantiate kernels. Each key
// owns a once-flag: the first thread to miss a key runs the builder outside
// the cache-wide lock, every other thread racing on the *same* key blocks on
// that key's flag, and threads missing *different* keys assemble
// concurrently. Exactly one build per key ever
// runs -- Stats::builds counts actual builder executions, so a duplicate
// build would be observable, and tests/test_isa.cpp pins builds == 1 under
// a deliberate many-thread race.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "cgra/tracecache.hpp"
#include "isa/program.hpp"

namespace vwr2a::isa {

/// Process-wide (or pool-wide) cache of assembled kernel images.
class ImageCache {
 public:
  /// Cache effectiveness counters.
  struct Stats {
    std::uint64_t hits = 0;    ///< lookups that found the key present
    std::uint64_t misses = 0;  ///< lookups that created the key's entry
    std::size_t entries = 0;   ///< images currently cached
    std::uint64_t builds = 0;  ///< builder executions
  };

  /// Returns the image cached under `key`, building (and caching) it via
  /// `build` on first use. The returned image is immutable and shared.
  /// Concurrent callers of the same key run `build` exactly once.
  std::shared_ptr<const KernelImage> get_or_build(
      const std::string& key, const std::function<KernelImage()>& build) {
    std::shared_ptr<Entry> e;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = images_.find(key);
      if (it != images_.end()) {
        ++hits_;
        e = it->second;
      } else {
        ++misses_;
        e = std::make_shared<Entry>();
        images_.emplace(key, e);
      }
    }
    std::call_once(e->once, [&] {
      e->image = std::make_shared<const KernelImage>(build());
      builds_.fetch_add(1, std::memory_order_relaxed);
    });
    return e->image;
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return Stats{hits_, misses_, images_.size(),
                 builds_.load(std::memory_order_relaxed)};
  }

  /// Compiled-trace cache living next to the encoded images: every device
  /// of a pool that runs in ExecMode::kTraceCache shares compilation work
  /// here, exactly as it shares assembled images above.
  cgra::TraceCache& traces() { return traces_; }
  const cgra::TraceCache& traces() const { return traces_; }

 private:
  /// One key's slot. The once-flag serializes that key's build; the image
  /// pointer is written exactly once, inside call_once, and is safe to read
  /// by any thread that passed the flag.
  struct Entry {
    std::once_flag once;
    std::shared_ptr<const KernelImage> image;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> images_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::atomic<std::uint64_t> builds_{0};
  cgra::TraceCache traces_;  ///< thread-safe on its own lock
};

} // namespace vwr2a::isa
