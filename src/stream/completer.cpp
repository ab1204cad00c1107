#include "stream/completer.hpp"

#include <utility>

#include "common/status.hpp"
#include "obs/metrics.hpp"
#include "stream/session.hpp"

namespace vwr2a::stream {

Completer::Completer(unsigned threads) {
  if (threads == 0) throw HostError("Completer: need at least one thread");
  lanes_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  threads_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    threads_.emplace_back([this, i] { lane_loop(*lanes_[i]); });
  }
}

Completer::~Completer() { stop(); }

void Completer::enqueue(Session* s, runtime::JobHandle h) {
  Lane& lane = *lanes_[lane_of(s->id())];
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    if (lane.stopping) {
      throw HostError("Completer: enqueue after stop");
    }
    lane.q.push_back(Item{s, std::move(h)});
  }
  if (obs::metrics_enabled()) {
    static obs::Gauge& depth =
        obs::Registry::get().gauge("completer.queue_depth");
    depth.add(1);
  }
  lane.cv.notify_one();
}

void Completer::stop() {
  for (auto& lane : lanes_) {
    {
      std::lock_guard<std::mutex> lock(lane->mu);
      lane->stopping = true;
    }
    lane->cv.notify_all();
  }
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void Completer::lane_loop(Lane& lane) {
  std::unique_lock<std::mutex> lock(lane.mu);
  for (;;) {
    lane.cv.wait(lock, [&lane] { return lane.stopping || !lane.q.empty(); });
    if (lane.q.empty()) return;  // stopping and drained
    Item item = std::move(lane.q.front());
    lane.q.pop_front();
    lock.unlock();
    if (obs::metrics_enabled()) {
      static obs::Gauge& depth =
          obs::Registry::get().gauge("completer.queue_depth");
      depth.add(-1);
      static obs::Counter& items =
          obs::Registry::get().counter("completer.items");
      items.add(1);
    }
    // The wait on the future and the sink both run unlocked: a blocking
    // sink holds up only this lane, never an enqueue.
    item.session->deliver(std::move(item.handle));
    lock.lock();
  }
}

} // namespace vwr2a::stream
