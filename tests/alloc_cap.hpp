#pragma once
// Allocation cap for the test binary that includes this header (from one
// source file only: it replaces the global operator new). Decoders promise
// never to allocate much more than one frame, whatever a length or count
// prefix claims; refusing any single allocation above 4 MiB (four maximal
// frame payloads) turns a buffer sized from a lying prefix into a test
// failure (std::bad_alloc) instead of a quiet multi-GiB reservation.

#include <cstdlib>
#include <new>

#include "gateway/protocol.hpp"

void* operator new(std::size_t n) {
  if (n <= 4 * vwr2a::gateway::kMaxFramePayload) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  }
  throw std::bad_alloc();
}
// GCC flags free() on operator-new memory; here both sides are replaced.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
