// Read-only payload-allocation counters under their old pool names.
//
// Every payload is a plain heap vector; MemoryTracker::payload_allocs()
// counts them. perfbench reads these names, and they go the next time the
// benchmark changes. Library code, tests and benches read MemoryTracker.
#pragma once

#include <cstdint>

#include "ad/tensor.hpp"

namespace mf::ad {

struct PoolStats {
  std::uint64_t hits = 0, misses = 0;
};

struct PayloadPool {
  static PoolStats stats() {
    return {0, MemoryTracker::instance().payload_allocs()};
  }
};

}  // namespace mf::ad
