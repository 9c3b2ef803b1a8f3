// Fixture: a shard-runtime task borrowed for one call as a function
// pointer plus target, not a std::function.
#pragma once

#include <cstddef>

namespace cloudfog::shard {

struct TaskRef {
  void* target = nullptr;
  void (*invoke)(void*, std::size_t) = nullptr;
};

}  // namespace cloudfog::shard
