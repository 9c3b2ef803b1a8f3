// Fixture: the cache serve path's hooks as util::small_function with an
// explicit inline capacity; a comment naming std::function must not fire.
#pragma once

#include "util/small_function.h"

namespace cloudfog::cache {

class Service {
 public:
  using DeliverFn = util::small_function<void(), 88>;

 private:
  DeliverFn pending_;
};

}  // namespace cloudfog::cache
