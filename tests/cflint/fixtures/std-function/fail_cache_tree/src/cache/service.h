// Fixture: std::function inside src/cache, the cache serve path.
#pragma once

#include <functional>

namespace cloudfog::cache {

class Service {
 public:
  using DeliverFn = std::function<void()>;

 private:
  DeliverFn pending_;
};

}  // namespace cloudfog::cache
