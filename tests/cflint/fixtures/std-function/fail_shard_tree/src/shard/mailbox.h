// Fixture: std::function inside src/shard, the cross-shard message path.
#pragma once

#include <functional>
#include <vector>

namespace cloudfog::shard {

struct Mailbox {
  std::vector<std::function<void()>> messages;
};

}  // namespace cloudfog::shard
