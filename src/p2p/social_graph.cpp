#include "p2p/social_graph.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/check.h"

namespace cloudfog::p2p {

namespace {
constexpr std::uint64_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
}  // namespace

SocialGraph::SocialGraph(std::size_t n, const SocialGraphConfig& config,
                         util::Rng& rng) {
  CF_CHECK_MSG(n <= kMaxIndex, "social graph indexes players in 32 bits");
  offsets_.assign(n + 1, 0);
  if (n < 2) return;
  CF_CHECK_MSG(config.min_friends >= 1, "min_friends must be at least 1");
  CF_CHECK_MSG(config.min_friends <= config.max_friends, "friend bounds");
  const auto count = static_cast<std::uint32_t>(n);

  // Draw target degrees from the power law; row i starts at their prefix
  // sum, sized for all of i's stubs.
  const std::size_t max_deg = std::min(config.max_friends, n - 1);
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    offsets_[i] = static_cast<std::uint32_t>(total);
    total += rng.power_law(config.min_friends, max_deg, config.skew);
    CF_CHECK_MSG(total <= kMaxIndex, "social graph indexes edges in 32 bits");
  }
  offsets_[n] = static_cast<std::uint32_t>(total);

  // One stub per unit of target degree, matched randomly.
  std::vector<std::uint32_t> stubs(static_cast<std::size_t>(total));
  for (std::uint32_t i = 0; i < count; ++i) {
    std::fill(stubs.begin() + offsets_[i], stubs.begin() + offsets_[i + 1], i);
  }
  rng.shuffle(stubs);

  // Pair consecutive stubs; drop self-loops and duplicates (standard
  // configuration-model practice; the loss is a vanishing fraction). Each
  // stub adds at most one edge to its row, so no row outgrows its slots.
  edges_.resize(stubs.size());
  std::vector<std::uint32_t> fill(n, 0);
  const auto in_row = [&](std::uint32_t a, std::uint32_t b) {
    const std::uint32_t* first = edges_.data() + offsets_[a];
    const std::uint32_t* last = first + fill[a];
    return std::find(first, last, b) != last;
  };
  for (std::size_t s = 0; s + 1 < stubs.size(); s += 2) {
    const std::uint32_t a = stubs[s], b = stubs[s + 1];
    if (a == b || in_row(a, b)) continue;
    edges_[offsets_[a] + fill[a]++] = b;
    edges_[offsets_[b] + fill[b]++] = a;
  }

  // Guarantee the minimum degree: attach under-connected players to random
  // peers. Few players need it, so their edges go to a side list.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> extra;
  const auto connected = [&](std::uint32_t a, std::uint32_t b) {
    if (in_row(a, b)) return true;
    return std::any_of(extra.begin(), extra.end(), [&](const auto& e) {
      return (e.first == a && e.second == b) || (e.first == b && e.second == a);
    });
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    if (fill[i] >= config.min_friends) continue;
    std::size_t deg = fill[i];
    for (const auto& e : extra) {
      if (e.first == i || e.second == i) ++deg;
    }
    while (deg < config.min_friends) {
      const auto j = static_cast<std::uint32_t>(rng.index(n));
      if (j == i || connected(i, j)) continue;
      extra.emplace_back(i, j);
      ++deg;
    }
  }

  // Compact each row, followed by its side-list edges, into the stub
  // buffer, which pairing no longer needs; then sort each row once.
  const std::size_t side = extra.size();
  extra.reserve(2 * side);  // the loop reads extra[e] while appending
  for (std::size_t e = 0; e < side; ++e) {
    extra.emplace_back(extra[e].second, extra[e].first);
  }
  std::sort(extra.begin(), extra.end());
  std::vector<std::uint32_t>& rows = stubs;
  rows.clear();
  rows.reserve(edges_.size() + extra.size());
  auto next_extra = extra.begin();
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t start = rows.size();
    const auto row = edges_.begin() + offsets_[i];
    rows.insert(rows.end(), row, row + fill[i]);
    for (; next_extra != extra.end() && next_extra->first == i; ++next_extra) {
      rows.push_back(next_extra->second);
    }
    std::sort(rows.begin() + static_cast<std::ptrdiff_t>(start), rows.end());
    offsets_[i] = static_cast<std::uint32_t>(start);
  }
  CF_CHECK_MSG(rows.size() <= kMaxIndex, "social graph indexes edges in 32 bits");
  offsets_[n] = static_cast<std::uint32_t>(rows.size());
  edges_.swap(rows);
}

std::span<const std::uint32_t> SocialGraph::friends(std::size_t player) const {
  CF_CHECK_MSG(player < size(), "player index out of range");
  return {edges_.data() + offsets_[player], edges_.data() + offsets_[player + 1]};
}

bool SocialGraph::are_friends(std::size_t a, std::size_t b) const {
  const auto fa = friends(a);
  return std::binary_search(fa.begin(), fa.end(), b);
}

double SocialGraph::mean_degree() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(edges_.size()) / static_cast<double>(size());
}

}  // namespace cloudfog::p2p
