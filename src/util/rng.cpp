#include "util/rng.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace cloudfog::util {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_label(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (char ch : label) {
    const auto c = static_cast<unsigned char>(ch);
    h ^= c;
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

Rng Rng::fork(std::string_view label) const {
  // Mix the current state with the label hash; the parent stream is not
  // advanced, so forking is order-independent for distinct labels.
  std::uint64_t mixed = state_[0] ^ rotl(state_[1], 17) ^ hash_label(label);
  return Rng(mixed);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  CF_DCHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CF_CHECK_MSG(lo <= hi, "uniform_int requires lo <= hi");
  // Unsigned arithmetic: spans beyond 2^63 must wrap, not overflow.
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection below 2^64 mod span removes the modulo bias. That threshold is
  // below span, so a draw >= span is always accepted and the division that
  // computes it is only paid for the rare draw below span.
  std::uint64_t r = (*this)();
  if (r < span) {
    const std::uint64_t threshold = (~span + 1) % span;
    while (r < threshold) r = (*this)();
  }
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r % span);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal(double mean, double stddev) {
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) {
  CF_CHECK_MSG(rate > 0.0, "exponential rate must be positive");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

std::uint64_t Rng::poisson(double mean) {
  CF_CHECK_MSG(mean >= 0.0, "poisson mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 60.0) {
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= uniform();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction.
  const double sample = normal(mean, std::sqrt(mean));
  return sample <= 0.0 ? 0 : static_cast<std::uint64_t>(sample + 0.5);
}

double Rng::pareto(double xm, double alpha) {
  CF_CHECK_MSG(xm > 0.0 && alpha > 0.0, "pareto requires positive scale and shape");
  double u;
  do {
    u = uniform();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::pareto_with_mean(double mean, double alpha, double cap_multiple) {
  return CappedPareto::with_mean(mean, alpha, cap_multiple)(*this);
}

CappedPareto CappedPareto::with_mean(double mean, double alpha,
                                     double cap_multiple) {
  CF_CHECK_MSG(mean > 0.0 && cap_multiple > 1.0, "pareto_with_mean parameters");
  const double cap = cap_multiple * mean;
  double xm;
  if (alpha > 1.0) {
    xm = mean * (alpha - 1.0) / alpha;
  } else {
    // alpha <= 1: infinite mean; choose xm so the cap-truncated mean equals
    // `mean`. For alpha == 1 the truncated mean is xm * (1 + ln(cap/xm));
    // solve by bisection on xm in (0, mean].
    double lo = mean / cap_multiple / 100.0, hi = mean;
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo + hi);
      double truncated_mean;
      if (alpha == 1.0) {
        truncated_mean = mid * (1.0 + std::log(cap / mid));
      } else {
        // E[min(X, cap)] = xm * (a - (xm/cap)^(a-1)) / (a - 1), valid a != 1.
        truncated_mean =
            mid * (alpha - std::pow(mid / cap, alpha - 1.0)) / (alpha - 1.0);
      }
      if (truncated_mean < mean)
        lo = mid;
      else
        hi = mid;
    }
    xm = 0.5 * (lo + hi);
  }
  return CappedPareto{xm, alpha, cap};
}

double CappedPareto::operator()(Rng& rng) const {
  return std::min(rng.pareto(xm, alpha), cap);
}

std::uint64_t Rng::zipf(std::uint64_t n, double s) {
  CF_CHECK_MSG(n >= 1, "zipf requires n >= 1");
  if (n == 1) return 1;
  // Rejection-inversion (Hörmann & Derflinger) specialised for s != 1 and
  // a simple harmonic fallback for s == 1.
  const double x_min = 1.0, x_max = static_cast<double>(n) + 0.5;
  auto h_integral = [s](double x) {
    if (std::abs(s - 1.0) < 1e-12) return std::log(x);
    return (std::pow(x, 1.0 - s) - 1.0) / (1.0 - s);
  };
  auto h_integral_inv = [s](double y) {
    if (std::abs(s - 1.0) < 1e-12) return std::exp(y);
    return std::pow(1.0 + y * (1.0 - s), 1.0 / (1.0 - s));
  };
  const double lo = h_integral(x_min - 0.5 < 0.5 ? 0.5 : x_min - 0.5);
  const double hi = h_integral(x_max);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const double u = uniform(lo, hi);
    const double x = h_integral_inv(u);
    std::uint64_t k = static_cast<std::uint64_t>(x + 0.5);
    if (k < 1) k = 1;
    if (k > n) k = n;
    // Accept with probability proportional to the true mass at k.
    const double accept = std::pow(static_cast<double>(k), -s) /
                          std::pow(x, -s);
    if (uniform() < accept) return k;
  }
  return 1;  // vanishing probability; keeps the function total
}

std::uint64_t Rng::power_law(std::uint64_t k_min, std::uint64_t k_max, double gamma) {
  CF_CHECK_MSG(k_min >= 1 && k_min <= k_max, "power_law bounds");
  if (k_min == k_max) return k_min;
  // Inverse-CDF on the continuous approximation, then round.
  const double a = static_cast<double>(k_min);
  const double b = static_cast<double>(k_max) + 1.0;
  const double one_minus_g = 1.0 - gamma;
  double x;
  if (std::abs(one_minus_g) < 1e-12) {
    x = a * std::pow(b / a, uniform());
  } else {
    const double ca = std::pow(a, one_minus_g);
    const double cb = std::pow(b, one_minus_g);
    x = std::pow(ca + (cb - ca) * uniform(), 1.0 / one_minus_g);
  }
  auto k = static_cast<std::uint64_t>(x);
  if (k < k_min) k = k_min;
  if (k > k_max) k = k_max;
  return k;
}

std::size_t Rng::index(std::size_t n) {
  CF_CHECK_MSG(n > 0, "index requires non-empty range");
  return static_cast<std::size_t>(
      uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  CF_CHECK_MSG(k <= n, "cannot sample more indices than the population");
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher–Yates: first k slots are the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + index(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    CF_CHECK_MSG(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  CF_CHECK_MSG(total > 0.0, "weighted_index requires a positive total weight");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge: return last positive slot
}

}  // namespace cloudfog::util
