// Deterministic random number generation for the simulator.
//
// Every stochastic component draws from its own `Rng` stream, derived from a
// single master seed plus a component label, so experiments are reproducible
// bit-for-bit and adding a new consumer does not perturb existing streams.
//
// The engine is xoshiro256** (public-domain, Blackman & Vigna), seeded via
// splitmix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace cloudfog::util {

/// splitmix64 step; used for seeding and for hashing labels into seeds.
std::uint64_t splitmix64(std::uint64_t& state);

/// Hashes a label string into a 64-bit value (FNV-1a).
std::uint64_t hash_label(std::string_view label);

/// xoshiro256** engine with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the stream from `seed`; all four words are derived via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Derives an independent child stream for component `label`.
  /// Children of the same (parent seed, label) pair are always identical.
  Rng fork(std::string_view label) const;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Marsaglia polar method.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Lognormal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Exponential with the given rate (mean 1/rate). Requires rate > 0.
  double exponential(double rate);

  /// Poisson-distributed count with the given mean (Knuth for small means,
  /// normal approximation above 60).
  std::uint64_t poisson(double mean);

  /// Pareto (Lomax-style "American Pareto", xm = scale) with shape alpha:
  /// P(X > x) = (xm/x)^alpha for x >= xm. Requires alpha > 0, xm > 0.
  double pareto(double xm, double alpha);

  /// Pareto sample with the requested *mean* and shape alpha: one draw of
  /// CappedPareto::with_mean(mean, alpha, cap_multiple). A caller drawing
  /// many samples builds the CappedPareto once instead.
  double pareto_with_mean(double mean, double alpha, double cap_multiple = 20.0);

  /// Zipf-like integer in [1, n] with exponent s (rejection-inversion).
  std::uint64_t zipf(std::uint64_t n, double s);

  /// Power-law degree sample in [k_min, k_max] with P(k) ∝ k^(-gamma),
  /// used for the social-graph friend counts (paper: skew 0.5).
  std::uint64_t power_law(std::uint64_t k_min, std::uint64_t k_max, double gamma);

  /// Picks a random index in [0, n) — convenience for container sampling.
  std::size_t index(std::size_t n);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Samples k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Weighted index selection proportional to non-negative `weights`.
  /// Requires at least one strictly positive weight.
  std::size_t weighted_index(const std::vector<double>& weights);

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// Pareto(xm, alpha) truncated at `cap`. Solving xm for a requested mean
/// takes a 60-step bisection when alpha <= 1, so it is done once per
/// distribution here and each draw is one Rng::pareto call.
struct CappedPareto {
  double xm = 1.0;
  double alpha = 1.0;
  double cap = 20.0;

  /// The sampler with mean `mean`. For alpha <= 1 the theoretical mean
  /// diverges, so the sample is truncated at `cap_multiple * mean` and xm is
  /// chosen so the truncated mean matches.
  static CappedPareto with_mean(double mean, double alpha,
                                double cap_multiple = 20.0);

  /// min(rng.pareto(xm, alpha), cap).
  double operator()(Rng& rng) const;
};

}  // namespace cloudfog::util
