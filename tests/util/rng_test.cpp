#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

namespace cloudfog::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent(7);
  Rng c1 = parent.fork("alpha");
  Rng c2 = Rng(7).fork("alpha");
  for (int i = 0; i < 50; ++i) EXPECT_EQ(c1(), c2());
}

TEST(Rng, ForkLabelsIndependent) {
  Rng parent(7);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(9), b(9);
  (void)a.fork("x");
  (void)a.fork("y");
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10'000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(3);
  double total = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) total += rng.uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 1'000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversFullRange) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(rng.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 9);
}

TEST(Rng, UniformIntSingletonRange) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(7, 7), 7);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(6);
  for (int i = 0; i < 1'000; ++i) {
    const auto v = rng.uniform_int(-5, -1);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, -1);
  }
}

/// The rejection loop uniform_int used before it skipped the threshold
/// division for draws >= span, kept verbatim as the oracle (only the span
/// and the result are formed in unsigned arithmetic, which wraps where the
/// signed form overflowed for spans beyond 2^63).
std::int64_t reference_uniform_int(Rng& rng, std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(rng());  // full range
  const std::uint64_t threshold = (~span + 1) % span;
  std::uint64_t r;
  do {
    r = rng();
  } while (r < threshold);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + r % span);
}

TEST(Rng, UniformIntMatchesReferenceRejectionLoop) {
  // Spans chosen to hit every branch: the trivial span 1, small spans, the
  // social graph's stub counts, spans just past 2^32, 2^63 (threshold 0)
  // and 2^64 - 1 (threshold 1, so draws below span are common).
  std::vector<std::uint64_t> spans = {1,           2,
                                      3,           5,
                                      40'000,      765'556,
                                      (1ull << 32) + 1, 1ull << 63,
                                      ~std::uint64_t{0}};
  Rng span_rng(99);
  for (int i = 0; i < 16; ++i) spans.push_back(span_rng() >> (span_rng() % 64));
  for (std::uint64_t& span : spans) span = std::max<std::uint64_t>(span, 1);

  constexpr int kDraws = 1'000'000;
  const int per_span = kDraws / static_cast<int>(spans.size());
  Rng fast(7), reference(7);
  for (std::uint64_t span : spans) {
    // [lo, lo + span - 1] with lo chosen so the bound stays representable.
    const std::int64_t lo =
        span > (1ull << 62) ? std::numeric_limits<std::int64_t>::min() : -3;
    const std::int64_t hi = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(lo) + (span - 1));
    for (int i = 0; i < per_span; ++i) {
      ASSERT_EQ(fast.uniform_int(lo, hi), reference_uniform_int(reference, lo, hi))
          << "span " << span << " draw " << i;
    }
    ASSERT_EQ(fast(), reference()) << "generator state diverged at span " << span;
  }
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(6);
  EXPECT_THROW(rng.uniform_int(3, 2), std::logic_error);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  const int n = 200'000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(2.0, 3.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.2);
}

TEST(Rng, LognormalMedian) {
  Rng rng(12);
  std::vector<double> samples;
  for (int i = 0; i < 50'001; ++i) samples.push_back(rng.lognormal(1.0, 0.5));
  std::nth_element(samples.begin(), samples.begin() + 25'000, samples.end());
  EXPECT_NEAR(samples[25'000], std::exp(1.0), 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double total = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) total += rng.exponential(0.25);
  EXPECT_NEAR(total / n, 4.0, 0.1);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(13);
  EXPECT_THROW(rng.exponential(0.0), std::logic_error);
  EXPECT_THROW(rng.exponential(-1.0), std::logic_error);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(14);
  double total = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(total / n, 3.5, 0.05);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(15);
  double total = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(total / n, 200.0, 1.0);
}

TEST(Rng, PoissonZeroMean) {
  Rng rng(15);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, ParetoAboveScale) {
  Rng rng(16);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ParetoMeanWithFiniteFirstMoment) {
  Rng rng(16);
  // alpha = 3: mean = xm * alpha / (alpha - 1) = 1.5 * xm.
  double total = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) total += rng.pareto(2.0, 3.0);
  EXPECT_NEAR(total / n, 3.0, 0.05);
}

TEST(Rng, ParetoWithMeanAlphaOneMatchesTarget) {
  // The paper's node-capacity distribution: Pareto(mean 5, alpha 1),
  // truncated. The truncated sample mean must track the requested mean.
  Rng rng(17);
  double total = 0.0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) total += rng.pareto_with_mean(5.0, 1.0);
  EXPECT_NEAR(total / n, 5.0, 0.25);
}

TEST(Rng, ParetoWithMeanRespectsCap) {
  Rng rng(17);
  for (int i = 0; i < 10'000; ++i)
    EXPECT_LE(rng.pareto_with_mean(5.0, 1.0, 20.0), 100.0);
}

TEST(Rng, ParetoWithMeanHighAlpha) {
  Rng rng(18);
  double total = 0.0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) total += rng.pareto_with_mean(10.0, 3.0);
  EXPECT_NEAR(total / n, 10.0, 0.3);
}

TEST(Rng, ZipfWithinRange) {
  Rng rng(19);
  for (int i = 0; i < 10'000; ++i) {
    const auto k = rng.zipf(50, 1.2);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 50u);
  }
}

TEST(Rng, ZipfRankOneMostFrequent) {
  Rng rng(19);
  std::vector<int> counts(11, 0);
  for (int i = 0; i < 50'000; ++i) ++counts[rng.zipf(10, 1.0)];
  for (std::size_t k = 2; k <= 10; ++k) EXPECT_GT(counts[1], counts[k]);
}

TEST(Rng, ZipfSingleton) {
  Rng rng(19);
  EXPECT_EQ(rng.zipf(1, 1.0), 1u);
}

TEST(Rng, PowerLawBounds) {
  Rng rng(20);
  for (int i = 0; i < 10'000; ++i) {
    const auto k = rng.power_law(1, 50, 0.5);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 50u);
  }
}

TEST(Rng, PowerLawSkewFavorsSmallDegrees) {
  Rng rng(20);
  int small = 0, large = 0;
  for (int i = 0; i < 20'000; ++i) {
    const auto k = rng.power_law(1, 50, 2.5);
    if (k <= 5) ++small;
    if (k >= 45) ++large;
  }
  EXPECT_GT(small, 10 * large);
}

TEST(Rng, PowerLawDegenerateRange) {
  Rng rng(20);
  EXPECT_EQ(rng.power_law(4, 4, 0.5), 4u);
}

TEST(Rng, IndexWithinBounds) {
  Rng rng(21);
  for (int i = 0; i < 1'000; ++i) EXPECT_LT(rng.index(17), 17u);
}

TEST(Rng, IndexRejectsEmptyRange) {
  Rng rng(21);
  EXPECT_THROW(rng.index(0), std::logic_error);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng rng(22);
  const auto sample = rng.sample_indices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesFullPopulation) {
  Rng rng(22);
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleIndicesRejectsOversample) {
  Rng rng(22);
  EXPECT_THROW(rng.sample_indices(5, 6), std::logic_error);
}

TEST(Rng, WeightedIndexProportions) {
  Rng rng(23);
  std::vector<double> weights{1.0, 3.0};
  int ones = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i)
    if (rng.weighted_index(weights) == 1) ++ones;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.75, 0.01);
}

TEST(Rng, WeightedIndexSkipsZeroWeights) {
  Rng rng(23);
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_index(weights), 1u);
}

TEST(Rng, WeightedIndexRejectsAllZero) {
  Rng rng(23);
  std::vector<double> weights{0.0, 0.0};
  EXPECT_THROW(rng.weighted_index(weights), std::logic_error);
}

TEST(Rng, WeightedIndexRejectsNegative) {
  Rng rng(23);
  std::vector<double> weights{1.0, -0.5};
  EXPECT_THROW(rng.weighted_index(weights), std::logic_error);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(24);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, HashLabelStable) {
  EXPECT_EQ(hash_label("cloudfog"), hash_label("cloudfog"));
  EXPECT_NE(hash_label("cloudfog"), hash_label("cloudfoh"));
  EXPECT_NE(hash_label(""), hash_label("a"));
}

TEST(Rng, Splitmix64Advances) {
  std::uint64_t s = 1;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace cloudfog::util
