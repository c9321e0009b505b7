#include "entropy/sample_entropy.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/statistics.hpp"

namespace esl::entropy {
namespace {

RealVector random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector v(n);
  for (auto& x : v) {
    x = rng.normal();
  }
  return v;
}

RealVector sine(std::size_t n, Real period) {
  constexpr Real pi = std::numbers::pi_v<Real>;
  RealVector v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(2.0 * pi * static_cast<Real>(i) / period);
  }
  return v;
}

TEST(SampleEntropy, RegularSignalLowerThanNoise) {
  const RealVector regular = sine(300, 25.0);
  const RealVector noise = random_signal(300, 1);
  const Real h_regular = sample_entropy_relative(regular, 2, 0.2);
  const Real h_noise = sample_entropy_relative(noise, 2, 0.2);
  EXPECT_LT(h_regular, h_noise);
}

TEST(SampleEntropy, ConstantSignalIsZero) {
  const RealVector c(100, 2.0);
  EXPECT_DOUBLE_EQ(sample_entropy_relative(c, 2, 0.2), 0.0);
}

TEST(SampleEntropy, PeriodicSignalNearZero) {
  // A strictly periodic signal has almost every m-match extend to m+1.
  const RealVector x = sine(400, 20.0);
  EXPECT_LT(sample_entropy_relative(x, 2, 0.2), 0.3);
}

TEST(SampleEntropy, IncreasesWithTighterTolerance) {
  const RealVector x = random_signal(400, 2);
  const Real loose = sample_entropy_relative(x, 2, 0.5);
  const Real tight = sample_entropy_relative(x, 2, 0.15);
  EXPECT_GE(tight, loose);
}

TEST(SampleEntropy, PaperTolerancesOrdered) {
  // k = 0.2 is stricter than k = 0.35 -> entropy at least as large.
  const RealVector x = random_signal(200, 3);
  EXPECT_GE(sample_entropy_relative(x, 2, 0.2),
            sample_entropy_relative(x, 2, 0.35));
}

TEST(SampleEntropy, WhiteNoiseMatchesTheoryRoughly) {
  // For iid Gaussian noise with r = 0.2 sigma, SampEn(2) is ~2.2-3.0.
  const RealVector x = random_signal(2000, 4);
  const Real h = sample_entropy_relative(x, 2, 0.2);
  EXPECT_GT(h, 1.5);
  EXPECT_LT(h, 4.0);
}

TEST(SampleEntropy, ShortSignalConventionIsZero) {
  const RealVector tiny = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(sample_entropy(tiny, 2, 0.1), 0.0);
}

TEST(SampleEntropy, TinyDwtLevelProducesFiniteValue) {
  // Level 6 of a 1024-sample window has 16 coefficients (paper setup).
  const RealVector level6 = random_signal(16, 5);
  const Real h02 = sample_entropy_relative(level6, 2, 0.2);
  const Real h035 = sample_entropy_relative(level6, 2, 0.35);
  EXPECT_TRUE(std::isfinite(h02));
  EXPECT_TRUE(std::isfinite(h035));
  EXPECT_GE(h02, 0.0);
}

TEST(SampleEntropy, NoMatchesReturnsRichmanMoormanBound) {
  // A steep ramp with tiny tolerance: B > 0 requires matches; with r
  // huge at m but no extension... construct: pairs equal at length m
  // but never at m+1.
  const RealVector x = {0.0, 0.0, 10.0, 0.0, 0.0, 20.0, 0.0, 0.0, 30.0};
  const Real h = sample_entropy(x, 2, 0.5);
  const Real n_m = static_cast<Real>(x.size() - 2);
  EXPECT_NEAR(h, std::log(n_m * (n_m - 1.0)) - std::log(2.0), 1e-9);
}

TEST(SampleEntropy, RejectsBadParameters) {
  const RealVector x = random_signal(50, 6);
  EXPECT_THROW(sample_entropy(x, 0, 0.1), InvalidArgument);
  EXPECT_THROW(sample_entropy(x, 2, -0.1), InvalidArgument);
  EXPECT_THROW(sample_entropy_relative(x, 2, 0.0), InvalidArgument);
}

/// Richman-Moorman sample entropy counted the direct way, one tolerance
/// and one template comparison at a time.
Real reference_sample_entropy(const RealVector& x, std::size_t m, Real r) {
  const std::size_t count = x.size() - m;
  std::size_t b = 0;
  std::size_t a = 0;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j) {
      bool match = true;
      for (std::size_t k = 0; k < m; ++k) {
        match = match && std::abs(x[i + k] - x[j + k]) <= r;
      }
      if (match) {
        ++b;
        a += std::abs(x[i + m] - x[j + m]) <= r ? 1 : 0;
      }
    }
  }
  if (b == 0) {
    return 0.0;
  }
  if (a == 0) {
    const Real nm = static_cast<Real>(x.size() - m);
    return std::log(nm * (nm - 1.0)) - std::log(2.0);
  }
  return -std::log(static_cast<Real>(a) / static_cast<Real>(b));
}

TEST(SampleEntropy, PairEqualsTwoSeparateCallsBitForBit) {
  RealVector tied = random_signal(200, 12);
  for (auto& v : tied) {
    v = std::round(2.0 * v) / 2.0;  // few distinct levels: distances tie r
  }
  RealVector steps(120);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    steps[i] = static_cast<Real>(i % 3);
  }
  const std::vector<RealVector> signals = {
      random_signal(16, 11),  random_signal(300, 13), tied, steps,
      RealVector(64, 1.5),    sine(128, 9.0),         {1.0, 2.0, 3.0}};
  const std::pair<Real, Real> tolerances[] = {{0.2, 0.35}, {0.35, 0.2},
                                              {0.5, 0.5},  {0.1, 2.0}};
  for (std::size_t s = 0; s < signals.size(); ++s) {
    for (const auto& [k_a, k_b] : tolerances) {
      for (const std::size_t m : {1u, 2u, 3u}) {
        const auto [a, b] =
            sample_entropy_relative_pair(signals[s], m, k_a, k_b);
        const Real separate_a = sample_entropy_relative(signals[s], m, k_a);
        const Real separate_b = sample_entropy_relative(signals[s], m, k_b);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a),
                  std::bit_cast<std::uint64_t>(separate_a))
            << "signal " << s << " m " << m << " k " << k_a;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(b),
                  std::bit_cast<std::uint64_t>(separate_b))
            << "signal " << s << " m " << m << " k " << k_b;
        if (signals[s].size() >= m + 2 && stats::stddev(signals[s]) > 0.0) {
          const Real sigma = stats::stddev(signals[s]);
          EXPECT_EQ(a, reference_sample_entropy(signals[s], m, k_a * sigma));
          EXPECT_EQ(b, reference_sample_entropy(signals[s], m, k_b * sigma));
        } else {
          EXPECT_EQ(a, 0.0);
          EXPECT_EQ(b, 0.0);
        }
      }
    }
  }
  EXPECT_THROW(sample_entropy_relative_pair(signals[1], 2, 0.2, 0.0),
               InvalidArgument);
}

TEST(ApproximateEntropy, RegularBelowNoise) {
  const RealVector regular = sine(300, 25.0);
  const RealVector noise = random_signal(300, 7);
  EXPECT_LT(approximate_entropy_relative(regular, 2, 0.2),
            approximate_entropy_relative(noise, 2, 0.2));
}

TEST(ApproximateEntropy, ConstantIsZero) {
  const RealVector c(64, 1.0);
  EXPECT_DOUBLE_EQ(approximate_entropy_relative(c, 2, 0.2), 0.0);
}

TEST(ApproximateEntropy, NonNegativeForTypicalSignals) {
  const RealVector x = random_signal(300, 8);
  EXPECT_GE(approximate_entropy_relative(x, 2, 0.2), 0.0);
}

TEST(ApproximateEntropy, TracksSampleEntropyOrdering) {
  // Both measures must order {regular, mixed, random} identically.
  const RealVector regular = sine(256, 16.0);
  RealVector mixed = sine(256, 16.0);
  Rng rng(9);
  for (auto& v : mixed) {
    v += 0.3 * rng.normal();
  }
  const RealVector noise = random_signal(256, 10);
  const Real s1 = sample_entropy_relative(regular, 2, 0.2);
  const Real s2 = sample_entropy_relative(mixed, 2, 0.2);
  const Real s3 = sample_entropy_relative(noise, 2, 0.2);
  const Real a1 = approximate_entropy_relative(regular, 2, 0.2);
  const Real a2 = approximate_entropy_relative(mixed, 2, 0.2);
  const Real a3 = approximate_entropy_relative(noise, 2, 0.2);
  EXPECT_LT(s1, s2);
  EXPECT_LT(s2, s3);
  // ApEn's self-match bias with relative tolerances makes the middle case
  // non-monotonic; only the pure-regular signal is reliably lowest.
  EXPECT_LT(a1, a2);
  EXPECT_LT(a1, a3);
}

TEST(ApproximateEntropy, ShortSignalConventionIsZero) {
  const RealVector tiny = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(approximate_entropy(tiny, 2, 0.1), 0.0);
}

}  // namespace
}  // namespace esl::entropy
