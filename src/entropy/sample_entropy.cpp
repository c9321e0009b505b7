#include "entropy/sample_entropy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"

namespace esl::entropy {

namespace {

/// Chebyshev distance between templates x[i..i+m) and x[j..j+m).
bool templates_match(std::span<const Real> x, std::size_t i, std::size_t j,
                     std::size_t m, Real r) {
  for (std::size_t k = 0; k < m; ++k) {
    if (std::abs(x[i + k] - x[j + k]) > r) {
      return false;
    }
  }
  return true;
}

/// Template matches of length m (B) and m + 1 (A) at one tolerance.
struct MatchCounts {
  std::size_t m = 0;
  std::size_t m1 = 0;
};

/// Counts the matches at tolerances r_a and r_b in one pass over the
/// template pairs. Templates of length m+1 start at 0 .. n-m-1 (count
/// n-m); both A and B are restricted to that common index range, per the
/// original definition. Each comparison is the one a single-tolerance
/// count makes, so both counts equal it.
void count_matches(std::span<const Real> x, std::size_t m, Real r_a,
                   Real r_b, MatchCounts& a, MatchCounts& b) {
  const std::size_t count = x.size() - m;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j) {
      bool match_a = true;
      bool match_b = true;
      for (std::size_t k = 0; k < m && (match_a || match_b); ++k) {
        const Real distance = std::abs(x[i + k] - x[j + k]);
        match_a = match_a && !(distance > r_a);
        match_b = match_b && !(distance > r_b);
      }
      const Real last = std::abs(x[i + m] - x[j + m]);
      if (match_a) {
        ++a.m;
        a.m1 += last <= r_a ? 1 : 0;
      }
      if (match_b) {
        ++b.m;
        b.m1 += last <= r_b ? 1 : 0;
      }
    }
  }
}

/// Sample entropy of a signal of n samples from its match counts.
Real from_counts(std::size_t n, std::size_t m, const MatchCounts& counts) {
  if (counts.m == 0) {
    return 0.0;
  }
  if (counts.m1 == 0) {
    // Richman-Moorman convention: the largest value that could have been
    // resolved with this record length.
    const Real nm = static_cast<Real>(n - m);
    return std::log(nm * (nm - 1.0)) - std::log(2.0);
  }
  return -std::log(static_cast<Real>(counts.m1) /
                   static_cast<Real>(counts.m));
}

}  // namespace

Real sample_entropy(std::span<const Real> signal, std::size_t m, Real r) {
  expects(m >= 1, "sample_entropy: m must be >= 1");
  expects(r >= 0.0, "sample_entropy: tolerance must be non-negative");
  if (signal.size() < m + 2) {
    return 0.0;
  }
  MatchCounts counts;
  MatchCounts unused;
  count_matches(signal, m, r, r, counts, unused);
  return from_counts(signal.size(), m, counts);
}

Real sample_entropy_relative(std::span<const Real> signal, std::size_t m,
                             Real k) {
  return sample_entropy_relative_pair(signal, m, k, k).first;
}

std::pair<Real, Real> sample_entropy_relative_pair(std::span<const Real> signal,
                                                   std::size_t m, Real k_a,
                                                   Real k_b) {
  expects(k_a > 0.0 && k_b > 0.0,
          "sample_entropy_relative: k must be positive");
  if (signal.size() < m + 2) {
    return {0.0, 0.0};
  }
  const Real sigma = stats::stddev(signal);
  if (sigma <= 0.0) {
    return {0.0, 0.0};  // constant signal: perfectly regular
  }
  expects(m >= 1, "sample_entropy: m must be >= 1");
  expects(k_a * sigma >= 0.0 && k_b * sigma >= 0.0,
          "sample_entropy: tolerance must be non-negative");
  MatchCounts a;
  MatchCounts b;
  count_matches(signal, m, k_a * sigma, k_b * sigma, a, b);
  return {from_counts(signal.size(), m, a), from_counts(signal.size(), m, b)};
}

Real approximate_entropy(std::span<const Real> signal, std::size_t m, Real r) {
  expects(m >= 1, "approximate_entropy: m must be >= 1");
  expects(r >= 0.0, "approximate_entropy: tolerance must be non-negative");
  const std::size_t n = signal.size();
  if (n < m + 2) {
    return 0.0;
  }
  const auto phi = [&](std::size_t length) {
    const std::size_t count = n - length + 1;
    Real sum_log = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      std::size_t matches = 0;  // includes the self-match i == j
      for (std::size_t j = 0; j < count; ++j) {
        if (templates_match(signal, i, j, length, r)) {
          ++matches;
        }
      }
      sum_log += std::log(static_cast<Real>(matches) / static_cast<Real>(count));
    }
    return sum_log / static_cast<Real>(count);
  };
  return phi(m) - phi(m + 1);
}

Real approximate_entropy_relative(std::span<const Real> signal, std::size_t m,
                                  Real k) {
  expects(k > 0.0, "approximate_entropy_relative: k must be positive");
  if (signal.size() < m + 2) {
    return 0.0;
  }
  const Real sigma = stats::stddev(signal);
  if (sigma <= 0.0) {
    return 0.0;
  }
  return approximate_entropy(signal, m, k * sigma);
}

}  // namespace esl::entropy
