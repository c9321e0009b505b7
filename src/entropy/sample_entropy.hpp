// Sample entropy (Richman & Moorman) and approximate entropy (Pincus).
//
// The paper's feature set uses the sample entropy of the sixth DWT detail
// level with tolerance r = k * sigma for k = 0.2 and k = 0.35 (§III-A,
// following Chen et al. [27]).
#pragma once

#include <span>
#include <utility>

#include "common/types.hpp"

namespace esl::entropy {

/// Sample entropy with template length `m` and absolute tolerance `r`
/// (Chebyshev distance, self-matches excluded).
///
/// Degenerate cases are made total so feature extraction never throws on
/// short DWT levels:
///  * fewer than m+2 samples               -> 0
///  * no template matches at length m (B=0) -> 0 (no structure measurable)
///  * no matches at length m+1 (A=0)        -> the Richman-Moorman upper
///    bound log((N-m-1)(N-m)) - log(2).
Real sample_entropy(std::span<const Real> signal, std::size_t m, Real r);

/// Sample entropy with relative tolerance r = k * stddev(signal).
Real sample_entropy_relative(std::span<const Real> signal, std::size_t m,
                             Real k);

/// Sample entropies at two relative tolerances k_a and k_b, from one
/// stddev and one pass over the template pairs. Bit-identical to
/// {sample_entropy_relative(signal, m, k_a),
///  sample_entropy_relative(signal, m, k_b)}.
std::pair<Real, Real> sample_entropy_relative_pair(std::span<const Real> signal,
                                                   std::size_t m, Real k_a,
                                                   Real k_b);

/// Approximate entropy (self-matches included), template length `m`,
/// absolute tolerance `r`. Returns 0 for signals shorter than m+2 samples.
Real approximate_entropy(std::span<const Real> signal, std::size_t m, Real r);

/// Approximate entropy with relative tolerance r = k * stddev(signal).
Real approximate_entropy_relative(std::span<const Real> signal, std::size_t m,
                                  Real k);

}  // namespace esl::entropy
