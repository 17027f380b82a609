#ifndef SQP_UTIL_MATH_UTIL_H_
#define SQP_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace sqp {

/// Shannon entropy of a discrete distribution in **log base 10**, following
/// the paper ("log base 10 is adopted through the paper"). Zero-probability
/// entries contribute 0. `probs` need not be normalized; it is normalized
/// internally. Returns 0 for empty/degenerate input.
double EntropyLog10(std::span<const double> probs);

/// KL divergence D_KL(p || q) in log base 10. Both inputs are normalized
/// internally. Entries where p_i > 0 but q_i == 0 are handled by flooring q_i
/// at `epsilon_floor` (the PST construction applies its own smoothing before
/// calling this, so the floor is a safety net only).
double KlDivergenceLog10(std::span<const double> p, std::span<const double> q,
                         double epsilon_floor = 1e-12);

/// Normalizes `values` in place to sum to 1. No-op if the sum is <= 0.
void NormalizeInPlace(std::vector<double>* values);

/// Maximum-likelihood estimate of a discrete power-law exponent alpha for
/// samples x >= x_min (Clauset et al. continuous approximation,
/// alpha = 1 + n / sum ln(x_i / (x_min - 0.5))). Counts are supplied as
/// (value, multiplicity) pairs. Returns 0 if there is not enough data.
double EstimatePowerLawAlpha(
    const std::vector<std::pair<double, double>>& value_and_count,
    double x_min);

}  // namespace sqp

#endif  // SQP_UTIL_MATH_UTIL_H_
