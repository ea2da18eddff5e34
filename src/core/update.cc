#include "core/update.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/logging.h"

namespace kcore::core {

void StableSortByValue(std::span<const double> values,
                       std::span<std::uint32_t> order) {
  const std::size_t d = order.size();
  std::size_t budget = 4 * d;  // element moves
  for (std::size_t i = 1; i < d; ++i) {
    const std::uint32_t x = order[i];
    const double xv = values[x];
    std::size_t j = i;
    // Strict < keeps equal values in their incoming order: stable.
    while (j > 0 && xv < values[order[j - 1]]) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = x;
    if (i - j > budget) {
      // Budget spent. order[0..i] is stably sorted and the rest is
      // untouched, so equal values still sit in their incoming relative
      // order — std::stable_sort over the whole range therefore yields
      // the very permutation it would have produced from the input.
      std::stable_sort(order.begin(), order.end(),
                       [&](std::uint32_t a, std::uint32_t b) {
                         return values[a] < values[b];
                       });
      return;
    }
    budget -= i - j;
  }
}

double UpdateValueBruteForce(std::span<const double> values,
                             std::span<const double> weights) {
  KCORE_CHECK(values.size() == weights.size());
  // Candidate thresholds: each values[i], plus each suffix-sum of weights
  // of {j : values[j] >= values[i]} (and the full sum). Evaluate
  // f(b) = sum_{values[i] >= b} weights[i] and keep the best b <= f(b).
  std::vector<double> candidates;
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    candidates.push_back(values[i]);
    total += weights[i];
  }
  candidates.push_back(total);
  for (double v : values) {
    double s = 0.0;
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[j] >= v) s += weights[j];
    }
    candidates.push_back(s);
  }
  double best = 0.0;
  for (double b : candidates) {
    if (b < 0.0) continue;
    double s = 0.0;
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[j] >= b) s += weights[j];
    }
    if (s >= b) best = std::max(best, b);
  }
  return best;
}

double RoundDownToPower(double x, double lambda) {
  if (lambda <= 0.0 || x <= 0.0 || std::isinf(x)) return x;
  // The returned value must be a CANONICAL function of the integer
  // exponent k: Fact III.9 (the discretized process computes exactly
  // round_Lambda(beta^T)) relies on "round(x) >= b iff x >= b" for b in
  // Lambda, which breaks if two inputs in the same Lambda-cell map to
  // powers differing in the last ulp. Hence: derive k, correct k (not the
  // power) under floating-point drift, and always materialize the power
  // through the same std::pow call.
  const double log_base = std::log1p(lambda);
  const double base = 1.0 + lambda;
  double k = std::floor(std::log(x) / log_base);
  const auto power = [&](double kk) { return std::pow(base, kk); };
  while (power(k) > x) k -= 1.0;
  while (power(k + 1.0) <= x) k += 1.0;
  return power(k);
}

}  // namespace kcore::core
