// Algorithm 3 of the paper: the Update subroutine.
//
// Given the neighbors' current surviving numbers b_i and the incident edge
// weights w_i, Update returns the maximum real b such that
//     sum_{i : b_i >= b} w_i >= b,
// together with an auxiliary subset N ⊆ {i : b_i >= b} satisfying the
// invariant sum_{i in N} w_i <= b (Definition III.7). N is the in-neighbor
// set for the min-max edge orientation.
//
// Tie-breaking (crucial for Lemma III.11): equal b_i are ordered by the
// lexicographic order of the surviving numbers from all past iterations,
// most recent first, with node identity as the final consistent
// tie-breaker. The paper notes this is equivalent to keeping a persistent
// ordering of the neighbors and STABLE-sorting it by the current b_i each
// round — which is exactly what this implementation does: the caller owns
// `order` (initialized to the identity / id order) and passes it back
// every round; UpdateStep stable-sorts it in place.
//
// UpdateStep allocates nothing on the orders compact elimination carries
// between rounds: N is returned as a range of `order`, weights come
// through a caller-supplied accessor (no weight vector is built), and the
// stable sort is an insertion sort while its move budget lasts (see
// StableSortByValue).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

#include "util/logging.h"

namespace kcore::core {

struct UpdateResult {
  // The new surviving number.
  double b = 0.0;
  // The auxiliary subset N is order[n_begin, d) after the call: the
  // neighbor indices (into the caller's values) in ascending sorted
  // position, largest b_i last. d == 0 yields n_begin = 0 (N = {}).
  std::size_t n_begin = 0;
};

// Stable-sorts `order` (neighbor indices) by values ascending, in place:
// exactly the permutation std::stable_sort yields, bit for bit. It runs an
// insertion sort while a budget of 4d element moves lasts — O(d) on the
// nearly sorted orders carried between rounds, since surviving numbers
// only decrease — and hands the rest to std::stable_sort once the budget
// is spent (O(d log d) at worst, e.g. dynamic maintenance, which starts
// every call from the identity order; that fallback may allocate).
void StableSortByValue(std::span<const double> values,
                       std::span<std::uint32_t> order);

// values[i]: neighbor i's surviving number; weight_at(i): the weight of
// the edge to neighbor i (any callable std::size_t -> double, e.g. a
// lambda reading AdjEntry::w). order: permutation of [0, d) persisted
// across rounds by the caller; stable-sorted in place by values
// ascending. d == 0 yields b = 0, N = {}.
template <class WeightAt>
UpdateResult UpdateStep(std::span<const double> values, WeightAt&& weight_at,
                        std::span<std::uint32_t> order) {
  const std::size_t d = values.size();
  KCORE_CHECK(order.size() == d);
  UpdateResult out;
  if (d == 0) return out;  // b = 0, N = {}

  // Stable sort by current values: ties keep the order induced by all past
  // rounds (most recent first), bottoming out at the caller's initial
  // id-order — the paper's tie-breaking rule.
  StableSortByValue(values, order);

  // Scan thresholds from the largest down (Algorithm 3). With sorted
  // b_1 <= ... <= b_d and suffix sum s_i = sum_{j >= i} w_j, the first
  // (largest) i with s_i > b_{i-1} yields b = min(b_i, s_i):
  //  * if s_i > b_i: b = b_i and N = {i+1..d} (then sum_N w = s_{i+1}
  //    <= b_i because the scan did not stop at i+1);
  //  * else b = s_i and N = {i..d} (sum_N w = s_i = b exactly).
  double s = 0.0;
  for (std::size_t i = d; i-- > 0;) {
    s += weight_at(static_cast<std::size_t>(order[i]));
    const double prev =
        i > 0 ? values[order[i - 1]] : -std::numeric_limits<double>::infinity();
    if (s > prev) {
      const double bi = values[order[i]];
      if (s <= bi) {
        out.b = s;
        out.n_begin = i;
      } else {
        out.b = bi;
        out.n_begin = i + 1;
      }
      return out;
    }
  }
  // Unreachable: the loop always stops at i == 0 (prev = -inf, s >= 0).
  KCORE_CHECK_MSG(false, "UpdateStep scan fell through");
  return out;
}

// Reference brute-force for tests: the maximum b such that
// sum_{i: values[i] >= b} weights[i] >= b (no auxiliary subset). The
// supremum is always attained either at some values[i] or at a suffix sum.
double UpdateValueBruteForce(std::span<const double> values,
                             std::span<const double> weights);

// Rounds x down to the next power of (1 + lambda) (Lambda-discretization
// of Algorithm 2). lambda == 0 or x in {0, +inf} returns x unchanged.
double RoundDownToPower(double x, double lambda);

}  // namespace kcore::core
