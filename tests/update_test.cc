#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/update.h"
#include "util/rng.h"

namespace kcore::core {
namespace {

std::vector<std::uint32_t> Identity(std::size_t d) {
  std::vector<std::uint32_t> order(d);
  std::iota(order.begin(), order.end(), 0u);
  return order;
}

// b plus N materialized as a vector (indices in ascending sorted
// position), the shape both the tests below and the reference compare.
struct Outcome {
  double b = 0.0;
  std::vector<std::uint32_t> chosen;
};

// UpdateStep over a plain weight vector.
Outcome Update(std::span<const double> values,
               const std::vector<double>& weights,
               std::span<std::uint32_t> order) {
  const UpdateResult r =
      UpdateStep(values, [&](std::size_t i) { return weights[i]; }, order);
  const auto n_begin = static_cast<std::ptrdiff_t>(r.n_begin);
  return Outcome{r.b, std::vector<std::uint32_t>(order.begin() + n_begin,
                                                 order.end())};
}

// The reference implementation: std::stable_sort (which allocates its
// merge buffer), then Algorithm 3's scan, N copied out into a vector.
Outcome ReferenceUpdate(std::span<const double> values,
                        std::span<const double> weights,
                        std::span<std::uint32_t> order) {
  const std::size_t d = values.size();
  Outcome out;
  if (d == 0) return out;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return values[a] < values[b];
                   });
  double s = 0.0;
  for (std::size_t i = d; i-- > 0;) {
    s += weights[order[i]];
    const double prev =
        i > 0 ? values[order[i - 1]] : -std::numeric_limits<double>::infinity();
    if (s > prev) {
      const double bi = values[order[i]];
      if (s <= bi) {
        out.b = s;
        out.chosen.assign(order.begin() + static_cast<std::ptrdiff_t>(i),
                          order.end());
      } else {
        out.b = bi;
        out.chosen.assign(order.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                          order.end());
      }
      return out;
    }
  }
  ADD_FAILURE() << "reference scan fell through";
  return out;
}

std::uint64_t Bits(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// One call of each on its own copy of `order`; both copies must end
// identical, with identical b bits and identical N. Leaves the shared
// order advanced, so callers can carry it across rounds.
void ExpectMatchesReference(const std::vector<double>& values,
                            const std::vector<double>& weights,
                            std::vector<std::uint32_t>& order) {
  auto ref_order = order;
  const Outcome want = ReferenceUpdate(values, weights, ref_order);
  const Outcome got = Update(values, weights, order);
  ASSERT_EQ(Bits(got.b), Bits(want.b)) << got.b << " vs " << want.b;
  ASSERT_EQ(order, ref_order);
  ASSERT_EQ(got.chosen, want.chosen);
}

TEST(UpdateStep, EmptyInput) {
  std::vector<std::uint32_t> order;
  const UpdateResult r = UpdateStep(
      std::span<const double>{}, [](std::size_t) { return 1.0; }, order);
  EXPECT_DOUBLE_EQ(r.b, 0.0);
  EXPECT_EQ(r.n_begin, 0u);
}

TEST(UpdateStep, SingleNeighbor) {
  // One neighbor with value 5, weight 2: the best b with
  // sum_{b_i >= b} w_i >= b is b = 2 (s <= b_1 case).
  std::vector<double> values{5.0};
  std::vector<double> weights{2.0};
  auto order = Identity(1);
  const Outcome r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 2.0);
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], 0u);
}

TEST(UpdateStep, SingleNeighborValueCaps) {
  // Value 1.5, weight 10: b capped by the neighbor's value.
  std::vector<double> values{1.5};
  std::vector<double> weights{10.0};
  auto order = Identity(1);
  const Outcome r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 1.5);
  // N must satisfy sum_{N} w <= b: the neighbor (weight 10) cannot be in.
  EXPECT_TRUE(r.chosen.empty());
}

TEST(UpdateStep, AllInfiniteValuesGiveDegree) {
  // Round 1 of the compact procedure: all neighbors broadcast +inf, so
  // b becomes the weighted degree and N contains everyone.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values{inf, inf, inf};
  std::vector<double> weights{1.0, 2.0, 3.0};
  auto order = Identity(3);
  const Outcome r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 6.0);
  EXPECT_EQ(r.chosen.size(), 3u);
}

TEST(UpdateStep, PaperStyleExample) {
  // values 1,2,3 weights 1 each: f(b)=|{i: b_i>=b}|. b=2: f=2>=2. b=3:
  // f=1 < 3. So max b = 2; N = {indices with value >= 2} trimmed to
  // sum <= 2 -> both (weights 1+1 = 2 <= 2).
  std::vector<double> values{1.0, 2.0, 3.0};
  std::vector<double> weights{1.0, 1.0, 1.0};
  auto order = Identity(3);
  const Outcome r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 2.0);
  std::vector<std::uint32_t> chosen = r.chosen;
  std::sort(chosen.begin(), chosen.end());
  EXPECT_EQ(chosen, (std::vector<std::uint32_t>{1, 2}));
}

TEST(UpdateStep, InvariantSumAtMostB) {
  util::Rng rng(1);
  for (int it = 0; it < 500; ++it) {
    const std::size_t d = 1 + rng.NextBounded(12);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      values[i] = rng.NextDouble(0, 10);
      weights[i] = rng.NextDouble(0.1, 3);
    }
    auto order = Identity(d);
    const Outcome r = Update(values, weights, order);
    double sum = 0.0;
    for (std::uint32_t i : r.chosen) {
      sum += weights[i];
      // Every chosen neighbor must have value >= b.
      EXPECT_GE(values[i], r.b - 1e-12);
    }
    EXPECT_LE(sum, r.b + 1e-9) << "Definition III.7 first invariant";
  }
}

TEST(UpdateStep, MatchesBruteForceMaximum) {
  util::Rng rng(2);
  for (int it = 0; it < 500; ++it) {
    const std::size_t d = 1 + rng.NextBounded(10);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      // Use small integers so brute-force candidate enumeration is exact.
      values[i] = static_cast<double>(rng.NextBounded(8));
      weights[i] = static_cast<double>(1 + rng.NextBounded(4));
    }
    auto order = Identity(d);
    const Outcome r = Update(values, weights, order);
    const double brute = UpdateValueBruteForce(values, weights);
    EXPECT_NEAR(r.b, brute, 1e-9);
  }
}

TEST(UpdateStep, ResultSatisfiesFeasibility) {
  // f(b) = sum_{values >= b} w >= b must hold at the returned b, and fail
  // for slightly larger b (maximality).
  util::Rng rng(3);
  for (int it = 0; it < 300; ++it) {
    const std::size_t d = 1 + rng.NextBounded(10);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      values[i] = rng.NextDouble(0, 5);
      weights[i] = rng.NextDouble(0.1, 2);
    }
    auto order = Identity(d);
    const Outcome r = Update(values, weights, order);
    const auto f = [&](double b) {
      double s = 0.0;
      for (std::size_t i = 0; i < d; ++i) {
        if (values[i] >= b) s += weights[i];
      }
      return s;
    };
    EXPECT_GE(f(r.b), r.b - 1e-9);
    const double bump = r.b * 1e-6 + 1e-9;
    EXPECT_LT(f(r.b + bump), r.b + bump) << "b not maximal";
  }
}

TEST(UpdateStep, StableTieBreakPrefersEarlierOrder) {
  // Two neighbors with identical values: the persistent order decides who
  // enters N when only one fits.
  std::vector<double> values{2.0, 2.0};
  std::vector<double> weights{2.0, 2.0};
  auto order = Identity(2);
  const Outcome r = Update(values, weights, order);
  // b = 2 (f(2) = 4 >= 2); N keeps sum <= 2 -> exactly one neighbor, the
  // LAST in sorted order; stability keeps {0,1} order, so neighbor 1.
  EXPECT_DOUBLE_EQ(r.b, 2.0);
  ASSERT_EQ(r.chosen.size(), 1u);
  EXPECT_EQ(r.chosen[0], 1u);
}

TEST(UpdateStep, OrderPersistsAcrossCalls) {
  // After sorting by round-1 values, a tie in round 2 must preserve the
  // round-1 order (most-recent-first lexicographic rule).
  std::vector<double> v1{3.0, 1.0, 2.0};
  std::vector<double> w{1.0, 1.0, 1.0};
  auto order = Identity(3);
  (void)Update(v1, w, order);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0}));
  // Round 2: all equal -> stable sort keeps {1, 2, 0}.
  std::vector<double> v2{5.0, 5.0, 5.0};
  (void)Update(v2, w, order);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(UpdateStep, ZeroWeightsHandled) {
  std::vector<double> values{4.0, 4.0};
  std::vector<double> weights{0.0, 0.0};
  auto order = Identity(2);
  const Outcome r = Update(values, weights, order);
  EXPECT_DOUBLE_EQ(r.b, 0.0);
}

TEST(UpdateStep, MonotoneInValues) {
  // Raising any neighbor's value can only raise (or keep) b.
  util::Rng rng(4);
  for (int it = 0; it < 200; ++it) {
    const std::size_t d = 1 + rng.NextBounded(8);
    std::vector<double> values(d);
    std::vector<double> weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      values[i] = rng.NextDouble(0, 5);
      weights[i] = rng.NextDouble(0.1, 2);
    }
    auto o1 = Identity(d);
    const double b1 = Update(values, weights, o1).b;
    auto bumped = values;
    bumped[rng.NextBounded(d)] += rng.NextDouble(0, 3);
    auto o2 = Identity(d);
    const double b2 = Update(bumped, weights, o2).b;
    EXPECT_GE(b2, b1 - 1e-12);
  }
}

// --- Oracle battery: the allocation-free UpdateStep (insertion sort
// with a move budget, N as a range of `order`, weights through an
// accessor) against the stable_sort reference above. Every case demands
// identical b bits, an identical `order` permutation and identical N.

TEST(UpdateStepOracle, RandomInputsWithManyTies) {
  util::Rng rng(11);
  const double inf = std::numeric_limits<double>::infinity();
  for (int it = 0; it < 2000; ++it) {
    const std::size_t d = rng.NextBounded(it % 10 == 0 ? 600 : 40);
    std::vector<double> values(d), weights(d);
    for (std::size_t i = 0; i < d; ++i) {
      // A 5-letter alphabet (inf included): ties everywhere.
      const std::uint64_t k = rng.NextBounded(5);
      values[i] = k == 4 ? inf : static_cast<double>(k);
      weights[i] = static_cast<double>(1 + rng.NextBounded(3));
    }
    // Start from a random permutation, not just the identity.
    auto order = Identity(d);
    for (std::size_t i = d; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(values, weights, order));
  }
}

TEST(UpdateStepOracle, ReverseSortedHubExceedsMoveBudget) {
  // d = 10^4 strictly descending values: insertion sort would need
  // ~d^2/2 moves, so the 4d budget runs out and std::stable_sort takes
  // over mid-way — the handover must still give the reference result.
  const std::size_t d = 10000;
  std::vector<double> values(d), weights(d);
  for (std::size_t i = 0; i < d; ++i) {
    values[i] = static_cast<double>(d - i);
    weights[i] = 1.0 + static_cast<double>(i % 4);
  }
  auto order = Identity(d);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(values, weights, order));
  // Descending with ties in runs of 3 exercises the handover's stability.
  for (std::size_t i = 0; i < d; ++i) {
    values[i] = static_cast<double>((d - i) / 3);
  }
  order = Identity(d);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(values, weights, order));
}

TEST(UpdateStepOracle, AllEqualValues) {
  for (const double x : {0.0, 2.5, std::numeric_limits<double>::infinity()}) {
    for (const std::size_t d : {1u, 2u, 7u, 5000u}) {
      std::vector<double> values(d, x), weights(d);
      for (std::size_t i = 0; i < d; ++i) {
        weights[i] = 0.5 + static_cast<double>(i % 3);
      }
      auto order = Identity(d);
      std::reverse(order.begin(), order.end());  // ties keep THIS order
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(values, weights, order));
    }
  }
}

TEST(UpdateStepOracle, OrdersCarriedAcrossRounds) {
  // Compact-elimination-shaped inputs: every neighbor starts at +inf and
  // each round some surviving numbers drop (never rise), so each round's
  // order arrives nearly sorted from the last. Both implementations carry
  // their own order; they must agree every round.
  util::Rng rng(12);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t d = 1 + rng.NextBounded(trial % 4 == 0 ? 3000 : 60);
    std::vector<double> values(d, std::numeric_limits<double>::infinity());
    std::vector<double> weights(d);
    for (double& w : weights) w = static_cast<double>(1 + rng.NextBounded(4));
    auto order = Identity(d);
    for (int round = 0; round < 30; ++round) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(values, weights, order));
      for (double& v : values) {
        if (rng.NextBounded(4) != 0) continue;
        const double cap = std::isinf(v) ? 64.0 : v;
        v = static_cast<double>(rng.NextBounded(
            static_cast<std::uint64_t>(cap) + 1));  // integer, <= old
      }
    }
  }
}

TEST(UpdateStepOracle, StableSortByValueMatchesStdStableSort) {
  // The sort alone, across the budget boundary: random inputs with ties
  // at sizes where insertion sort finishes, and where it hands over.
  util::Rng rng(13);
  for (int it = 0; it < 500; ++it) {
    const std::size_t d = rng.NextBounded(it % 2 == 0 ? 20 : 400);
    std::vector<double> values(d);
    for (double& v : values) v = static_cast<double>(rng.NextBounded(6));
    auto order = Identity(d);
    for (std::size_t i = d; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    auto want = order;
    std::stable_sort(want.begin(), want.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return values[a] < values[b];
                     });
    StableSortByValue(values, order);
    ASSERT_EQ(order, want) << "d = " << d;
  }
}

}  // namespace
}  // namespace kcore::core
