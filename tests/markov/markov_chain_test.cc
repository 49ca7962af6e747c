#include "markov/markov_chain.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace pfql {
namespace {

// Two-state chain: 0 -> 1 w.p. 1/3 (stays w.p. 2/3); 1 -> 0 w.p. 1/2.
MarkovChain TwoState() {
  MarkovChain mc(2);
  EXPECT_TRUE(mc.AddTransition(0, 0, BigRational(2, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 0, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.Validate().ok());
  return mc;
}

// Directed 3-cycle (periodic with period 3).
MarkovChain Cycle3() {
  MarkovChain mc(3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(mc.AddTransition(i, (i + 1) % 3, BigRational(1)).ok());
  }
  return mc;
}

// Reducible: 0 -> {1, 2} each w.p. 1/2; 1 and 2 absorbing.
MarkovChain Absorbing() {
  MarkovChain mc(3);
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 2, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  EXPECT_TRUE(mc.AddTransition(2, 2, BigRational(1)).ok());
  return mc;
}

TEST(MarkovChainTest, ValidateRejectsBadRows) {
  MarkovChain mc(2);
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  EXPECT_FALSE(mc.Validate().ok());  // row 0 sums to 1/2, row 1 to 0
  EXPECT_FALSE(mc.AddTransition(0, 5, BigRational(1, 2)).ok());
  EXPECT_FALSE(mc.AddTransition(0, 1, BigRational(-1, 2)).ok());
}

TEST(MarkovChainTest, AddTransitionAccumulates) {
  MarkovChain mc(2);
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  EXPECT_TRUE(mc.Validate().ok());
  ASSERT_EQ(mc.Row(0).size(), 1u);
  EXPECT_TRUE(mc.Row(0)[0].second.IsOne());
}

TEST(MarkovChainTest, SccOfIrreducibleChainIsSingle) {
  auto scc = TwoState().DecomposeScc();
  EXPECT_EQ(scc.components.size(), 1u);
  EXPECT_TRUE(scc.is_bottom[0]);
  EXPECT_TRUE(TwoState().IsIrreducible());
}

TEST(MarkovChainTest, SccOfAbsorbingChain) {
  auto scc = Absorbing().DecomposeScc();
  EXPECT_EQ(scc.components.size(), 3u);
  size_t bottoms = 0;
  for (bool b : scc.is_bottom) {
    if (b) ++bottoms;
  }
  EXPECT_EQ(bottoms, 2u);
  EXPECT_FALSE(scc.is_bottom[scc.component_of[0]]);
  EXPECT_FALSE(Absorbing().IsIrreducible());
}

TEST(MarkovChainTest, PeriodDetection) {
  EXPECT_EQ(Cycle3().PeriodOf(0), 3u);
  EXPECT_FALSE(Cycle3().IsAperiodic());
  EXPECT_EQ(TwoState().PeriodOf(0), 1u);
  EXPECT_TRUE(TwoState().IsAperiodic());
  EXPECT_TRUE(TwoState().IsErgodic());
  EXPECT_FALSE(Cycle3().IsErgodic());
}

TEST(MarkovChainTest, StationaryDistributionTwoState) {
  // pi = (p10, p01)/(p01+p10) = (1/2, 1/3)/(5/6) = (3/5, 2/5).
  auto pi = TwoState().StationaryDistribution();
  ASSERT_TRUE(pi.ok());
  EXPECT_NEAR(pi.value()[0], 0.6, 1e-12);
  EXPECT_NEAR(pi.value()[1], 0.4, 1e-12);
}

TEST(MarkovChainTest, ExactStationaryDistribution) {
  auto pi = TwoState().ExactStationaryDistribution();
  ASSERT_TRUE(pi.ok());
  EXPECT_EQ(pi.value()[0], BigRational(3, 5));
  EXPECT_EQ(pi.value()[1], BigRational(2, 5));
}

TEST(MarkovChainTest, StationaryOfPeriodicChainIsCesaroLimit) {
  // The 3-cycle has uniform stationary distribution even though it never
  // converges pointwise — the linear solve gives the Cesàro limit.
  auto pi = Cycle3().ExactStationaryDistribution();
  ASSERT_TRUE(pi.ok());
  for (const auto& p : pi.value()) {
    EXPECT_EQ(p, BigRational(1, 3));
  }
}

TEST(MarkovChainTest, StationaryByIterationMatchesSolve) {
  auto direct = TwoState().StationaryDistribution();
  auto iterated = TwoState().StationaryByIteration(100000, 1e-12);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(iterated.ok());
  EXPECT_NEAR(direct.value()[0], iterated.value()[0], 1e-6);
  EXPECT_NEAR(direct.value()[1], iterated.value()[1], 1e-6);
}

TEST(MarkovChainTest, StationaryByIterationHandlesPeriodic) {
  auto pi = Cycle3().StationaryByIteration(100000, 1e-10);
  ASSERT_TRUE(pi.ok());
  for (double p : pi.value()) {
    EXPECT_NEAR(p, 1.0 / 3, 1e-6);
  }
}

TEST(MarkovChainTest, StationaryRequiresIrreducible) {
  EXPECT_FALSE(Absorbing().StationaryDistribution().ok());
  EXPECT_FALSE(Absorbing().ExactStationaryDistribution().ok());
}

TEST(MarkovChainTest, DistributionAfterSteps) {
  auto d = TwoState().DistributionAfter({1.0, 0.0}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_NEAR(d.value()[0], 2.0 / 3, 1e-12);
  EXPECT_NEAR(d.value()[1], 1.0 / 3, 1e-12);
  auto d0 = TwoState().DistributionAfter({1.0, 0.0}, 0);
  ASSERT_TRUE(d0.ok());
  EXPECT_DOUBLE_EQ(d0.value()[0], 1.0);
}

TEST(MarkovChainTest, AbsorptionProbabilitiesSplitEvenly) {
  auto absorb = Absorbing().AbsorptionProbabilities(0);
  ASSERT_TRUE(absorb.ok());
  auto scc = Absorbing().DecomposeScc();
  double total = 0;
  for (size_t c = 0; c < scc.components.size(); ++c) {
    if (scc.is_bottom[c]) {
      EXPECT_NEAR((*absorb)[c], 0.5, 1e-12);
      total += (*absorb)[c];
    } else {
      EXPECT_DOUBLE_EQ((*absorb)[c], 0.0);
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(MarkovChainTest, ExactAbsorptionFromBottomState) {
  auto absorb = Absorbing().ExactAbsorptionProbabilities(1);
  ASSERT_TRUE(absorb.ok());
  auto scc = Absorbing().DecomposeScc();
  EXPECT_TRUE((*absorb)[scc.component_of[1]].IsOne());
}

TEST(MarkovChainTest, LongRunProbabilityIrreducible) {
  // Event: in state 1. Long-run = pi_1 = 2/5.
  auto p = TwoState().ExactLongRunProbability(
      0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(2, 5));
}

TEST(MarkovChainTest, LongRunProbabilityReducible) {
  // From 0: absorbed in 1 or 2 with prob 1/2 each. Event: state == 1.
  auto p = Absorbing().ExactLongRunProbability(
      0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(1, 2));
  auto pd = Absorbing().LongRunProbability(0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(pd.ok());
  EXPECT_NEAR(pd.value(), 0.5, 1e-12);
}

TEST(MarkovChainTest, LongRunChainedTransients) {
  // 0 -> 1 -> {2 absorbing, 3 absorbing}; multi-level transient DAG.
  MarkovChain mc(4);
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 2, BigRational(1, 4)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 3, BigRational(3, 4)).ok());
  ASSERT_TRUE(mc.AddTransition(2, 2, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(3, 3, BigRational(1)).ok());
  auto p = mc.ExactLongRunProbability(0, [](size_t s) { return s == 3; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), BigRational(3, 4));
}

TEST(MarkovChainTest, TotalVariation) {
  EXPECT_DOUBLE_EQ(MarkovChain::TotalVariation({1, 0}, {0, 1}), 1.0);
  EXPECT_DOUBLE_EQ(MarkovChain::TotalVariation({0.5, 0.5}, {0.5, 0.5}), 0.0);
  EXPECT_DOUBLE_EQ(MarkovChain::TotalVariation({0.75, 0.25}, {0.25, 0.75}),
                   0.5);
}

TEST(MarkovChainTest, MixingTimeCompleteGraphIsFast) {
  // Uniform 4-state chain mixes in one step.
  MarkovChain mc(4);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      ASSERT_TRUE(mc.AddTransition(i, j, BigRational(1, 4)).ok());
    }
  }
  auto t = mc.MixingTime(0.01);
  ASSERT_TRUE(t.ok());
  EXPECT_LE(t.value(), 1u);
}

TEST(MarkovChainTest, MixingTimeRequiresErgodic) {
  EXPECT_FALSE(Cycle3().MixingTimeFrom(0, 0.01).ok());
  EXPECT_FALSE(Absorbing().MixingTimeFrom(0, 0.01).ok());
}

TEST(MarkovChainTest, MixingTimeLazyCycleGrowsWithSize) {
  auto lazy_cycle = [](size_t n) {
    MarkovChain mc(n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(mc.AddTransition(i, i, BigRational(1, 2)).ok());
      EXPECT_TRUE(mc.AddTransition(i, (i + 1) % n, BigRational(1, 2)).ok());
    }
    return mc;
  };
  auto t4 = lazy_cycle(4).MixingTimeFrom(0, 0.05);
  auto t12 = lazy_cycle(12).MixingTimeFrom(0, 0.05);
  ASSERT_TRUE(t4.ok());
  ASSERT_TRUE(t12.ok());
  EXPECT_GT(t12.value(), t4.value());
}

// ---- Long-run goldens ----------------------------------------------------
//
// Every expected fraction below is worked out by hand in the comment above
// it: absorption probabilities from the first-step equations, stationary
// distributions from the balance equations of the bottom SCC.

// Transient {0, 3} drains into the bottom SCC {1, 2}.
//   0 -> 0 1/4, 3 1/4, 1 1/2;   3 -> 0 1/2, 2 1/2;
//   1 -> 1 1/3, 2 2/3;          2 -> 1 1/4, 2 3/4.
// Balance on {1, 2}: pi1 * 2/3 = pi2 * 1/4, so pi = (3/11, 8/11).
MarkovChain OneBottomWithTransients() {
  MarkovChain mc(4);
  EXPECT_TRUE(mc.AddTransition(0, 0, BigRational(1, 4)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 3, BigRational(1, 4)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(3, 0, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(3, 2, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 1, BigRational(1, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 2, BigRational(2, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(2, 1, BigRational(1, 4)).ok());
  EXPECT_TRUE(mc.AddTransition(2, 2, BigRational(3, 4)).ok());
  EXPECT_TRUE(mc.Validate().ok());
  return mc;
}

TEST(LongRunGoldenTest, TransientStartOneBottom) {
  const MarkovChain mc = OneBottomWithTransients();
  auto at2 = mc.ExactLongRunProbability(0, [](size_t s) { return s == 2; });
  ASSERT_TRUE(at2.ok()) << at2.status();
  EXPECT_EQ(*at2, BigRational(8, 11));
  // Transient state 3 carries no long-run mass.
  auto at13 = mc.ExactLongRunProbability(
      3, [](size_t s) { return s == 1 || s == 3; });
  ASSERT_TRUE(at13.ok()) << at13.status();
  EXPECT_EQ(*at13, BigRational(3, 11));
  auto absorb = mc.ExactAbsorptionProbabilities(0);
  ASSERT_TRUE(absorb.ok());
  const auto scc = mc.DecomposeScc();
  EXPECT_TRUE((*absorb)[scc.component_of[1]].IsOne());
  EXPECT_TRUE((*absorb)[scc.component_of[0]].IsZero());
}

TEST(LongRunGoldenTest, StartInsideBottom) {
  const MarkovChain mc = OneBottomWithTransients();
  for (size_t start : {1u, 2u}) {
    auto p = mc.ExactLongRunProbability(start,
                                        [](size_t s) { return s == 2; });
    ASSERT_TRUE(p.ok()) << p.status();
    EXPECT_EQ(*p, BigRational(8, 11)) << start;
  }
}

// Two bottom SCCs A = {2, 3} and B = {4}, reached from the transient
// cycle {0, 1}:
//   0 -> 1 1/2, 2 1/3, 4 1/6;   1 -> 0 1/2, 3 1/4, 4 1/4;
//   2 -> 3 1;   3 -> 2 1/2, 3 1/2;   4 -> 4 1.
// Absorption into A: h0 = 1/3 + h1/2 and h1 = 1/4 + h0/2, so h0 = 11/18
// and h1 = 5/9. Balance on A: pi2 = pi3/2, so pi_A = (1/3, 2/3).
MarkovChain TwoBottoms() {
  MarkovChain mc(5);
  EXPECT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 2, BigRational(1, 3)).ok());
  EXPECT_TRUE(mc.AddTransition(0, 4, BigRational(1, 6)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 0, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 3, BigRational(1, 4)).ok());
  EXPECT_TRUE(mc.AddTransition(1, 4, BigRational(1, 4)).ok());
  EXPECT_TRUE(mc.AddTransition(2, 3, BigRational(1)).ok());
  EXPECT_TRUE(mc.AddTransition(3, 2, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(3, 3, BigRational(1, 2)).ok());
  EXPECT_TRUE(mc.AddTransition(4, 4, BigRational(1)).ok());
  EXPECT_TRUE(mc.Validate().ok());
  return mc;
}

TEST(LongRunGoldenTest, TwoBottomsSplitAbsorption) {
  const MarkovChain mc = TwoBottoms();
  const auto scc = mc.DecomposeScc();
  auto absorb = mc.ExactAbsorptionProbabilities(0);
  ASSERT_TRUE(absorb.ok()) << absorb.status();
  EXPECT_EQ((*absorb)[scc.component_of[2]], BigRational(11, 18));
  EXPECT_EQ((*absorb)[scc.component_of[4]], BigRational(7, 18));
  // 11/18 * 2/3 = 11/27.
  auto at3 = mc.ExactLongRunProbability(0, [](size_t s) { return s == 3; });
  ASSERT_TRUE(at3.ok());
  EXPECT_EQ(*at3, BigRational(11, 27));
  // 11/27 + 7/18 = 43/54.
  auto at34 = mc.ExactLongRunProbability(
      0, [](size_t s) { return s == 3 || s == 4; });
  ASSERT_TRUE(at34.ok());
  EXPECT_EQ(*at34, BigRational(43, 54));
  // From 1: 5/9 * 2/3 = 10/27.
  auto from1 = mc.ExactLongRunProbability(1, [](size_t s) { return s == 3; });
  ASSERT_TRUE(from1.ok());
  EXPECT_EQ(*from1, BigRational(10, 27));
  auto dbl = mc.LongRunProbability(0, [](size_t s) { return s == 3; });
  ASSERT_TRUE(dbl.ok());
  EXPECT_NEAR(*dbl, 11.0 / 27.0, 1e-12);
}

// Three bottom SCCs {1}, {2} and {3, 4} below one transient state:
//   0 -> 0 1/5, 1 1/5, 2 2/5, 3 1/5;   3 -> 4 1;   4 -> 3 1/3, 4 2/3.
// Absorption: each exit weight over 4/5, so (1/4, 1/2, 1/4). Balance on
// {3, 4}: pi3 = pi4/3, so (1/4, 3/4). Event {2, 4}: 1/2 + 1/4 * 3/4.
TEST(LongRunGoldenTest, ThreeBottomsSplitAbsorption) {
  MarkovChain mc(5);
  ASSERT_TRUE(mc.AddTransition(0, 0, BigRational(1, 5)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 5)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 2, BigRational(2, 5)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 3, BigRational(1, 5)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 1, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(2, 2, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(3, 4, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(4, 3, BigRational(1, 3)).ok());
  ASSERT_TRUE(mc.AddTransition(4, 4, BigRational(2, 3)).ok());
  ASSERT_TRUE(mc.Validate().ok());
  const auto scc = mc.DecomposeScc();
  auto absorb = mc.ExactAbsorptionProbabilities(0);
  ASSERT_TRUE(absorb.ok()) << absorb.status();
  EXPECT_EQ((*absorb)[scc.component_of[1]], BigRational(1, 4));
  EXPECT_EQ((*absorb)[scc.component_of[2]], BigRational(1, 2));
  EXPECT_EQ((*absorb)[scc.component_of[3]], BigRational(1, 4));
  auto p = mc.ExactLongRunProbability(
      0, [](size_t s) { return s == 2 || s == 4; });
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, BigRational(11, 16));
}

// A transient state above a period-2 bottom SCC {1, 2, 3}:
//   0 -> 0 1/2, 1 1/2;   1 -> 2 1;   2 -> 1 1/2, 3 1/2;   3 -> 2 1.
// The walk alternates between {1, 3} and {2}; the Cesàro limit solves
// pi2 = pi1 + pi3 and pi1 = pi3 = pi2/2, so (1/4, 1/2, 1/4).
TEST(LongRunGoldenTest, PeriodicBottom) {
  MarkovChain mc(4);
  ASSERT_TRUE(mc.AddTransition(0, 0, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(0, 1, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(1, 2, BigRational(1)).ok());
  ASSERT_TRUE(mc.AddTransition(2, 1, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(2, 3, BigRational(1, 2)).ok());
  ASSERT_TRUE(mc.AddTransition(3, 2, BigRational(1)).ok());
  ASSERT_TRUE(mc.Validate().ok());
  EXPECT_EQ(mc.PeriodOf(1), 2u);
  EXPECT_FALSE(mc.IsAperiodic());
  auto at1 = mc.ExactLongRunProbability(0, [](size_t s) { return s == 1; });
  ASSERT_TRUE(at1.ok()) << at1.status();
  EXPECT_EQ(*at1, BigRational(1, 4));
  auto at2 = mc.ExactLongRunProbability(0, [](size_t s) { return s == 2; });
  ASSERT_TRUE(at2.ok());
  EXPECT_EQ(*at2, BigRational(1, 2));
}

TEST(LongRunGoldenTest, DecompositionReuseGivesSameAnswers) {
  for (const MarkovChain& mc : {TwoBottoms(), Cycle3(), TwoState()}) {
    const auto scc = mc.DecomposeScc();
    EXPECT_EQ(mc.IsAperiodic(scc), mc.IsAperiodic());
    for (size_t s = 0; s < mc.num_states(); ++s) {
      EXPECT_EQ(mc.PeriodOf(s, scc), mc.PeriodOf(s));
    }
  }
}

// Property: on random chains, with any number of bottom SCCs, the exact
// long-run answer converted to double matches the double solver.
class LongRunPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LongRunPropertyTest, ExactMatchesDouble) {
  Rng rng(GetParam());
  const size_t n = 2 + rng.NextIndex(11);
  MarkovChain mc(n);
  for (size_t i = 0; i < n; ++i) {
    // Some states absorb; the rest spread over up to four targets with
    // small integer weights, so bottom SCCs of every count turn up.
    if (rng.NextBernoulli(0.15)) {
      ASSERT_TRUE(mc.AddTransition(i, i, BigRational(1)).ok());
      continue;
    }
    const size_t fanout = 1 + rng.NextIndex(4);
    std::vector<std::pair<size_t, int64_t>> out;
    int64_t total = 0;
    for (size_t k = 0; k < fanout; ++k) {
      const int64_t w = 1 + static_cast<int64_t>(rng.NextIndex(9));
      out.emplace_back(rng.NextIndex(n), w);
      total += w;
    }
    for (const auto& [j, w] : out) {
      ASSERT_TRUE(mc.AddTransition(i, j, BigRational(w, total)).ok());
    }
  }
  ASSERT_TRUE(mc.Validate().ok());
  std::vector<bool> event(n);
  for (size_t i = 0; i < n; ++i) event[i] = rng.NextBernoulli(0.5);
  const auto in_event = [&](size_t s) { return static_cast<bool>(event[s]); };
  for (size_t start = 0; start < n; ++start) {
    auto exact = mc.ExactLongRunProbability(start, in_event);
    auto dbl = mc.LongRunProbability(start, in_event);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(dbl.ok()) << dbl.status();
    EXPECT_NEAR(exact->ToDouble(), *dbl, 1e-9) << "start " << start;
    // Absorption probabilities are a distribution over bottom SCCs.
    auto absorb = mc.ExactAbsorptionProbabilities(start);
    ASSERT_TRUE(absorb.ok());
    BigRational sum;
    for (const auto& p : *absorb) sum += p;
    EXPECT_TRUE(sum.IsOne()) << "start " << start << ": " << sum;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongRunPropertyTest,
                         ::testing::Range<uint64_t>(1, 51));

}  // namespace
}  // namespace pfql
