// The Thm 4.3 samplers plan an inflationary program once and share the
// plan read-only across worker threads; over a pc-database they plan once
// per drawn world. Estimates are pinned: the planned engine must draw
// exactly what the paper's naive step draws, so any drift in these numbers
// is a change of answers, not noise.
#include <gtest/gtest.h>

#include <cmath>

#include "datalog/program.h"
#include "eval/inflationary.h"

namespace pfql {
namespace eval {
namespace {

// Hits and steps of the pinned runs below; recorded from the naive-step
// engine, which drew exactly these paths for these seeds.
constexpr size_t kPinnedHits = 79;
constexpr size_t kPinnedSteps = 13780;
constexpr size_t kPinnedOverPCHits = 782;

double Share(size_t hits, size_t samples) {
  return static_cast<double>(hits) / static_cast<double>(samples);
}

datalog::Program WalkProgram() {
  auto program = datalog::ParseProgram(R"(
    cur(0).
    c2(<X>, Y) @P :- cur(X), e(X, Y, P).
    cur(Y) :- c2(X, Y).
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// A 19-node layered DAG: node 0, then six layers of three nodes; every node
// has two weighted edges into the next layer.
Instance LayeredDag() {
  Rng rng(19);
  Relation e(Schema({"i", "j", "p"}));
  for (int64_t layer = 0; layer < 6; ++layer) {
    const int64_t first = layer == 0 ? 0 : 1 + 3 * (layer - 1);
    const int64_t width = layer == 0 ? 1 : 3;
    for (int64_t node = first; node < first + width; ++node) {
      for (int k = 0; k < 2; ++k) {
        const int64_t to =
            1 + 3 * layer + static_cast<int64_t>(rng.NextIndex(3));
        e.Insert(Tuple{Value(node), Value(to),
                       Value(static_cast<int64_t>(1 + rng.NextIndex(3)))});
      }
    }
  }
  Instance edb;
  edb.Set("e", std::move(e));
  return edb;
}

TEST(PlanSharingTest, ThreadedApproxMatchesPinnedEstimate) {
  const datalog::Program program = WalkProgram();
  const Instance edb = LayeredDag();
  const QueryEvent event{"cur", Tuple{Value(17)}};
  ApproxParams params;
  params.epsilon = 0.05;
  params.delta = 0.01;
  params.threads = 2;
  Rng rng(2024);
  auto result = ApproxInflationary(program, edb, event, params, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->samples, params.SampleCount());
  EXPECT_EQ(result->estimate, Share(kPinnedHits, result->samples));
  EXPECT_EQ(result->total_steps, kPinnedSteps);

  auto exact = ExactInflationary(program, edb, event);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_NEAR(result->estimate, exact->ToDouble(), params.epsilon);
}

// Worlds differ in the edge relation the choice rule joins: with x = 1
// node 0 chooses between 1 and 2 and only 2 leads on to 3 (Pr = 1/2);
// with x = 0 the only path 0 -> 1 -> 3 is certain. Pr[cur(3)] = 3/4. A
// plan folded over one world's edges would answer 1/2 or 1.
TEST(PlanSharingTest, OverPCPlansEachDrawnWorld) {
  PCDatabase pc;
  ASSERT_TRUE(pc.AddBooleanVariable("x", BigRational(1, 2)).ok());
  CTable e;
  e.schema = Schema({"i", "j", "p"});
  auto row = [&](int64_t i, int64_t j, std::shared_ptr<Condition> cond) {
    e.rows.push_back({Tuple{Value(i), Value(j), Value(1)}, std::move(cond)});
  };
  row(0, 1, Condition::True());
  row(0, 2, Condition::Eq("x", Value(1)));
  row(2, 3, Condition::Eq("x", Value(1)));
  row(1, 3, Condition::Eq("x", Value(0)));
  ASSERT_TRUE(pc.AddTable("e", std::move(e)).ok());

  const datalog::Program program = WalkProgram();
  const QueryEvent event{"cur", Tuple{Value(3)}};
  auto exact = ExactInflationaryOverPC(program, pc, Instance{}, event);
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_EQ(*exact, BigRational(3, 4));

  ApproxParams params;
  params.epsilon = 0.05;
  params.delta = 0.01;
  Rng rng(31);
  auto approx =
      ApproxInflationaryOverPC(program, pc, Instance{}, event, params, &rng);
  ASSERT_TRUE(approx.ok()) << approx.status();
  EXPECT_NEAR(approx->estimate, 0.75, params.epsilon);
  EXPECT_EQ(approx->estimate, Share(kPinnedOverPCHits, approx->samples));
}

}  // namespace
}  // namespace eval
}  // namespace pfql
