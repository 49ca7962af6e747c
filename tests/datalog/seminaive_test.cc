#include "datalog/seminaive.h"

#include <gtest/gtest.h>

#include "datalog/engine.h"
#include "gadgets/graphs.h"

namespace pfql {
namespace datalog {
namespace {

Instance LineEdb(int64_t n) {
  Instance edb;
  Relation e(Schema({"i", "j"}));
  for (int64_t i = 0; i + 1 < n; ++i) {
    e.Insert(Tuple{Value(i), Value(i + 1)});
  }
  edb.Set("e", std::move(e));
  return edb;
}

Program TransitiveClosure() {
  auto program = ParseProgram(R"(
    t(X, Y) :- e(X, Y).
    t(X, Z) :- t(X, Y), e(Y, Z).
  )");
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(SeminaiveTest, TransitiveClosureOfLine) {
  SeminaiveStats stats;
  auto fixpoint = SeminaiveFixpoint(TransitiveClosure(), LineEdb(6), &stats);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  // 5+4+3+2+1 = 15 ordered reachable pairs.
  EXPECT_EQ(fixpoint->Find("t")->size(), 15u);
  EXPECT_GT(stats.rounds, 1u);
  EXPECT_EQ(stats.derived_tuples, 15u);
}

TEST(SeminaiveTest, PinnedStatsOnLine) {
  // One round per path length 2..5 plus the round that installs the
  // length-1 paths; pinned from the dedicated delta loop this evaluator
  // used to carry.
  SeminaiveStats stats;
  ASSERT_TRUE(SeminaiveFixpoint(TransitiveClosure(), LineEdb(6), &stats).ok());
  EXPECT_EQ(stats.rounds, 5u);
  EXPECT_EQ(stats.derived_tuples, 15u);

  auto facts = ParseProgram(R"(
    start(a).
    start(b).
    copy(X) :- start(X).
  )");
  ASSERT_TRUE(facts.ok());
  ASSERT_TRUE(SeminaiveFixpoint(*facts, Instance{}, &stats).ok());
  EXPECT_EQ(stats.rounds, 2u);
  EXPECT_EQ(stats.derived_tuples, 4u);
}

TEST(SeminaiveTest, MatchesInflationaryEngineOnRandomGraphs) {
  Rng rng(9);
  for (int trial = 0; trial < 5; ++trial) {
    gadgets::Graph g = gadgets::RandomDigraph(8, 0.25, &rng);
    Instance edb;
    Relation e(Schema({"i", "j"}));
    for (const auto& edge : g.edges) {
      e.Insert(Tuple{Value(edge.from), Value(edge.to)});
    }
    edb.Set("e", std::move(e));

    auto fast = SeminaiveFixpoint(TransitiveClosure(), edb);
    ASSERT_TRUE(fast.ok());
    auto engine = InflationaryEngine::Make(TransitiveClosure(), edb);
    ASSERT_TRUE(engine.ok());
    Rng run_rng(1);
    auto slow = engine->RunToFixpoint(&run_rng);
    ASSERT_TRUE(slow.ok());
    EXPECT_EQ(*fast->Find("t"), *slow->Find("t")) << "trial " << trial;
  }
}

TEST(SeminaiveTest, FactsAndNonRecursiveRules) {
  auto program = ParseProgram(R"(
    start(a).
    start(b).
    copy(X) :- start(X).
  )");
  ASSERT_TRUE(program.ok());
  auto fixpoint = SeminaiveFixpoint(*program, Instance{});
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_EQ(fixpoint->Find("start")->size(), 2u);
  EXPECT_EQ(fixpoint->Find("copy")->size(), 2u);
}

TEST(SeminaiveTest, MutualRecursion) {
  auto program = ParseProgram(R"(
    even(0).
    odd(Y) :- even(X), succ(X, Y).
    even(Y) :- odd(X), succ(X, Y).
  )");
  ASSERT_TRUE(program.ok());
  Instance edb;
  Relation succ(Schema({"i", "j"}));
  for (int64_t i = 0; i < 6; ++i) succ.Insert(Tuple{Value(i), Value(i + 1)});
  edb.Set("succ", std::move(succ));
  auto fixpoint = SeminaiveFixpoint(*program, edb);
  ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
  EXPECT_TRUE(fixpoint->Find("even")->Contains(Tuple{Value(4)}));
  EXPECT_FALSE(fixpoint->Find("even")->Contains(Tuple{Value(5)}));
  EXPECT_TRUE(fixpoint->Find("odd")->Contains(Tuple{Value(5)}));
}

TEST(SeminaiveTest, BuiltinsRespected) {
  auto program = ParseProgram("t(X, Y) :- e(X, Y), X < 2.");
  ASSERT_TRUE(program.ok());
  auto fixpoint = SeminaiveFixpoint(*program, LineEdb(5));
  ASSERT_TRUE(fixpoint.ok());
  EXPECT_EQ(fixpoint->Find("t")->size(), 2u);  // (0,1), (1,2)
}

TEST(SeminaiveTest, RejectsProbabilisticPrograms) {
  auto program = ParseProgram("pick(<K>, V) :- opts(K, V).");
  ASSERT_TRUE(program.ok());
  Instance edb;
  edb.Set("opts", Relation(Schema({"k", "v"})));
  auto result = SeminaiveFixpoint(*program, edb);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SeminaiveTest, NoDeltaRelationsLeakIntoResult) {
  auto fixpoint = SeminaiveFixpoint(TransitiveClosure(), LineEdb(4));
  ASSERT_TRUE(fixpoint.ok());
  for (const auto& [name, _] : fixpoint->relations()) {
    EXPECT_EQ(name.rfind("__delta_", 0), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace datalog
}  // namespace pfql
