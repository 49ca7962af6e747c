// Seed-identity of the planned inflationary engine against the paper's
// naive step (Sec 3.3), written here from public RA functions only:
//
//   newVals[r] := EvalSample(body(r), state) − oldVals[r];
//   oldVals[r] := oldVals[r] ∪ newVals[r];
//   R          := R ∪ repair-key(π_{X̄,Ȳ,P}(newVals[r])).
//
// The engine evaluates full bodies once and then only the valuations that
// use a tuple the previous step added. Because bodies are monotone, that
// set equals newVals above exactly, so every repair-key draw sees the same
// relation and consumes the same random numbers. Each of 50 seeded random
// programs (two IDB atoms in one body, self-reading rules, repeated
// variables, constants, builtins, facts, EDB-only rules, weighted and
// unweighted probabilistic heads) must reach the identical fixpoint in the
// identical number of steps for several path seeds, and must yield the
// identical exact fixpoint distribution over the same number of
// computation-tree nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "datalog/body_eval.h"
#include "datalog/engine.h"
#include "datalog/program.h"

namespace pfql {
namespace datalog {
namespace {

// ---- The naive oracle --------------------------------------------------

struct NaiveRule {
  RaExpr::Ptr body;
  std::vector<std::string> proj_cols;
  Schema proj_schema;
  RepairKeySpec spec;
};

struct NaiveProgram {
  Program program;
  Instance initial;
  std::vector<NaiveRule> rules;
};

NaiveProgram CompileNaive(const Program& program, const Instance& edb) {
  NaiveProgram np{program, {}, {}};
  auto initial = program.InitialInstance(edb);
  EXPECT_TRUE(initial.ok()) << initial.status();
  np.initial = std::move(initial).value();
  std::map<std::string, Schema> schemas;
  for (const auto& [name, rel] : np.initial.relations()) {
    schemas.emplace(name, rel.schema());
  }
  for (const Rule& rule : program.rules()) {
    auto body = CompileBody(rule, schemas);
    EXPECT_TRUE(body.ok()) << body.status();
    NaiveRule nr;
    nr.body = *body;
    nr.proj_cols = rule.HeadVariables();
    if (rule.head.weight_var &&
        std::find(nr.proj_cols.begin(), nr.proj_cols.end(),
                  *rule.head.weight_var) == nr.proj_cols.end()) {
      nr.proj_cols.push_back(*rule.head.weight_var);
    }
    nr.proj_schema = Schema(nr.proj_cols);
    nr.spec.key_columns = rule.KeyVariables();
    nr.spec.weight_column = rule.head.weight_var;
    np.rules.push_back(std::move(nr));
  }
  return np;
}

std::vector<Relation> EmptyOldVals(const Program& program) {
  std::vector<Relation> old_vals;
  for (const Rule& rule : program.rules()) {
    old_vals.emplace_back(Schema(rule.BodyVariables()));
  }
  return old_vals;
}

// newVals of every rule, projected onto π_{X̄,Ȳ,P}; updates old_vals.
// Returns false when no rule has a new valuation.
bool NaiveNewVals(const NaiveProgram& np, const Instance& db,
                  std::vector<Relation>* old_vals,
                  std::vector<Relation>* projected) {
  bool any_new = false;
  projected->clear();
  for (size_t r = 0; r < np.rules.size(); ++r) {
    Rng unused(0);
    auto vals = EvalSample(np.rules[r].body, db, &unused);
    EXPECT_TRUE(vals.ok()) << vals.status();
    auto fresh = vals->DifferenceWith((*old_vals)[r]);
    EXPECT_TRUE(fresh.ok());
    if (!fresh->empty()) any_new = true;
    auto merged = (*old_vals)[r].UnionWith(*fresh);
    EXPECT_TRUE(merged.ok());
    (*old_vals)[r] = std::move(merged).value();
    auto proj = Project(*fresh, np.rules[r].proj_cols);
    EXPECT_TRUE(proj.ok());
    projected->push_back(std::move(proj).value());
  }
  return any_new;
}

void AddHeads(const NaiveProgram& np, size_t r,
              const std::vector<Tuple>& bindings, Instance* db) {
  const Head& head = np.program.rules()[r].head;
  std::vector<Tuple> tuples;
  for (const Tuple& binding : bindings) {
    auto t = BuildHeadTuple(head, np.rules[r].proj_schema, binding);
    EXPECT_TRUE(t.ok());
    tuples.push_back(std::move(t).value());
  }
  db->FindMutable(head.predicate)->InsertAll(std::move(tuples));
}

struct NaiveRun {
  Instance fixpoint;
  size_t steps = 0;
};

NaiveRun NaiveFixpoint(const NaiveProgram& np, Rng* rng) {
  NaiveRun run{np.initial, 0};
  std::vector<Relation> old_vals = EmptyOldVals(np.program);
  std::vector<Relation> projected;
  while (NaiveNewVals(np, run.fixpoint, &old_vals, &projected)) {
    for (size_t r = 0; r < np.rules.size(); ++r) {
      if (projected[r].empty()) continue;
      Relation chosen = projected[r];
      if (np.program.rules()[r].head.IsProbabilistic()) {
        auto repaired = RepairKeySample(projected[r], np.rules[r].spec, rng);
        EXPECT_TRUE(repaired.ok());
        chosen = std::move(repaired).value();
      }
      AddHeads(np, r, chosen.tuples(), &run.fixpoint);
    }
    ++run.steps;
  }
  return run;
}

struct NaiveExact {
  Distribution<Instance> dist;
  size_t nodes = 0;
};

// The computation tree of Prop 4.4, visited in the engine's order: rules
// in program order, repair-key groups in canonical order.
NaiveExact NaiveExactDistribution(const NaiveProgram& np) {
  NaiveExact out;
  struct Choice {
    size_t rule;
    RepairKeyGroup group;
  };
  std::function<void(Instance, std::vector<Relation>, BigRational)> visit =
      [&](Instance db, std::vector<Relation> old_vals, BigRational prob) {
        ++out.nodes;
        std::vector<Relation> projected;
        if (!NaiveNewVals(np, db, &old_vals, &projected)) {
          out.dist.Add(std::move(db), std::move(prob));
          return;
        }
        std::vector<Choice> choices;
        for (size_t r = 0; r < np.rules.size(); ++r) {
          if (projected[r].empty()) continue;
          if (!np.program.rules()[r].head.IsProbabilistic()) {
            AddHeads(np, r, projected[r].tuples(), &db);
            continue;
          }
          auto groups = RepairKeyGroups(projected[r], np.rules[r].spec);
          EXPECT_TRUE(groups.ok());
          for (auto& g : *groups) choices.push_back({r, std::move(g)});
        }
        std::function<void(size_t, Instance, BigRational)> choose =
            [&](size_t depth, Instance child, BigRational p) {
              if (depth == choices.size()) {
                visit(std::move(child), old_vals, std::move(p));
                return;
              }
              for (const auto& [binding, q] :
                   choices[depth].group.alternatives) {
                Instance next = child;
                AddHeads(np, choices[depth].rule, {binding}, &next);
                choose(depth + 1, std::move(next), p * q);
              }
            };
        choose(0, std::move(db), std::move(prob));
      };
  visit(np.initial, EmptyOldVals(np.program), BigRational(1));
  out.dist.Normalize();
  return out;
}

// ---- Random programs ----------------------------------------------------

// IDB predicates: a/1, b/2, c/1, d/2 (d is the weighted choice relation).
// EDB predicates: e/2 (edges), w/3 (weighted edges), u/1.
constexpr int kDomain = 4;

std::string Val(Rng* rng) {
  return std::to_string(rng->NextIndex(kDomain));
}

// One rule per template; each program draws several, and seed s always
// includes template s mod kTemplates so all of them occur in the suite.
constexpr size_t kTemplates = 12;

std::string RuleFromTemplate(size_t t, Rng* rng) {
  switch (t) {
    case 0:  // fact (empty body)
      return "a(" + Val(rng) + ").";
    case 1:  // EDB-only deterministic rule
      return "b(X, Y) :- e(X, Y).";
    case 2:  // EDB-only probabilistic rule
      return "b(<X>, Y) :- e(X, Y).";
    case 3:  // two IDB atoms in one body
      return "c(Y) :- a(X), b(X, Y).";
    case 4:  // self-reading rule with two IDB atoms
      return "b(X, Z) :- b(X, Y), b(Y, Z), X != Z.";
    case 5:  // self-reading rule
      return "a(Y) :- a(X), e(X, Y).";
    case 6:  // repeated variables
      return rng->NextBernoulli(0.5) ? "c(X) :- e(X, X)." : "c(X) :- b(X, X).";
    case 7:  // constants in body and head
      return "b(" + Val(rng) + ", Y) :- e(" + Val(rng) + ", Y), u(Y).";
    case 8:  // builtin comparisons
      return "a(Y) :- a(X), e(X, Y), X < Y.";
    case 9:  // weighted probabilistic head, fed back
      return "d(<X>, Y) @P :- a(X), w(X, Y, P).\n"
             "c(Y) :- d(X, Y).";
    case 10:  // unweighted probabilistic choice over an IDB join
      return "d(<X>, Y) :- c(X), e(X, Y), u(Y).\n"
             "a(Y) :- d(X, Y), c(X).";
    case 11:  // keyed choice reading its own head
      return "b(<X>, Y) :- a(X), e(X, Y).\n"
             "a(Y) :- b(X, Y), u(X).";
  }
  return "";
}

struct Case {
  Program program;
  Instance edb;
  std::string text;
};

Case RandomCase(uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  std::string text = "a(" + Val(&rng) + ").\n";
  std::vector<size_t> picked = {seed % kTemplates};
  const size_t extra = 3 + rng.NextIndex(3);
  for (size_t i = 0; i < extra; ++i) {
    picked.push_back(rng.NextIndex(kTemplates));
  }
  std::sort(picked.begin(), picked.end());
  picked.erase(std::unique(picked.begin(), picked.end()), picked.end());
  for (size_t t : picked) text += RuleFromTemplate(t, &rng) + "\n";
  // Every IDB predicate needs a defining rule; facts keep the unused ones
  // present without adding choices.
  text += "b(" + Val(&rng) + ", " + Val(&rng) + ").\n";
  text += "c(" + Val(&rng) + ").\n";
  text += "d(" + Val(&rng) + ", " + Val(&rng) + ").\n";

  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status() << "\n" << text;

  Instance edb;
  Relation e(Schema({"i", "j"}));
  Relation w(Schema({"i", "j", "p"}));
  Relation u(Schema({"i"}));
  const size_t edges = 5 + rng.NextIndex(5);
  for (size_t k = 0; k < edges; ++k) {
    const int64_t i = static_cast<int64_t>(rng.NextIndex(kDomain));
    const int64_t j = static_cast<int64_t>(rng.NextIndex(kDomain));
    e.Insert(Tuple{Value(i), Value(j)});
    w.Insert(Tuple{Value(i), Value(j),
                   Value(static_cast<int64_t>(1 + rng.NextIndex(3)))});
  }
  for (int64_t i = 0; i < kDomain; ++i) {
    if (rng.NextBernoulli(0.7)) u.Insert(Tuple{Value(i)});
  }
  edb.Set("e", std::move(e));
  edb.Set("w", std::move(w));
  edb.Set("u", std::move(u));
  return {std::move(program).value(), std::move(edb), text};
}

class PlanIdentityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanIdentityTest, FixpointAndStepsMatchNaiveStep) {
  const Case c = RandomCase(GetParam());
  const NaiveProgram np = CompileNaive(c.program, c.edb);
  for (uint64_t path_seed = 1; path_seed <= 8; ++path_seed) {
    Rng naive_rng(path_seed);
    const NaiveRun expected = NaiveFixpoint(np, &naive_rng);

    auto engine = InflationaryEngine::Make(c.program, c.edb);
    ASSERT_TRUE(engine.ok()) << engine.status();
    Rng rng(path_seed);
    auto fixpoint = engine->RunToFixpoint(&rng);
    ASSERT_TRUE(fixpoint.ok()) << fixpoint.status();
    EXPECT_EQ(*fixpoint, expected.fixpoint)
        << c.text << "path seed " << path_seed;
    EXPECT_EQ(fixpoint->relations().size(),
              expected.fixpoint.relations().size());
    EXPECT_EQ(engine->steps_taken(), expected.steps)
        << c.text << "path seed " << path_seed;
    // Both streams consumed the same random numbers.
    EXPECT_EQ(rng.Next(), naive_rng.Next()) << c.text;
  }
}

TEST_P(PlanIdentityTest, ExactDistributionMatchesNaiveStep) {
  const Case c = RandomCase(GetParam());
  const NaiveExact expected =
      NaiveExactDistribution(CompileNaive(c.program, c.edb));
  auto dist = ExactFixpointDistribution(c.program, c.edb);
  ASSERT_TRUE(dist.ok()) << dist.status();
  ASSERT_EQ(dist->size(), expected.dist.size()) << c.text;
  for (size_t i = 0; i < dist->size(); ++i) {
    EXPECT_EQ(dist->outcomes()[i].value, expected.dist.outcomes()[i].value);
    EXPECT_EQ(dist->outcomes()[i].probability,
              expected.dist.outcomes()[i].probability);
  }
  size_t nodes = 0;
  auto p = ExactFixpointEventProbability(c.program, c.edb,
                                         {"a", Tuple{Value(0)}}, {}, &nodes);
  ASSERT_TRUE(p.ok()) << p.status();
  EXPECT_EQ(nodes, expected.nodes) << c.text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanIdentityTest,
                         ::testing::Range<uint64_t>(1, 51));

}  // namespace
}  // namespace datalog
}  // namespace pfql
