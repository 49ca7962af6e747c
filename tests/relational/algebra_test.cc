#include "relational/algebra.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pfql {
namespace {

Relation Edges() {
  Relation e(Schema({"i", "j"}));
  e.Insert(Tuple{Value(1), Value(2)});
  e.Insert(Tuple{Value(2), Value(3)});
  e.Insert(Tuple{Value(1), Value(3)});
  return e;
}

TEST(AlgebraTest, SelectByPredicate) {
  auto out = Select(Edges(), Predicate::ColumnEquals("i", Value(1)));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  for (const auto& t : out->tuples()) {
    EXPECT_EQ(t[0], Value(1));
  }
}

TEST(AlgebraTest, SelectTrueKeepsAll) {
  auto out = Select(Edges(), Predicate::True());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 3u);
}

TEST(AlgebraTest, SelectComparisonOps) {
  auto lt = Select(Edges(), Predicate::Cmp(CmpOp::kLt,
                                           ScalarExpr::Column("j"),
                                           ScalarExpr::Const(Value(3))));
  ASSERT_TRUE(lt.ok());
  EXPECT_EQ(lt->size(), 1u);
  auto ne = Select(Edges(), Predicate::Cmp(CmpOp::kNe,
                                           ScalarExpr::Column("i"),
                                           ScalarExpr::Column("j")));
  ASSERT_TRUE(ne.ok());
  EXPECT_EQ(ne->size(), 3u);
}

TEST(AlgebraTest, SelectUnknownColumnFails) {
  EXPECT_FALSE(Select(Edges(), Predicate::ColumnEquals("zzz", Value(1))).ok());
}

TEST(AlgebraTest, ProjectDeduplicates) {
  auto out = Project(Edges(), {"i"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);  // {1, 2}
  EXPECT_EQ(out->schema(), Schema({"i"}));
}

TEST(AlgebraTest, ProjectReorders) {
  auto out = Project(Edges(), {"j", "i"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema(), Schema({"j", "i"}));
  EXPECT_TRUE(out->Contains(Tuple{Value(2), Value(1)}));
}

TEST(AlgebraTest, ProjectOntoNothingGivesNullary) {
  auto out = Project(Edges(), {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().size(), 0u);
  EXPECT_EQ(out->size(), 1u);  // the empty tuple, present because input nonempty
  auto empty = Project(Relation(Schema({"i", "j"})), {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
}

TEST(AlgebraTest, RenameColumns) {
  auto out = RenameColumns(Edges(), {{"j", "k"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema(), Schema({"i", "k"}));
  EXPECT_FALSE(RenameColumns(Edges(), {{"nope", "x"}}).ok());
  EXPECT_FALSE(RenameColumns(Edges(), {{"j", "i"}}).ok());  // collision
}

TEST(AlgebraTest, NaturalJoinOnSharedColumn) {
  Relation r(Schema({"j", "color"}));
  r.Insert(Tuple{Value(2), Value("red")});
  r.Insert(Tuple{Value(3), Value("blue")});
  auto out = NaturalJoin(Edges(), r);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema(), Schema({"i", "j", "color"}));
  EXPECT_EQ(out->size(), 3u);
  EXPECT_TRUE(out->Contains(Tuple{Value(1), Value(2), Value("red")}));
  EXPECT_TRUE(out->Contains(Tuple{Value(2), Value(3), Value("blue")}));
}

TEST(AlgebraTest, NaturalJoinHashesEitherSideToTheSameResult) {
  // The smaller input is hashed; the output columns and canonical order
  // must not depend on which side that is.
  Relation small(Schema({"j", "color"}));
  small.Insert(Tuple{Value(3), Value("blue")});
  Relation large(Schema({"j", "color"}));
  for (int64_t j = 0; j < 6; ++j) {
    large.Insert(Tuple{Value(j), Value(j % 2 == 0 ? "red" : "blue")});
  }
  auto a = NaturalJoin(Edges(), small);
  auto b = NaturalJoin(Edges(), large);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->schema(), Schema({"i", "j", "color"}));
  EXPECT_EQ(b->schema(), Schema({"i", "j", "color"}));
  EXPECT_EQ(a->tuples(),
            std::vector<Tuple>({Tuple{Value(1), Value(3), Value("blue")},
                                Tuple{Value(2), Value(3), Value("blue")}}));
  EXPECT_TRUE(b->Contains(Tuple{Value(2), Value(3), Value("blue")}));
  EXPECT_TRUE(std::is_sorted(b->tuples().begin(), b->tuples().end()));
  auto swapped = NaturalJoin(large, Edges());
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped->schema(), Schema({"j", "color", "i"}));
  EXPECT_EQ(swapped->size(), b->size());
}

TEST(AlgebraTest, NaturalJoinTwoSharedColumns) {
  Relation a(Schema({"x", "y"})), b(Schema({"x", "y", "z"}));
  a.Insert(Tuple{Value(1), Value(2)});
  a.Insert(Tuple{Value(1), Value(3)});
  b.Insert(Tuple{Value(1), Value(2), Value(9)});
  b.Insert(Tuple{Value(1), Value(9), Value(8)});
  auto out = NaturalJoin(a, b);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ(out->tuples()[0], Tuple({Value(1), Value(2), Value(9)}));
}

TEST(AlgebraTest, NaturalJoinDisjointFallsBackToProduct) {
  Relation a(Schema({"x"})), b(Schema({"y"}));
  a.Insert(Tuple{Value(1)});
  a.Insert(Tuple{Value(2)});
  b.Insert(Tuple{Value(7)});
  auto out = NaturalJoin(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 2u);
  EXPECT_EQ(out->schema(), Schema({"x", "y"}));
}

TEST(AlgebraTest, ProductSizesMultiply) {
  Relation a(Schema({"x"})), b(Schema({"y"}));
  for (int i = 0; i < 3; ++i) a.Insert(Tuple{Value(i)});
  for (int i = 0; i < 4; ++i) b.Insert(Tuple{Value(i)});
  auto out = Product(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 12u);
}

TEST(AlgebraTest, ProductRejectsSharedColumns) {
  EXPECT_FALSE(Product(Edges(), Edges()).ok());
}

TEST(AlgebraTest, ProductWithNullaryIsSemijoin) {
  Relation gate{Schema{}};
  auto empty = Product(Edges(), gate);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  gate.Insert(Tuple{});
  auto full = Product(Edges(), gate);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), 3u);
}

TEST(AlgebraTest, ExtendAddsComputedColumn) {
  auto out = Extend(Edges(), "sum",
                    ScalarExpr::Add(ScalarExpr::Column("i"),
                                    ScalarExpr::Column("j")));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema(), Schema({"i", "j", "sum"}));
  EXPECT_TRUE(out->Contains(Tuple{Value(1), Value(2), Value(3)}));
  EXPECT_FALSE(Extend(Edges(), "i", ScalarExpr::Const(Value(0))).ok());
}

TEST(AlgebraTest, ExtendConstant) {
  auto out = Extend(Edges(), "w", ScalarExpr::Const(Value(10)));
  ASSERT_TRUE(out.ok());
  for (const auto& t : out->tuples()) {
    EXPECT_EQ(t[2], Value(10));
  }
}

TEST(AlgebraTest, ScalarArithmetic) {
  Schema s({"a", "b"});
  Tuple row{Value(6), Value(4)};
  auto eval = [&](std::shared_ptr<ScalarExpr> e) {
    auto v = e->Eval(s, row);
    EXPECT_TRUE(v.ok());
    return v.value();
  };
  EXPECT_EQ(eval(ScalarExpr::Add(ScalarExpr::Column("a"),
                                 ScalarExpr::Column("b"))),
            Value(10));
  EXPECT_EQ(eval(ScalarExpr::Sub(ScalarExpr::Column("a"),
                                 ScalarExpr::Column("b"))),
            Value(2));
  EXPECT_EQ(eval(ScalarExpr::Mul(ScalarExpr::Column("a"),
                                 ScalarExpr::Column("b"))),
            Value(24));
  // Division always produces a double.
  Value d = eval(ScalarExpr::Div(ScalarExpr::Column("a"),
                                 ScalarExpr::Column("b")));
  ASSERT_TRUE(d.is_double());
  EXPECT_DOUBLE_EQ(d.AsDouble(), 1.5);
}

TEST(AlgebraTest, DivisionByZeroFails) {
  Schema s({"a"});
  Tuple row{Value(1)};
  auto e = ScalarExpr::Div(ScalarExpr::Column("a"),
                           ScalarExpr::Const(Value(0)));
  EXPECT_FALSE(e->Eval(s, row).ok());
}

TEST(AlgebraTest, PredicateNumericCoercion) {
  Schema s({"a"});
  Tuple row{Value(2)};
  auto p = Predicate::Cmp(CmpOp::kEq, ScalarExpr::Column("a"),
                          ScalarExpr::Const(Value(2.0)));
  auto r = p->Eval(s, row);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value());  // 2 == 2.0 numerically
}

TEST(AlgebraTest, PredicateBooleanConnectives) {
  Schema s({"a"});
  Tuple row{Value(5)};
  auto lt10 = Predicate::Cmp(CmpOp::kLt, ScalarExpr::Column("a"),
                             ScalarExpr::Const(Value(10)));
  auto gt7 = Predicate::Cmp(CmpOp::kGt, ScalarExpr::Column("a"),
                            ScalarExpr::Const(Value(7)));
  EXPECT_FALSE(Predicate::And(lt10, gt7)->Eval(s, row).value());
  EXPECT_TRUE(Predicate::Or(lt10, gt7)->Eval(s, row).value());
  EXPECT_TRUE(Predicate::Not(gt7)->Eval(s, row).value());
}

TEST(AlgebraTest, SingletonColumnHelper) {
  Relation r = SingletonColumn("p", {Value(1), Value(2)});
  EXPECT_EQ(r.schema(), Schema({"p"}));
  EXPECT_EQ(r.size(), 2u);
}

}  // namespace
}  // namespace pfql
