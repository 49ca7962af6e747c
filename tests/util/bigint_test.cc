#include "util/bigint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/random.h"

namespace pfql {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.ToString(), "0");
}

TEST(BigIntTest, FromInt64RoundTrips) {
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{-1}, int64_t{42},
                    int64_t{-123456789}, INT64_MAX, INT64_MIN}) {
    BigInt b(v);
    auto back = b.ToInt64();
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(back.value(), v);
    EXPECT_EQ(b.ToString(), std::to_string(v));
  }
}

TEST(BigIntTest, Int64MinHandledWithoutOverflow) {
  BigInt b(INT64_MIN);
  EXPECT_EQ(b.ToString(), "-9223372036854775808");
  EXPECT_TRUE((-b).ToInt64().ok() == false ||
              (-b).ToString() == "9223372036854775808");
  EXPECT_EQ((-b).ToString(), "9223372036854775808");
}

TEST(BigIntTest, AdditionBasics) {
  EXPECT_EQ((BigInt(2) + BigInt(3)).ToString(), "5");
  EXPECT_EQ((BigInt(-2) + BigInt(3)).ToString(), "1");
  EXPECT_EQ((BigInt(2) + BigInt(-3)).ToString(), "-1");
  EXPECT_EQ((BigInt(-2) + BigInt(-3)).ToString(), "-5");
  EXPECT_EQ((BigInt(5) + BigInt(-5)).ToString(), "0");
}

TEST(BigIntTest, CarryPropagation) {
  BigInt a(int64_t{0xffffffff});
  EXPECT_EQ((a + BigInt(1)).ToString(), "4294967296");
  BigInt b = BigInt::Pow(BigInt(2), 64) - BigInt(1);
  EXPECT_EQ((b + BigInt(1)).ToString(), "18446744073709551616");
}

TEST(BigIntTest, MultiplicationBasics) {
  EXPECT_EQ((BigInt(6) * BigInt(7)).ToString(), "42");
  EXPECT_EQ((BigInt(-6) * BigInt(7)).ToString(), "-42");
  EXPECT_EQ((BigInt(-6) * BigInt(-7)).ToString(), "42");
  EXPECT_EQ((BigInt(0) * BigInt(12345)).ToString(), "0");
}

TEST(BigIntTest, LargeMultiplicationKnownValue) {
  // 2^128 computed two ways.
  BigInt p64 = BigInt::Pow(BigInt(2), 64);
  EXPECT_EQ((p64 * p64).ToString(), "340282366920938463463374607431768211456");
  EXPECT_EQ(BigInt::Pow(BigInt(2), 128).ToString(),
            "340282366920938463463374607431768211456");
}

TEST(BigIntTest, FactorialKnownValue) {
  BigInt f(1);
  for (int i = 2; i <= 30; ++i) f *= BigInt(i);
  EXPECT_EQ(f.ToString(), "265252859812191058636308480000000");
}

TEST(BigIntTest, DivisionBasics) {
  EXPECT_EQ((BigInt(42) / BigInt(7)).ToString(), "6");
  EXPECT_EQ((BigInt(43) / BigInt(7)).ToString(), "6");
  EXPECT_EQ((BigInt(43) % BigInt(7)).ToString(), "1");
  EXPECT_EQ((BigInt(-43) / BigInt(7)).ToString(), "-6");
  EXPECT_EQ((BigInt(-43) % BigInt(7)).ToString(), "-1");
  EXPECT_EQ((BigInt(43) / BigInt(-7)).ToString(), "-6");
}

TEST(BigIntTest, DivisionLargeByLarge) {
  BigInt a = BigInt::Pow(BigInt(10), 40);
  BigInt b = BigInt::Pow(BigInt(10), 20);
  EXPECT_EQ((a / b).ToString(), b.ToString());
  EXPECT_TRUE((a % b).IsZero());
}

TEST(BigIntTest, DivModReconstructsDividend) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    BigInt a(static_cast<int64_t>(rng.Next() >> 1));
    BigInt b(static_cast<int64_t>((rng.Next() >> 40) + 1));
    a = a * BigInt(static_cast<int64_t>(rng.Next() >> 32));  // widen
    BigInt q, r;
    BigInt::DivMod(a, b, &q, &r);
    EXPECT_EQ(q * b + r, a);
    EXPECT_TRUE(r.Abs() < b.Abs());
  }
}

TEST(BigIntTest, CompareOrdering) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_EQ(BigInt(7), BigInt(7));
  EXPECT_LT(BigInt(7), BigInt::Pow(BigInt(2), 100));
  EXPECT_LT(-BigInt::Pow(BigInt(2), 100), BigInt(-7));
}

TEST(BigIntTest, GcdKnownValues) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToString(), "1");
}

TEST(BigIntTest, PowEdgeCases) {
  EXPECT_EQ(BigInt::Pow(BigInt(5), 0).ToString(), "1");
  EXPECT_EQ(BigInt::Pow(BigInt(5), 1).ToString(), "5");
  EXPECT_EQ(BigInt::Pow(BigInt(0), 5).ToString(), "0");
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 3).ToString(), "-8");
  EXPECT_EQ(BigInt::Pow(BigInt(-2), 4).ToString(), "16");
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char* s :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-999999999999999999999999"}) {
    auto v = BigInt::FromString(s);
    ASSERT_TRUE(v.ok()) << s;
    EXPECT_EQ(v.value().ToString(), s);
  }
}

TEST(BigIntTest, FromStringRejectsGarbage) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a").ok());
  EXPECT_FALSE(BigInt::FromString("1.5").ok());
}

TEST(BigIntTest, NegativeZeroNormalized) {
  auto v = BigInt::FromString("-0");
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v.value().IsNegative());
  EXPECT_EQ(v.value(), BigInt(0));
}

TEST(BigIntTest, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(BigInt(12345).ToDouble(), 12345.0);
  EXPECT_DOUBLE_EQ(BigInt(-12345).ToDouble(), -12345.0);
  EXPECT_NEAR(BigInt::Pow(BigInt(2), 70).ToDouble(), std::pow(2.0, 70),
              1e-6 * std::pow(2.0, 70));
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(2).BitLength(), 2u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::Pow(BigInt(2), 100).BitLength(), 101u);
}

TEST(BigIntTest, HashEqualForEqualValues) {
  BigInt a = BigInt::Pow(BigInt(3), 50);
  BigInt b = BigInt::Pow(BigInt(3), 50);
  EXPECT_EQ(a.Hash(), b.Hash());
}

// Property sweep: ring axioms on random values.
class BigIntPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigIntPropertyTest, RingAxioms) {
  Rng rng(GetParam());
  auto random_big = [&rng]() {
    BigInt v(static_cast<int64_t>(rng.Next()));
    if (rng.NextBernoulli(0.5)) v = v * BigInt(static_cast<int64_t>(rng.Next() >> 16));
    return v;
  };
  BigInt a = random_big(), b = random_big(), c = random_big();
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a - a, BigInt(0));
  EXPECT_EQ(a + BigInt(0), a);
  EXPECT_EQ(a * BigInt(1), a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

// ---- Division and gcd properties ------------------------------------------
//
// Each check is an identity that characterises truncated division and the
// gcd, so it holds without trusting the division code: q·b + r = a,
// |r| < |b|, r carries the sign of a (or is zero), and g = Gcd(a, b)
// divides both operands with cofactors whose Bézout combination is 1.

// Little-endian base-2^32 limbs to a BigInt (built with + and * only).
BigInt FromLimbs(const std::vector<uint32_t>& limbs, bool negative = false) {
  const BigInt base = BigInt::Pow(BigInt(2), 32);
  BigInt v;
  for (size_t i = limbs.size(); i-- > 0;) {
    v = v * base + BigInt(static_cast<int64_t>(limbs[i]));
  }
  return negative ? -v : v;
}

void ExpectDivModIdentities(const BigInt& a, const BigInt& b) {
  BigInt q, r;
  BigInt::DivMod(a, b, &q, &r);
  EXPECT_EQ(q * b + r, a) << a << " / " << b;
  EXPECT_LT(r.Abs(), b.Abs()) << a << " / " << b;
  EXPECT_TRUE(r.IsZero() || r.IsNegative() == a.IsNegative())
      << a << " % " << b << " = " << r;
  EXPECT_EQ(a / b, q);
  EXPECT_EQ(a % b, r);
}

// Extended Euclid over / and % (themselves checked by the identities
// above): returns (x, y) with x·a + y·b = gcd(|a|, |b|) up to sign.
void Bezout(BigInt a, BigInt b, BigInt* x, BigInt* y) {
  BigInt x0(1), y0(0), x1(0), y1(1);
  while (!b.IsZero()) {
    BigInt q = a / b;
    BigInt r = a - q * b;
    a = std::move(b);
    b = std::move(r);
    BigInt x2 = x0 - q * x1, y2 = y0 - q * y1;
    x0 = std::move(x1);
    x1 = std::move(x2);
    y0 = std::move(y1);
    y1 = std::move(y2);
  }
  *x = a.IsNegative() ? -x0 : x0;
  *y = a.IsNegative() ? -y0 : y0;
}

void ExpectGcdIdentities(const BigInt& a, const BigInt& b) {
  const BigInt g = BigInt::Gcd(a, b);
  EXPECT_FALSE(g.IsNegative());
  if (a.IsZero() && b.IsZero()) {
    EXPECT_TRUE(g.IsZero());
    return;
  }
  ASSERT_FALSE(g.IsZero()) << a << ", " << b;
  EXPECT_TRUE((a % g).IsZero()) << g << " does not divide " << a;
  EXPECT_TRUE((b % g).IsZero()) << g << " does not divide " << b;
  // Coprime cofactors: some integer combination of a/g and b/g is 1.
  const BigInt ca = a / g, cb = b / g;
  BigInt x, y;
  Bezout(ca, cb, &x, &y);
  EXPECT_EQ(x * ca + y * cb, BigInt(1)) << a << ", " << b << " -> " << g;
}

BigInt RandomOperand(Rng* rng, size_t limbs) {
  std::vector<uint32_t> v(limbs);
  for (auto& limb : v) {
    // Mix uniform limbs with the extremes that stress carries and the
    // quotient-limb estimate.
    switch (rng->NextIndex(4)) {
      case 0: limb = 0; break;
      case 1: limb = 0xffffffffu; break;
      default: limb = static_cast<uint32_t>(rng->Next()); break;
    }
  }
  if (v.back() == 0) v.back() = 1 + static_cast<uint32_t>(rng->NextIndex(0xffffffffu));
  if (rng->NextBernoulli(0.25)) v.back() |= 0x80000000u;  // no normalisation
  return FromLimbs(v, rng->NextBernoulli(0.5));
}

class BigIntDivisionPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BigIntDivisionPropertyTest, DivModAndGcdIdentities) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const size_t b_limbs = 1 + rng.NextIndex(25);
    const size_t a_limbs = 1 + rng.NextIndex(25);
    const BigInt a = RandomOperand(&rng, a_limbs);
    const BigInt b = RandomOperand(&rng, b_limbs);
    ExpectDivModIdentities(a, b);
    ExpectDivModIdentities(b, a);
    ExpectGcdIdentities(a, b);
    // A shared factor makes the gcd non-trivial.
    const BigInt c = RandomOperand(&rng, 1 + rng.NextIndex(8));
    ExpectGcdIdentities(a * c, b * c);
    // Equal limb counts, and a dividend one limb longer than the divisor.
    const BigInt d = RandomOperand(&rng, b_limbs);
    ExpectDivModIdentities(d, b);
    ExpectDivModIdentities(d * BigInt::Pow(BigInt(2), 32) + a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigIntDivisionPropertyTest,
                         ::testing::Range<uint64_t>(1, 51));

TEST(BigIntDivisionTest, DivisorWithTopBitSet) {
  // Normalisation shift 0: the divisor's top limb already has its high bit.
  const BigInt b = FromLimbs({0x12345678u, 0x80000000u});
  const BigInt max2 = FromLimbs({0xffffffffu, 0xffffffffu});
  for (const BigInt& a :
       {FromLimbs({1, 2, 3, 4, 0xffffffffu}), FromLimbs({0, 0, 0, 0x80000000u}),
        max2, FromLimbs({5, 0x80000000u})}) {
    ExpectDivModIdentities(a, b);
    ExpectDivModIdentities(-a, b);
    ExpectDivModIdentities(a, max2);
    ExpectDivModIdentities(a, -max2);
    ExpectGcdIdentities(a, b);
  }
}

TEST(BigIntDivisionTest, AddBackStep) {
  // Operands on which the corrected quotient-limb estimate is still one too
  // big, so the step must add the divisor back (the first three are the
  // classic cases from Hacker's Delight's divmnu tests; the last has a
  // divisor needing no normalisation).
  const std::vector<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
      cases = {
          {{0, 0, 0x8000, 0x7fff}, {1, 0, 0x8000}},
          {{0, 0xfffe, 0, 0x8000}, {0xffff, 0, 0x8000}},
          {{3, 0, 0x8000}, {1, 0, 0x2000}},
          {{0x80000000u, 0, 1, 0x80000000u}, {0x3852b941u, 1, 0x80000000u}},
      };
  for (const auto& [a_limbs, b_limbs] : cases) {
    const BigInt a = FromLimbs(a_limbs), b = FromLimbs(b_limbs);
    ExpectDivModIdentities(a, b);
    ExpectDivModIdentities(-a, b);
    ExpectDivModIdentities(a, -b);
    ExpectGcdIdentities(a, b);
  }
  // The shift-0 case's quotient, from an independent computation.
  EXPECT_EQ(FromLimbs({0x80000000u, 0, 1, 0x80000000u}) /
                FromLimbs({0x3852b941u, 1, 0x80000000u}),
            BigInt(int64_t{4294967295}));
}

TEST(BigIntDivisionTest, EqualLimbCounts) {
  const BigInt a = FromLimbs({7, 9, 0xfffffff0u});
  const BigInt b = FromLimbs({7, 9, 0x0ffffff0u});
  ExpectDivModIdentities(a, b);
  ExpectDivModIdentities(b, a);
  ExpectDivModIdentities(a, a);
  ExpectDivModIdentities(a, -a);
  EXPECT_EQ(a / a, BigInt(1));
  EXPECT_TRUE((a % a).IsZero());
  ExpectGcdIdentities(a, b);
}

TEST(BigIntDivisionTest, Int64Min) {
  const BigInt min(INT64_MIN);
  for (const BigInt& b :
       {BigInt(-1), BigInt(1), BigInt(3), BigInt(-7), min, BigInt(INT64_MAX),
        FromLimbs({1, 0, 1}), FromLimbs({0xffffffffu, 0xffffffffu})}) {
    ExpectDivModIdentities(min, b);
    ExpectDivModIdentities(b, min);
    ExpectGcdIdentities(min, b);
  }
  EXPECT_EQ((min / BigInt(-1)).ToString(), "9223372036854775808");
  EXPECT_EQ(BigInt::Gcd(min, min).ToString(), "9223372036854775808");
  EXPECT_EQ(BigInt::Gcd(min, BigInt(6)).ToString(), "2");
  ExpectGcdIdentities(min, BigInt(0));
  ExpectGcdIdentities(BigInt(0), BigInt(0));
}

}  // namespace
}  // namespace pfql
