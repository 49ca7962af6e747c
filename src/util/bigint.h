// Arbitrary-precision signed integers, implemented from scratch
// (sign-magnitude, base 2^32 limbs). Exact probability computation multiplies
// thousands of rational weights (e.g. 1/2^n for n >> 64), so fixed-width
// integers are insufficient for the exact evaluation engines.
#ifndef PFQL_UTIL_BIGINT_H_
#define PFQL_UTIL_BIGINT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace pfql {

/// Arbitrary-precision signed integer.
///
/// Representation: sign flag + little-endian vector of 32-bit limbs with no
/// trailing zero limbs; zero is the empty limb vector with positive sign.
class BigInt {
 public:
  /// Zero.
  BigInt() : negative_(false) {}
  /// From a machine integer.
  BigInt(int64_t v);   // NOLINT: implicit by design, mirrors int literals.
  BigInt(uint64_t v, bool negative);

  /// Parses an optionally signed decimal string.
  static StatusOr<BigInt> FromString(std::string_view s);

  /// Decimal representation, e.g. "-1234".
  std::string ToString() const;

  /// Nearest double (may overflow to +/-inf for huge magnitudes).
  double ToDouble() const;

  /// Value as int64 if it fits.
  StatusOr<int64_t> ToInt64() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  bool IsOne() const {
    return !negative_ && limbs_.size() == 1 && limbs_[0] == 1;
  }

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  /// Three-way comparison: -1, 0, or +1.
  int Compare(const BigInt& other) const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& other) const;
  BigInt operator-(const BigInt& other) const;
  BigInt operator*(const BigInt& other) const;
  /// Truncated division (C++ semantics); other must be nonzero.
  BigInt operator/(const BigInt& other) const;
  /// Remainder with the sign of the dividend; other must be nonzero.
  BigInt operator%(const BigInt& other) const;

  BigInt& operator+=(const BigInt& other) { return *this = *this + other; }
  BigInt& operator-=(const BigInt& other) { return *this = *this - other; }
  BigInt& operator*=(const BigInt& other) { return *this = *this * other; }
  BigInt& operator/=(const BigInt& other) { return *this = *this / other; }
  BigInt& operator%=(const BigInt& other) { return *this = *this % other; }

  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  /// Greatest common divisor of |a| and |b| (always non-negative).
  static BigInt Gcd(BigInt a, BigInt b);

  /// base^exp for exp >= 0 (by repeated squaring).
  static BigInt Pow(const BigInt& base, uint64_t exp);

  /// Quotient and remainder in one pass; divisor must be nonzero.
  static void DivMod(const BigInt& dividend, const BigInt& divisor,
                     BigInt* quotient, BigInt* remainder);

  /// Hash suitable for unordered containers.
  size_t Hash() const;

 private:
  // Magnitude comparison: -1/0/+1.
  static int CompareMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);
  static std::vector<uint32_t> AddMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint32_t> SubMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  // Requires |a| >= |b| > 0. Writes the trimmed quotient (skipped when
  // `quotient` is null) and remainder magnitudes.
  static void DivModMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b,
                              std::vector<uint32_t>* quotient,
                              std::vector<uint32_t>* remainder);
  void Trim();

  bool negative_;
  std::vector<uint32_t> limbs_;  // little-endian, no trailing zeros
};

inline std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToString();
}

}  // namespace pfql

#endif  // PFQL_UTIL_BIGINT_H_
