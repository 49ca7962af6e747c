#include "util/bigint.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <numeric>

namespace pfql {

namespace {

constexpr uint64_t kBase = 1ULL << 32;

void TrimMagnitude(std::vector<uint32_t>* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

// Value of a magnitude of at most two limbs.
uint64_t LowWord(const std::vector<uint32_t>& limbs) {
  uint64_t v = 0;
  for (size_t i = limbs.size(); i-- > 0;) v = (v << 32) | limbs[i];
  return v;
}

}  // namespace

BigInt::BigInt(int64_t v) : negative_(v < 0) {
  // Avoid UB on INT64_MIN: negate in unsigned space.
  uint64_t mag = v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  while (mag != 0) {
    limbs_.push_back(static_cast<uint32_t>(mag & 0xffffffffULL));
    mag >>= 32;
  }
}

BigInt::BigInt(uint64_t v, bool negative) : negative_(negative) {
  while (v != 0) {
    limbs_.push_back(static_cast<uint32_t>(v & 0xffffffffULL));
    v >>= 32;
  }
  if (limbs_.empty()) negative_ = false;
}

void BigInt::Trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

StatusOr<BigInt> BigInt::FromString(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty integer literal");
  bool neg = false;
  size_t i = 0;
  if (s[0] == '+' || s[0] == '-') {
    neg = s[0] == '-';
    i = 1;
  }
  if (i == s.size()) return Status::ParseError("sign without digits");
  BigInt result;
  const BigInt ten(10);
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (c < '0' || c > '9') {
      return Status::ParseError(std::string("invalid digit '") + c +
                                "' in integer literal");
    }
    result = result * ten + BigInt(static_cast<int64_t>(c - '0'));
  }
  result.negative_ = neg && !result.IsZero();
  return result;
}

std::string BigInt::ToString() const {
  if (IsZero()) return "0";
  // Repeated division by 10^9 to extract decimal chunks.
  std::vector<uint32_t> mag = limbs_;
  std::string digits;
  constexpr uint32_t kChunk = 1000000000u;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / kChunk);
      rem = cur % kChunk;
    }
    while (!mag.empty() && mag.back() == 0) mag.pop_back();
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

double BigInt::ToDouble() const {
  double result = 0.0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    result = result * 4294967296.0 + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -result : result;
}

StatusOr<int64_t> BigInt::ToInt64() const {
  if (limbs_.size() > 2) return Status::OutOfRange("BigInt exceeds int64");
  uint64_t mag = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    mag = (mag << 32) | limbs_[i];
  }
  if (negative_) {
    if (mag > 0x8000000000000000ULL) {
      return Status::OutOfRange("BigInt exceeds int64");
    }
    return static_cast<int64_t>(~mag + 1);
  }
  if (mag > 0x7fffffffffffffffULL) {
    return Status::OutOfRange("BigInt exceeds int64");
  }
  return static_cast<int64_t>(mag);
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

int BigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMagnitude(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

BigInt BigInt::operator-() const {
  BigInt result = *this;
  if (!result.IsZero()) result.negative_ = !result.negative_;
  return result;
}

BigInt BigInt::Abs() const {
  BigInt result = *this;
  result.negative_ = false;
  return result;
}

std::vector<uint32_t> BigInt::AddMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffULL));
    carry = sum >> 32;
  }
  if (carry != 0) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

std::vector<uint32_t> BigInt::SubMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

std::vector<uint32_t> BigInt::MulMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    const uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry != 0) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
      ++k;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

BigInt BigInt::operator+(const BigInt& other) const {
  BigInt result;
  if (negative_ == other.negative_) {
    result.limbs_ = AddMagnitude(limbs_, other.limbs_);
    result.negative_ = negative_;
  } else {
    int cmp = CompareMagnitude(limbs_, other.limbs_);
    if (cmp == 0) return BigInt();
    if (cmp > 0) {
      result.limbs_ = SubMagnitude(limbs_, other.limbs_);
      result.negative_ = negative_;
    } else {
      result.limbs_ = SubMagnitude(other.limbs_, limbs_);
      result.negative_ = other.negative_;
    }
  }
  result.Trim();
  return result;
}

BigInt BigInt::operator-(const BigInt& other) const { return *this + (-other); }

BigInt BigInt::operator*(const BigInt& other) const {
  BigInt result;
  result.limbs_ = MulMagnitude(limbs_, other.limbs_);
  result.negative_ = !result.limbs_.empty() && (negative_ != other.negative_);
  return result;
}

void BigInt::DivModMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b,
                             std::vector<uint32_t>* quotient,
                             std::vector<uint32_t>* remainder) {
  // Single-limb divisor: one hardware division per dividend limb.
  if (b.size() == 1) {
    const uint64_t d = b[0];
    if (quotient != nullptr) quotient->assign(a.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      const uint64_t cur = (rem << 32) | a[i];
      if (quotient != nullptr) (*quotient)[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    remainder->clear();
    if (rem != 0) remainder->push_back(static_cast<uint32_t>(rem));
    if (quotient != nullptr) TrimMagnitude(quotient);
    return;
  }
  // Knuth, TAOCP vol. 2, 4.3.1, Algorithm D. Normalise so the divisor's top
  // limb has its high bit set; then each quotient limb estimated from the
  // top two dividend limbs is at most one too big once corrected against
  // the divisor's second limb, and one add-back repairs that case.
  const size_t n = b.size();
  const size_t m = a.size() - n;
  const int shift = std::countl_zero(b.back());
  std::vector<uint32_t> v(n);
  std::vector<uint32_t> u(a.size() + 1);
  if (shift == 0) {  // a shift by 32 - 0 bits would be undefined
    std::copy(b.begin(), b.end(), v.begin());
    std::copy(a.begin(), a.end(), u.begin());
    u[a.size()] = 0;
  } else {
    for (size_t i = n - 1; i > 0; --i) {
      v[i] = (b[i] << shift) | (b[i - 1] >> (32 - shift));
    }
    v[0] = b[0] << shift;
    u[a.size()] = a.back() >> (32 - shift);
    for (size_t i = a.size() - 1; i > 0; --i) {
      u[i] = (a[i] << shift) | (a[i - 1] >> (32 - shift));
    }
    u[0] = a[0] << shift;
  }
  if (quotient != nullptr) quotient->assign(m + 1, 0);
  const uint64_t v_top = v[n - 1];
  const uint64_t v_next = v[n - 2];
  for (size_t j = m + 1; j-- > 0;) {
    const uint64_t top = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = top / v_top;
    uint64_t rhat = top % v_top;
    while (qhat >= kBase ||
           qhat * v_next > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v_top;
      if (rhat >= kBase) break;
    }
    // u[j .. j+n] -= qhat * v.
    uint64_t carry = 0;
    int64_t borrow = 0;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      const int64_t t = static_cast<int64_t>(u[i + j]) - borrow -
                        static_cast<int64_t>(p & 0xffffffffULL);
      u[i + j] = static_cast<uint32_t>(t);
      borrow = t < 0 ? 1 : 0;
    }
    const int64_t t = static_cast<int64_t>(u[j + n]) - borrow -
                      static_cast<int64_t>(carry);
    u[j + n] = static_cast<uint32_t>(t);
    if (t < 0) {
      // qhat was one too big: add one divisor back.
      --qhat;
      uint64_t sum_carry = 0;
      for (size_t i = 0; i < n; ++i) {
        const uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + sum_carry;
        u[i + j] = static_cast<uint32_t>(sum);
        sum_carry = sum >> 32;
      }
      u[j + n] += static_cast<uint32_t>(sum_carry);
    }
    if (quotient != nullptr) (*quotient)[j] = static_cast<uint32_t>(qhat);
  }
  // The remainder is u[0 .. n-1], still shifted left by `shift`.
  remainder->resize(n);
  if (shift == 0) {
    std::copy(u.begin(), u.begin() + n, remainder->begin());
  } else {
    for (size_t i = 0; i < n; ++i) {
      (*remainder)[i] = (u[i] >> shift) | (u[i + 1] << (32 - shift));
    }
  }
  TrimMagnitude(remainder);
  if (quotient != nullptr) TrimMagnitude(quotient);
}

void BigInt::DivMod(const BigInt& dividend, const BigInt& divisor,
                    BigInt* quotient, BigInt* remainder) {
  assert(!divisor.IsZero() && "division by zero BigInt");
  if (CompareMagnitude(dividend.limbs_, divisor.limbs_) < 0) {
    *quotient = BigInt();
    *remainder = dividend;
    return;
  }
  BigInt qq, rr;
  DivModMagnitude(dividend.limbs_, divisor.limbs_, &qq.limbs_, &rr.limbs_);
  qq.negative_ = !qq.limbs_.empty() &&
                 (dividend.negative_ != divisor.negative_);
  rr.negative_ = !rr.limbs_.empty() && dividend.negative_;
  *quotient = std::move(qq);
  *remainder = std::move(rr);
}

BigInt BigInt::operator/(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return q;
}

BigInt BigInt::operator%(const BigInt& other) const {
  BigInt q, r;
  DivMod(*this, other, &q, &r);
  return r;
}

BigInt BigInt::Gcd(BigInt a, BigInt b) {
  a.negative_ = false;
  b.negative_ = false;
  std::vector<uint32_t> r;
  while (!b.IsZero()) {
    if (a.limbs_.size() <= 2 && b.limbs_.size() <= 2) {
      // Both fit in a machine word: finish there.
      return BigInt(std::gcd(LowWord(a.limbs_), LowWord(b.limbs_)), false);
    }
    if (CompareMagnitude(a.limbs_, b.limbs_) < 0) {
      std::swap(a.limbs_, b.limbs_);
      continue;
    }
    DivModMagnitude(a.limbs_, b.limbs_, nullptr, &r);
    std::swap(a.limbs_, b.limbs_);
    std::swap(b.limbs_, r);
  }
  return a;
}

BigInt BigInt::Pow(const BigInt& base, uint64_t exp) {
  BigInt result(1);
  BigInt cur = base;
  while (exp != 0) {
    if (exp & 1) result *= cur;
    exp >>= 1;
    if (exp != 0) cur *= cur;
  }
  return result;
}

size_t BigInt::Hash() const {
  size_t h = negative_ ? 0x9e3779b97f4a7c15ULL : 0;
  for (uint32_t limb : limbs_) {
    h ^= limb + 0x9e3779b9ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace pfql
