// Minimal dense linear algebra: matrices over double and exact Gaussian
// elimination over any field type (double or BigRational). Used to compute
// stationary distributions (πP = π) and absorption probabilities for
// Markov chains over database states (paper Prop 5.4 / Thm 5.5).
#ifndef PFQL_MARKOV_MATRIX_H_
#define PFQL_MARKOV_MATRIX_H_

#include <cmath>
#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/rational.h"
#include "util/status.h"

namespace pfql {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() : rows_(0), cols_(0) {}
  DenseMatrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Identity matrix of size n.
  static DenseMatrix Identity(size_t n);

  /// this * other; dimensions must agree.
  StatusOr<DenseMatrix> Multiply(const DenseMatrix& other) const;

  /// Row vector v (size rows()==1 not required: v is a plain vector) times
  /// this: returns v * M.
  StatusOr<std::vector<double>> LeftMultiply(
      const std::vector<double>& v) const;

  DenseMatrix Transposed() const;

 private:
  size_t rows_, cols_;
  std::vector<double> data_;
};

/// Solves A x = b by Gaussian elimination with partial pivoting.
/// A must be square; returns InvalidArgument on singular systems.
StatusOr<std::vector<double>> SolveLinearSystem(DenseMatrix a,
                                                std::vector<double> b);

namespace internal {
template <typename F>
bool FieldIsZero(const F& v) {
  if constexpr (std::is_same_v<F, double>) {
    return std::fabs(v) < 1e-12;
  } else {
    return v.IsZero();
  }
}
template <typename F>
bool PivotBetter(const F& candidate, const F& incumbent) {
  if constexpr (std::is_same_v<F, double>) {
    return std::fabs(candidate) > std::fabs(incumbent);
  } else {
    // Exact fields need any nonzero pivot.
    return incumbent.IsZero() && !candidate.IsZero();
  }
}
}  // namespace internal

/// Exact / generic Gauss-Jordan elimination: solves A X = B over field F
/// (double or BigRational) for every column of B with one elimination of
/// A. A is given as a vector of rows, B as a vector of columns; both are
/// consumed, and the solution comes back as columns. Pivots and row
/// factors depend on A alone, so each column's solution is exactly what a
/// single-column solve would give.
template <typename F>
StatusOr<std::vector<std::vector<F>>> SolveLinearSystemFieldColumns(
    std::vector<std::vector<F>> a, std::vector<std::vector<F>> b) {
  // Over an exact field an update by a zero entry is a no-op, so it is
  // skipped, and the eliminated entry is exactly zero. The double solver
  // keeps every update so that its rounding, and results, stay as they are.
  constexpr bool kExact = !std::is_same_v<F, double>;
  const size_t n = a.size();
  for (const auto& row : a) {
    if (row.size() != n) {
      return Status::InvalidArgument("non-square system");
    }
  }
  for (const auto& column : b) {
    if (column.size() != n) return Status::InvalidArgument("rhs size mismatch");
  }

  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (internal::PivotBetter(a[r][col], a[pivot][col])) pivot = r;
    }
    if (internal::FieldIsZero(a[pivot][col])) {
      return Status::InvalidArgument("singular linear system");
    }
    std::swap(a[col], a[pivot]);
    for (auto& column : b) std::swap(column[col], column[pivot]);
    for (size_t r = 0; r < n; ++r) {
      if (r == col || internal::FieldIsZero(a[r][col])) continue;
      F factor = a[r][col] / a[col][col];
      size_t c = col;
      if constexpr (kExact) {
        a[r][col] = F(0);  // what the update below would compute
        ++c;
      }
      for (; c < n; ++c) {
        if constexpr (kExact) {
          if (a[col][c].IsZero()) continue;
        }
        a[r][c] = a[r][c] - factor * a[col][c];
      }
      for (auto& column : b) {
        if constexpr (kExact) {
          if (column[col].IsZero()) continue;
        }
        column[r] = column[r] - factor * column[col];
      }
    }
  }
  std::vector<std::vector<F>> x(b.size());
  for (size_t k = 0; k < b.size(); ++k) {
    x[k].reserve(n);
    for (size_t i = 0; i < n; ++i) x[k].push_back(b[k][i] / a[i][i]);
  }
  return x;
}

/// Single right-hand side: solves A x = b over field F.
template <typename F>
StatusOr<std::vector<F>> SolveLinearSystemField(std::vector<std::vector<F>> a,
                                                std::vector<F> b) {
  std::vector<std::vector<F>> columns;
  columns.push_back(std::move(b));
  PFQL_ASSIGN_OR_RETURN(
      std::vector<std::vector<F>> x,
      SolveLinearSystemFieldColumns<F>(std::move(a), std::move(columns)));
  return std::move(x[0]);
}

}  // namespace pfql

#endif  // PFQL_MARKOV_MATRIX_H_
