#include "qfr/la/sparse.hpp"

#include <algorithm>
#include <cmath>

namespace qfr::la {

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> triplets) {
  for (const auto& t : triplets)
    QFR_REQUIRE(t.row < rows && t.col < cols,
                "triplet (" << t.row << ", " << t.col << ") out of bounds for "
                            << rows << "x" << cols);
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());

  std::size_t i = 0;
  while (i < triplets.size()) {
    const std::size_t r = triplets[i].row;
    const std::size_t c = triplets[i].col;
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r &&
           triplets[i].col == c) {
      v += triplets[i].value;
      ++i;
    }
    m.col_idx_.push_back(c);
    m.values_.push_back(v);
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  // Rows with no entries inherit the previous offset.
  for (std::size_t r = 1; r <= rows; ++r)
    m.row_ptr_[r] = std::max(m.row_ptr_[r], m.row_ptr_[r - 1]);
  return m;
}

void CsrMatrix::matvec(double alpha, std::span<const double> x, double beta,
                       std::span<double> y) const {
  QFR_REQUIRE(x.size() == cols_ && y.size() == rows_, "matvec shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k] * x[col_idx_[k]];
    y[r] = beta * y[r] + alpha * acc;
  }
}

Vector CsrMatrix::apply(std::span<const double> x) const {
  Vector y(rows_, 0.0);
  matvec(1.0, x, 0.0, y);
  return y;
}

Matrix CsrMatrix::to_dense() const {
  Matrix d(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      d(r, col_idx_[k]) += values_[k];
  return d;
}

double CsrMatrix::symmetry_defect() const {
  QFR_REQUIRE(rows_ == cols_, "symmetry_defect requires a square matrix");
  double defect = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = col_idx_[k];
      // Binary-search the transposed entry in row c.
      const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[c]);
      const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[c + 1]);
      const auto it = std::lower_bound(begin, end, r);
      const double vt = (it != end && *it == r)
                            ? values_[static_cast<std::size_t>(it - col_idx_.begin())]
                            : 0.0;
      defect = std::max(defect, std::fabs(values_[k] - vt));
    }
  }
  return defect;
}

void CsrMatrix::scale_symmetric(std::span<const double> s) {
  QFR_REQUIRE(rows_ == cols_ && s.size() == rows_,
              "scale_symmetric shape mismatch");
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      values_[k] *= s[r] * s[col_idx_[k]];
}

}  // namespace qfr::la
