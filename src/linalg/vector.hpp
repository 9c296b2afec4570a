// Dense double vector with the BLAS-1 operations the ML stack needs.
//
// Deliberately a thin value type over std::vector<double>: PUF models hold
// 33-65 element weight vectors, the MLP holds a few thousand parameters, so
// simplicity and copy-friendliness beat expression templates here.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace xpuf::linalg {

class Vector {
 public:
  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> init) : data_(init) {}
  explicit Vector(std::vector<double> data) : data_(std::move(data)) {}

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

  /// Bounds-checked access (throws std::out_of_range).
  double& at(std::size_t i) { return data_.at(i); }
  double at(std::size_t i) const { return data_.at(i); }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  std::span<const double> span() const { return {data_.data(), data_.size()}; }
  std::span<double> span() { return {data_.data(), data_.size()}; }

  auto begin() { return data_.begin(); }
  auto end() { return data_.end(); }
  auto begin() const { return data_.begin(); }
  auto end() const { return data_.end(); }

  const std::vector<double>& raw() const { return data_; }

  void resize(std::size_t n, double fill = 0.0) { data_.resize(n, fill); }
  void fill(double v) { data_.assign(data_.size(), v); }

  /// Amortized O(1) append (std::vector geometric growth underneath) — the
  /// building block for incrementally assembled targets (ml::Dataset::add).
  void push_back(double v) { data_.push_back(v); }
  void reserve(std::size_t n) { data_.reserve(n); }

  // Element-wise arithmetic. Dimension mismatches throw via XPUF_REQUIRE.
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);
  Vector& operator*=(double s);
  Vector& operator/=(double s);

  friend Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
  friend Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
  friend Vector operator*(Vector lhs, double s) { return lhs *= s; }
  friend Vector operator*(double s, Vector rhs) { return rhs *= s; }
  friend Vector operator/(Vector lhs, double s) { return lhs /= s; }

  bool operator==(const Vector& rhs) const = default;

 private:
  std::vector<double> data_;
};

/// Ascending-index dot product over raw spans — THE shared row-wise kernel.
/// Every scalar forward pass in the tree (regression predicts, PUF model
/// evaluation, linear-view delays, attack objectives) routes through this
/// one loop, so they all share the exact accumulation order of the GEMM
/// kernels (matmul_nt / matvec accumulate each output element the same way)
/// and batch-vs-scalar equivalence stays a bit-level claim. Inline so hot
/// loops pay no cross-TU call.
inline double dot(std::span<const double> a, std::span<const double> b) {
  XPUF_REQUIRE(a.size() == b.size(), "dot dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

/// Dot product; dimensions must match.
double dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double norm2(const Vector& v);

/// Infinity norm (max |x_i|); 0 for empty vectors.
double norm_inf(const Vector& v);

/// y += alpha * x (the BLAS axpy).
void axpy(double alpha, const Vector& x, Vector& y);

/// True if every element is finite.
bool all_finite(const Vector& v);

}  // namespace xpuf::linalg
