// Dense double-precision column vector with checked access.
//
// Storage is inline (small_store.hpp) up to kInlineCapacity components, so
// state vectors of the paper's 2-10-state plants are copied and returned
// without touching the allocator; longer vectors spill to the heap.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "linalg/small_store.hpp"

namespace cps::linalg {

class Matrix;

class Vector {
 public:
  /// Inline storage capacity; longer vectors go to the heap.  Sized for
  /// augmented plant states (n + m <= 8 across every fleet in the repo)
  /// rather than matching Matrix::kInlineCapacity: recorded trajectories
  /// store one Vector per Sample, so the inline footprint is store-
  /// bandwidth in the simulate() hot loop.
  static constexpr std::size_t kInlineCapacity = 8;

  Vector() = default;
  explicit Vector(std::size_t n, double fill = 0.0) : data_(n, fill) {}
  Vector(std::initializer_list<double> values);
  explicit Vector(const std::vector<double>& values);

  static Vector zero(std::size_t n) { return Vector(n, 0.0); }

  /// Unit vector e_i of dimension n.
  static Vector unit(std::size_t n, std::size_t i);

  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Checked element access (inline fast path; the throw on an
  /// out-of-range index is out of line).
  double& operator[](std::size_t i) {
    if (i >= data_.size()) throw_index_error();
    return data_[i];
  }
  double operator[](std::size_t i) const {
    if (i >= data_.size()) throw_index_error();
    return data_[i];
  }

  Vector operator+(const Vector& rhs) const;
  Vector operator-(const Vector& rhs) const;
  Vector operator*(double s) const;
  Vector operator/(double s) const;
  Vector operator-() const;
  Vector& operator+=(const Vector& rhs);
  Vector& operator-=(const Vector& rhs);

  bool operator==(const Vector& rhs) const { return data_ == rhs.data_; }

  /// Inner product (sizes must match).
  double dot(const Vector& rhs) const;

  /// Euclidean norm — this is the ‖x‖ of the paper's threshold test.
  double norm() const;

  /// Max absolute component.
  double norm_inf() const;

  /// Outer product: (this) * rhs^T.
  Matrix outer(const Vector& rhs) const;

  /// First `n` components.
  Vector head(std::size_t n) const;

  /// Concatenate two vectors.
  static Vector concat(const Vector& a, const Vector& b);

  bool approx_equal(const Vector& rhs, double tol) const;
  bool all_finite() const;

  std::string to_string(int precision = 6) const;

  /// Raw storage, unchecked: for kernels and serialization.  Release hot
  /// loops use these to skip the bounds check of operator[]; callers own
  /// the range [data(), data() + size()).
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Overwrite with the `n` doubles at `src` (unchecked raw fill; the
  /// counterpart of data() for kernels that keep state in raw buffers).
  void assign(const double* src, std::size_t n) {
    data_.resize_discard(n);
    double* dst = data_.data();
    for (std::size_t i = 0; i < n; ++i) dst[i] = src[i];
  }

  /// Copy out as a std::vector (serialization / interop).
  std::vector<double> to_std_vector() const;

  /// Exchange payloads with `other`; never allocates, so simulation loops
  /// can double-buffer (apply_into + swap) without heap traffic.
  void swap(Vector& other) noexcept { data_.swap(other.data_); }

 private:
  [[noreturn]] void throw_index_error() const;

  detail::SmallStore<double, kInlineCapacity> data_;
};

Vector operator*(double s, const Vector& v);

}  // namespace cps::linalg
