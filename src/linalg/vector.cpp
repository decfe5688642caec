#include "linalg/vector.hpp"

#include <cmath>
#include <sstream>

#include "linalg/matrix.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace cps::linalg {

Vector::Vector(std::initializer_list<double> values) {
  data_.resize_discard(values.size());
  double* out = data_.data();
  for (const double v : values) *out++ = v;
}

Vector::Vector(const std::vector<double>& values) {
  data_.resize_discard(values.size());
  double* out = data_.data();
  for (const double v : values) *out++ = v;
}

std::vector<double> Vector::to_std_vector() const {
  return std::vector<double>(data_.begin(), data_.end());
}

Vector Vector::unit(std::size_t n, std::size_t i) {
  if (i >= n) throw DimensionMismatch("Vector::unit index out of range");
  Vector v(n);
  v[i] = 1.0;
  return v;
}

void Vector::throw_index_error() const {
  throw DimensionMismatch("Vector index out of range");
}

Vector Vector::operator+(const Vector& rhs) const {
  Vector out = *this;
  out += rhs;
  return out;
}

Vector Vector::operator-(const Vector& rhs) const {
  Vector out = *this;
  out -= rhs;
  return out;
}

Vector& Vector::operator+=(const Vector& rhs) {
  if (size() != rhs.size()) throw DimensionMismatch("Vector addition requires equal sizes");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& rhs) {
  if (size() != rhs.size()) throw DimensionMismatch("Vector subtraction requires equal sizes");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Vector Vector::operator*(double s) const {
  Vector out = *this;
  for (double& v : out.data_) v *= s;
  return out;
}

Vector Vector::operator/(double s) const {
  if (s == 0.0) throw NumericalError("Vector division by zero scalar");
  return *this * (1.0 / s);
}

Vector Vector::operator-() const { return *this * -1.0; }

double Vector::dot(const Vector& rhs) const {
  if (size() != rhs.size()) throw DimensionMismatch("Vector::dot requires equal sizes");
  double acc = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) acc += data_[i] * rhs.data_[i];
  return acc;
}

double Vector::norm() const { return std::sqrt(dot(*this)); }

double Vector::norm_inf() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

Matrix Vector::outer(const Vector& rhs) const {
  Matrix out(size(), rhs.size());
  for (std::size_t i = 0; i < size(); ++i)
    for (std::size_t j = 0; j < rhs.size(); ++j) out(i, j) = data_[i] * rhs.data_[j];
  return out;
}

Vector Vector::head(std::size_t n) const {
  if (n > size()) throw DimensionMismatch("Vector::head out of range");
  Vector out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = data_[i];
  return out;
}

Vector Vector::concat(const Vector& a, const Vector& b) {
  Vector out(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i];
  for (std::size_t i = 0; i < b.size(); ++i) out[a.size() + i] = b[i];
  return out;
}

bool Vector::approx_equal(const Vector& rhs, double tol) const {
  if (size() != rhs.size()) return false;
  for (std::size_t i = 0; i < data_.size(); ++i)
    if (std::fabs(data_[i] - rhs.data_[i]) > tol) return false;
  return true;
}

bool Vector::all_finite() const {
  for (double v : data_)
    if (!std::isfinite(v)) return false;
  return true;
}

std::string Vector::to_string(int precision) const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < data_.size(); ++i) {
    os << format_fixed(data_[i], precision);
    if (i + 1 != data_.size()) os << ", ";
  }
  os << "]";
  return os.str();
}

Vector operator*(double s, const Vector& v) { return v * s; }

}  // namespace cps::linalg
