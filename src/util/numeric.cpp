#include "util/numeric.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace fap::util {

bool almost_equal(double a, double b, double abs_tol, double rel_tol) noexcept {
  const double diff = std::fabs(a - b);
  return diff <= abs_tol + rel_tol * std::max(std::fabs(a), std::fabs(b));
}

std::vector<double> numeric_gradient(
    const std::function<double(const std::vector<double>&)>& f,
    std::vector<double> x, double h) {
  std::vector<double> grad(x.size(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double original = x[i];
    x[i] = original + h;
    const double fp = f(x);
    x[i] = original - h;
    const double fm = f(x);
    x[i] = original;
    grad[i] = (fp - fm) / (2.0 * h);
  }
  return grad;
}

double numeric_second_derivative(
    const std::function<double(const std::vector<double>&)>& f,
    std::vector<double> x, std::size_t i, double h) {
  FAP_EXPECTS(i < x.size(), "coordinate out of range");
  const double original = x[i];
  const double f0 = f(x);
  x[i] = original + h;
  const double fp = f(x);
  x[i] = original - h;
  const double fm = f(x);
  return (fp - 2.0 * f0 + fm) / (h * h);
}

std::vector<double> grid_points(double lo, double hi, std::size_t points) {
  FAP_EXPECTS(points >= 2, "grid needs at least two points");
  FAP_EXPECTS(hi > lo, "grid range must be non-empty");
  std::vector<double> xs;
  xs.reserve(points);
  xs.push_back(lo);
  const double step = (hi - lo) / static_cast<double>(points - 1);
  for (std::size_t i = 1; i < points; ++i) {
    xs.push_back(lo + step * static_cast<double>(i));
  }
  return xs;
}

GridMinimum grid_select(const std::vector<double>& xs,
                        const std::vector<double>& values) {
  FAP_EXPECTS(!xs.empty() && xs.size() == values.size(),
              "grid_select needs one value per abscissa");
  GridMinimum best{xs[0], values[0], 0};
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (values[i] < best.value) {
      best = GridMinimum{xs[i], values[i], i};
    }
  }
  return best;
}

bool parse_uint64(const char* text, std::uint64_t& out) noexcept {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  std::uint64_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') {
      return false;  // signs, whitespace, and trailing junk all land here
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(*p - '0');
    if (value > (~std::uint64_t{0} - digit) / 10) {
      return false;  // would overflow (the ERANGE case)
    }
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

double sum(const std::vector<double>& v) noexcept {
  double total = 0.0;
  for (const double x : v) {
    total += x;
  }
  return total;
}

double stable_sum(const std::vector<double>& v) noexcept {
  NeumaierSum acc;
  for (const double x : v) {
    acc.add(x);
  }
  return acc.value();
}

double linf_distance(const std::vector<double>& a,
                     const std::vector<double>& b) {
  FAP_EXPECTS(a.size() == b.size(), "size mismatch");
  double dist = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dist = std::max(dist, std::fabs(a[i] - b[i]));
  }
  return dist;
}

}  // namespace fap::util
