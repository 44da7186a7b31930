#include "util/numeric.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/contracts.hpp"

namespace {

namespace util = fap::util;

TEST(AlmostEqual, Basics) {
  EXPECT_TRUE(util::almost_equal(1.0, 1.0));
  EXPECT_TRUE(util::almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(util::almost_equal(1.0, 1.001));
  EXPECT_TRUE(util::almost_equal(1e12, 1e12 + 1.0, 0.0, 1e-9));
  EXPECT_TRUE(util::almost_equal(0.0, 1e-12));
}

TEST(NumericGradient, MatchesPolynomialDerivative) {
  const auto f = [](const std::vector<double>& x) {
    return x[0] * x[0] + 3.0 * x[1] + x[0] * x[1] * x[1];
  };
  const std::vector<double> point{2.0, -1.0};
  const std::vector<double> grad = util::numeric_gradient(f, point);
  // df/dx0 = 2 x0 + x1² = 5; df/dx1 = 3 + 2 x0 x1 = -1.
  EXPECT_NEAR(grad[0], 5.0, 1e-6);
  EXPECT_NEAR(grad[1], -1.0, 1e-6);
}

TEST(NumericSecondDerivative, MatchesPolynomial) {
  const auto f = [](const std::vector<double>& x) {
    return std::pow(x[0], 4);
  };
  // d²/dx² x^4 = 12 x² = 48 at x = 2.
  EXPECT_NEAR(util::numeric_second_derivative(f, {2.0}, 0), 48.0, 1e-3);
}

// f evaluated at every abscissa, in order.
template <typename F>
std::vector<double> values_at(const std::vector<double>& xs, F f) {
  std::vector<double> values;
  values.reserve(xs.size());
  for (const double x : xs) {
    values.push_back(f(x));
  }
  return values;
}

TEST(GridMinimize, FindsBestGridPoint) {
  const std::vector<double> xs = util::grid_points(0.0, 1.0, 101);
  const util::GridMinimum result = util::grid_select(
      xs, values_at(xs, [](double x) { return std::fabs(x - 0.42); }));
  EXPECT_NEAR(result.x, 0.42, 0.005 + 1e-12);
}

TEST(GridMinimize, EvaluatesEndpoints) {
  const std::vector<double> xs = util::grid_points(0.0, 2.0, 5);
  const util::GridMinimum result =
      util::grid_select(xs, values_at(xs, [](double x) { return -x; }));
  EXPECT_DOUBLE_EQ(result.x, 2.0);
  EXPECT_DOUBLE_EQ(result.value, -2.0);
}

TEST(Sum, AddsElements) {
  EXPECT_DOUBLE_EQ(util::sum({}), 0.0);
  EXPECT_DOUBLE_EQ(util::sum({1.5, 2.5, -1.0}), 3.0);
}

TEST(ParseUint64, AcceptsPlainDecimalValues) {
  std::uint64_t value = 99;
  EXPECT_TRUE(util::parse_uint64("0", value));
  EXPECT_EQ(value, 0u);
  EXPECT_TRUE(util::parse_uint64("8", value));
  EXPECT_EQ(value, 8u);
  EXPECT_TRUE(util::parse_uint64("123456789", value));
  EXPECT_EQ(value, 123456789u);
  // Exactly UINT64_MAX still fits.
  EXPECT_TRUE(util::parse_uint64("18446744073709551615", value));
  EXPECT_EQ(value, ~std::uint64_t{0});
}

TEST(ParseUint64, RejectsNegativeInput) {
  // The regression this parser exists for: strtoull("-3") silently
  // wraps to 2^64 - 3, so "--jobs -3" used to request ~1.8e19 threads.
  std::uint64_t value = 7;
  EXPECT_FALSE(util::parse_uint64("-3", value));
  EXPECT_FALSE(util::parse_uint64("-0", value));
  EXPECT_EQ(value, 7u);  // failure leaves the output untouched
}

TEST(ParseUint64, RejectsOverflow) {
  std::uint64_t value = 7;
  // One past UINT64_MAX, and something absurd.
  EXPECT_FALSE(util::parse_uint64("18446744073709551616", value));
  EXPECT_FALSE(util::parse_uint64("99999999999999999999999", value));
  EXPECT_EQ(value, 7u);
}

TEST(ParseUint64, RejectsNonNumericJunk) {
  std::uint64_t value = 7;
  EXPECT_FALSE(util::parse_uint64(nullptr, value));
  EXPECT_FALSE(util::parse_uint64("", value));
  EXPECT_FALSE(util::parse_uint64("+3", value));
  EXPECT_FALSE(util::parse_uint64(" 3", value));
  EXPECT_FALSE(util::parse_uint64("3 ", value));
  EXPECT_FALSE(util::parse_uint64("12x", value));
  EXPECT_FALSE(util::parse_uint64("0x10", value));
  EXPECT_FALSE(util::parse_uint64("1e3", value));
  EXPECT_EQ(value, 7u);
}

TEST(LinfDistance, MaxAbsoluteDifference) {
  EXPECT_DOUBLE_EQ(util::linf_distance({1.0, 2.0}, {1.5, 1.0}), 1.0);
  EXPECT_THROW(util::linf_distance({1.0}, {1.0, 2.0}),
               fap::util::PreconditionError);
}

}  // namespace
