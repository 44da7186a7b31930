// Batch delay-law kernels and delay-curve edge behavior.
//
// Two concerns share this suite: (1) the branch-free single-server
// kernels the batched allocator's derivative rows evaluate
// (queueing::detail::lin_*) must be bit-identical to the scalar entry
// points — that identity is what lets the batched allocator claim
// bit-identical trajectories; (2) the delay laws' edge regions — the
// rho_max knee, the linearized overload branch, and the derivative
// formulas themselves — are pinned against finite differences of the
// sojourn curve.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "queueing/delay.hpp"
#include "util/rng.hpp"

namespace {

using fap::queueing::DelayModel;
using fap::util::Rng;

// Every single-server discipline, pure and linearized. (M/M/c has no
// branch-free kernel: the batched allocator evaluates it through the
// scalar entry points.)
std::vector<DelayModel> single_server_models() {
  return {
      DelayModel::mm1(),     DelayModel::md1(),       DelayModel::mg1(0.3),
      DelayModel::mg1(2.4),  DelayModel::mm1(0.7),    DelayModel::md1(0.85),
      DelayModel::mg1(1.7, 0.6),
  };
}

// Random (a, mu) pairs valid for `model`: overload region included for
// linearized models, a < capacity enforced for pure ones.
void fill_random_points(const DelayModel& model, Rng& rng, std::size_t count,
                        std::vector<double>& a, std::vector<double>& mu) {
  a.resize(count);
  mu.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    mu[i] = rng.uniform(0.5, 3.0);
    const double capacity = model.capacity(mu[i]);
    const double hi =
        model.rho_max() < 1.0 ? 2.0 * capacity : 0.999 * capacity;
    a[i] = rng.uniform(0.0, hi);
  }
}

TEST(DelayBatch, BitIdenticalToScalarAcrossModelsAndPoints) {
  namespace detail = fap::queueing::detail;
  Rng rng(2024);
  for (const DelayModel& model : single_server_models()) {
    std::vector<double> a;
    std::vector<double> mu;
    fill_random_points(model, rng, 257, a, mu);
    const double scv = model.scv();
    const double rho_max = model.rho_max();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    detail::lin_sojourn(a[i], mu[i], scv, rho_max)),
                std::bit_cast<std::uint64_t>(model.sojourn(a[i], mu[i])))
          << "sojourn point " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    detail::lin_d_sojourn(a[i], mu[i], scv, rho_max)),
                std::bit_cast<std::uint64_t>(model.d_sojourn(a[i], mu[i])))
          << "d_sojourn point " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(
                    detail::lin_d2_sojourn(a[i], mu[i], scv, rho_max)),
                std::bit_cast<std::uint64_t>(model.d2_sojourn(a[i], mu[i])))
          << "d2_sojourn point " << i;
    }
  }
}

// --- rho_max knee boundary -------------------------------------------

// Exactly AT the knee (a == rho_max * mu) the tangent extension is used;
// its value and slope agree with the pure curve (the extension is the
// first-order Taylor expansion around the knee), and curvature drops to
// zero — the defining property of the linearization.
TEST(DelayEdge, KneeBoundaryIsContinuousWithZeroCurvatureBeyond) {
  const double mu = 2.0;
  const double rho_max = 0.8;
  for (const DelayModel& model :
       {DelayModel::mm1(rho_max), DelayModel::md1(rho_max),
        DelayModel::mg1(1.9, rho_max)}) {
    const double knee = rho_max * mu;
    const DelayModel pure(model.discipline(), model.scv(), 1.0);
    // Value and slope are continuous at the knee...
    EXPECT_DOUBLE_EQ(model.sojourn(knee, mu), pure.sojourn(knee, mu));
    EXPECT_DOUBLE_EQ(model.d_sojourn(knee, mu), pure.d_sojourn(knee, mu));
    // ...curvature is not (left limit positive, at/after the knee zero).
    EXPECT_GT(model.d2_sojourn(knee - 1e-9, mu), 0.0);
    EXPECT_EQ(model.d2_sojourn(knee, mu), 0.0);
    EXPECT_EQ(model.d2_sojourn(10.0 * knee, mu), 0.0);
  }
}

// In the linearized overload region (a > knee, even a > capacity) the
// curve is exactly affine: T(a) = T(knee) + T'(knee) (a - knee), finite
// for arbitrarily large a.
TEST(DelayEdge, OverloadRegionIsExactlyAffine) {
  const double mu = 1.5;
  const double rho_max = 0.75;
  const DelayModel model = DelayModel::mg1(0.4, rho_max);
  const double knee = rho_max * mu;
  const double t0 = model.sojourn(knee, mu);
  const double slope = model.d_sojourn(knee, mu);
  for (const double a : {knee + 0.1, mu, 2.0 * mu, 50.0 * mu}) {
    EXPECT_DOUBLE_EQ(model.sojourn(a, mu), t0 + slope * (a - knee));
    EXPECT_EQ(model.d_sojourn(a, mu), slope);
  }
}

// --- finite-difference consistency of the derivatives ----------------

// Central differences of sojourn() must match d_sojourn()/d2_sojourn()
// to truncation accuracy, for both the closed-form single-server models
// and the numerically-differentiated M/M/c model.
TEST(DelayEdge, DerivativesMatchFiniteDifferences) {
  struct Case {
    DelayModel model;
    double mu;
    double a;
  };
  const std::vector<Case> cases = {
      {DelayModel::mm1(), 2.0, 0.9},
      {DelayModel::md1(), 1.5, 0.6},
      {DelayModel::mg1(2.2), 2.5, 1.3},
      {DelayModel::mm1(0.9), 2.0, 1.2},  // below the knee, curved region
      {DelayModel::mmc(3), 1.0, 1.8},
      {DelayModel::mmc(2), 1.5, 1.1},
  };
  for (const Case& c : cases) {
    const double h = 1e-5 * c.mu;
    const double fd1 =
        (c.model.sojourn(c.a + h, c.mu) - c.model.sojourn(c.a - h, c.mu)) /
        (2.0 * h);
    const double fd2 = (c.model.sojourn(c.a + h, c.mu) -
                        2.0 * c.model.sojourn(c.a, c.mu) +
                        c.model.sojourn(c.a - h, c.mu)) /
                       (h * h);
    const double d1 = c.model.d_sojourn(c.a, c.mu);
    const double d2 = c.model.d2_sojourn(c.a, c.mu);
    EXPECT_NEAR(fd1, d1, 1e-5 * (1.0 + std::abs(d1)));
    EXPECT_NEAR(fd2, d2, 1e-3 * (1.0 + std::abs(d2)));
  }
}

}  // namespace
