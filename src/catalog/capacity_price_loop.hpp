// Outer dual loop of the catalog engine: tâtonnement on per-node
// capacity prices.
//
// Lagrangian decomposition of the joint catalog problem: relaxing the
// coupling constraints Σ_o v_o x_i^o <= B_i with multipliers p_i >= 0
// adds v_o p_i to object o's access cost at node i and NOTHING else —
// the relaxed problem separates into K independent single-file FAPs,
// each solvable by the paper's resource-directed algorithm. The
// multipliers themselves follow the price-directed mechanism of
// Section 2 (econ::tatonnement_step), one resource per node:
//
//   p_i <- max(0, p_i + γ_i (demand_i - B_i)),   γ_i = γ · scale / B_i
//
// so a node overloaded by fraction f sees its price move by γ·scale·f
// regardless of its absolute budget. The policy is fixed: prices start
// at 0, γ starts at kInitialGamma and is multiplied by kGammaDecay on
// every round that fails to reduce the overload residual, and the loop
// stops at kTolerance or after kMaxRounds price updates.
// CapacityPriceLoop owns the price vector and the convergence/oscillation
// diagnostics; the CatalogSolver feeds it one demand vector per round of
// inner solves.
#pragma once

#include <cstddef>
#include <vector>

namespace fap::catalog {

class CapacityPriceLoop {
 public:
  /// Normalized adjustment speed γ of the first price update.
  static constexpr double kInitialGamma = 0.5;
  /// γ multiplier on a round whose residual is no better than the
  /// previous round's. The demand response of a mostly point-mass
  /// catalog is steppy; backing off the speed damps the resulting price
  /// oscillation.
  static constexpr double kGammaDecay = 0.5;
  /// Convergence: max relative overload max_i (d_i - B_i)/B_i at or
  /// below this. The deterministic repair pass (catalog_solver.cpp)
  /// closes the remaining gap to exactly feasible, so the dual loop only
  /// needs to get close, not exact.
  static constexpr double kTolerance = 0.01;
  /// Price updates before giving up.
  static constexpr std::size_t kMaxRounds = 16;

  /// Capacities are the supply side B_i. `price_scale` (price units per
  /// unit of relative overload) converts the dimensionless residual into
  /// the access-cost scale the inner solves compare prices against.
  /// Prices start at 0: every constraint is assumed slack until demand
  /// proves otherwise, which keeps the slack-capacity path identical to
  /// the unconstrained single-file solve.
  CapacityPriceLoop(std::vector<double> capacity, double price_scale);

  const std::vector<double>& prices() const noexcept { return prices_; }

  /// Ingests one round's node demand (Σ_o v_o x_i^o per node). Computes
  /// the relative overload residual FIRST; when it is within tolerance
  /// the loop records convergence and returns true WITHOUT moving prices
  /// — the caller's last allocation is the one produced by the posted
  /// prices. Otherwise prices take one projected tâtonnement step (γ
  /// decayed first on a non-improving round) and false is returned.
  /// Calling update after convergence or after kMaxRounds price updates
  /// throws.
  bool update(const std::vector<double>& demand);

  bool converged() const noexcept { return converged_; }
  /// True while another update() call is admissible.
  bool active() const noexcept {
    return !converged_ && diagnostics_.rounds < kMaxRounds;
  }
  /// Residual of the most recent update (max relative overload).
  double residual() const noexcept {
    return diagnostics_.residual_history.empty()
               ? 0.0
               : diagnostics_.residual_history.back();
  }

  struct Diagnostics {
    std::size_t rounds = 0;  ///< price updates taken
    /// Residual observed by every update() call, in order (one more
    /// entry than `rounds` once converged).
    std::vector<double> residual_history;
    /// Rounds whose residual was no better than the previous round's —
    /// the oscillation/stall count γ decays on.
    std::size_t oscillations = 0;
    double gamma = kInitialGamma;  ///< current speed after decay
  };
  const Diagnostics& diagnostics() const noexcept { return diagnostics_; }

 private:
  std::vector<double> capacity_;
  std::vector<double> prices_;
  std::vector<double> gamma_;  ///< per-node γ_i, refreshed every update
  double price_scale_;
  Diagnostics diagnostics_;
  bool converged_ = false;
};

}  // namespace fap::catalog
