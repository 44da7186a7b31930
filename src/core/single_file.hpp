// The paper's primary objective: one copy of one file fragmented over N
// nodes (Section 4, Eq. 1-2), with the Section 5.4 generalizations:
// per-node service rates μ_i, query/update cost weighting, and alternate
// (M/G/1) queueing disciplines.
//
//   C(x) = Σ_i ( C_i + k · T(λ x_i, μ_i) ) x_i
//   C_i  = Σ_j (ω_j / λ) c_ji          (system-wide comm cost of access at i)
//
// where λ = Σ_j λ_j is the network-wide access rate, T is the queueing
// sojourn time, k relates delay to communication cost, and ω_j defaults to
// λ_j (it differs only when queries and updates carry different
// communication weights).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/cost_model.hpp"
#include "net/cost_provider.hpp"
#include "net/topology.hpp"
#include "queueing/delay.hpp"

namespace fap::core {

/// Per-node Poisson access-generation rates.
struct Workload {
  std::vector<double> lambda;

  /// Network-wide access rate λ = Σ λ_i.
  double total() const noexcept;

  /// Every node generates rate `total / n`.
  static Workload uniform(std::size_t n, double total);
};

/// Query/update workload for the Section 5.4 split-cost generalization:
/// queries and updates share the service queue (both are "accesses") but
/// may carry different communication weights (an update typically touches
/// every fragment holder or carries a larger payload).
struct QueryUpdateWorkload {
  std::vector<double> query_rate;
  std::vector<double> update_rate;
  double query_comm_weight = 1.0;
  double update_comm_weight = 1.0;

  /// Combined access rates λ_j = q_j + u_j.
  Workload combined() const;

  /// Communication weight rates ω_j = w_q q_j + w_u u_j.
  std::vector<double> comm_weight_rates() const;
};

/// Full problem description for the single-copy single-file FAP.
struct SingleFileProblem {
  /// c_ij: least-cost access i -> j, read one source row at a time. A
  /// dense matrix enters as a DenseCostProvider (every row resident);
  /// large N uses a row or implicit provider, so the model never holds
  /// n² costs. May be null only with access_cost_override.
  std::shared_ptr<const net::CostProvider> comm;
  std::vector<double> lambda;     ///< per-node access rates λ_i
  std::vector<double> mu;         ///< per-node service rates μ_i
  double k = 1.0;                 ///< delay-vs-communication scaling
  queueing::DelayModel delay;     ///< M/M/1 by default
  /// Communication weight rates ω_j; empty means ω = λ (the paper's base
  /// model, which does not distinguish queries from updates).
  std::vector<double> comm_weight_rates;
  /// Per-node storage capacity as a fraction of the file (x_i <= s_i) —
  /// the Suri [33] generalization from the Section 3 survey. Empty means
  /// unconstrained. Must sum to at least 1 so a feasible allocation
  /// exists.
  std::vector<double> storage_capacity;
  /// When non-empty (one entry per node), these ARE the access costs C_i:
  /// the model skips the Σ_j (ω_j/λ) c_ji aggregation and `comm` is
  /// neither read nor checked (it may be null). The catalog engine uses
  /// this to hand the serial reference allocator the exact priced
  /// access-cost vector its batched inner solves see — assembling C_i
  /// twice through different summation orders would break the
  /// bit-identity pin at the last ulp.
  std::vector<double> access_cost_override;
};

/// Convenience: builds a SingleFileProblem from a physical topology using
/// least-cost routing (the paper's assumption), a uniform service rate μ,
/// and workload `w`. The costs are the dense APSP matrix behind a
/// DenseCostProvider.
SingleFileProblem make_problem(const net::Topology& topology,
                               const Workload& workload, double mu, double k,
                               queueing::DelayModel delay = {});

/// Same, over any cost provider. With a row or implicit provider no dense
/// matrix is ever built; C_i is byte-identical to the topology overload
/// on the same network (providers return bit-equal rows by contract).
SingleFileProblem make_problem(std::shared_ptr<const net::CostProvider> comm,
                               const Workload& workload, double mu, double k,
                               queueing::DelayModel delay = {});

/// The paper's four-node-ring experimental setup (Section 6): unit link
/// costs, μ = 1.5, k = 1, λ = 1 split evenly, ε = 0.001.
SingleFileProblem make_paper_ring_problem();

/// Bounds on the derivatives of C used by the Theorem-2 step-size bound
/// (appendix items (a)-(d)).
struct DerivativeBounds {
  double grad_min = 0.0;   ///< min over x of ∂C/∂x_i  = C_min + k/μ
  double grad_max = 0.0;   ///< max over x of ∂C/∂x_i  = C_max + kμ/(μ-λ)²
  double hess_max = 0.0;   ///< max over x of ∂²C/∂x_i² = 2μkλ/(μ-λ)³
  double c_min = 0.0;      ///< min_i C_i
  double c_max = 0.0;      ///< max_i C_i
};

/// Differentiable cost model for SingleFileProblem. One constraint group:
/// Σ x_i = 1.
class SingleFileModel : public CostModel {
 public:
  explicit SingleFileModel(SingleFileProblem problem);

  std::size_t dimension() const override { return problem_.lambda.size(); }
  std::vector<ConstraintGroup> constraint_groups() const override;
  std::vector<double> upper_bounds() const override {
    return problem_.storage_capacity;
  }
  double cost(const std::vector<double>& x) const override;
  std::vector<double> gradient(const std::vector<double>& x) const override;
  std::vector<double> second_derivative(
      const std::vector<double>& x) const override;
  void gradient_into(const std::vector<double>& x,
                     std::vector<double>& out) const override;
  void second_derivative_into(const std::vector<double>& x,
                              std::vector<double>& out) const override;

  const SingleFileProblem& problem() const noexcept { return problem_; }

  /// System-wide communication cost C_i of directing an access to node i.
  double access_cost(std::size_t i) const;
  const std::vector<double>& access_costs() const noexcept {
    return access_cost_;
  }

  /// Network-wide access rate λ.
  double total_rate() const noexcept { return total_rate_; }

  /// Appendix bounds (a)-(d); requires a pure M/M/1 delay model. μ is taken
  /// as min_i μ_i, which is conservative (maximizes every bound).
  DerivativeBounds derivative_bounds() const;

  /// The Theorem-2 upper bound on the step size α that provably guarantees
  /// a monotone increase in utility at every iteration:
  ///
  ///   α < ε² (μ-λ)⁴ / ( 2 n k λ ( (C_max - C_min) μ (μ-λ) + λ k (2μ-λ) )² )
  ///
  /// As the paper notes, this is very conservative; larger α usually
  /// converges much faster (Figure 5, ablation A1).
  double theorem2_alpha_bound(double epsilon) const;

 private:
  SingleFileProblem problem_;
  std::vector<double> access_cost_;  // C_i
  double total_rate_ = 0.0;          // λ
};

}  // namespace fap::core
