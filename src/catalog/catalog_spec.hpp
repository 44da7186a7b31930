// Catalog allocation problem description.
//
// The paper allocates ONE file; a production system serves a catalog of
// K objects (K up to ~1e6) whose fragments compete for finite storage at
// every node. CatalogSpec is the joint problem: the shared network side
// (cost provider, per-node service rates and capacity budgets B_i) plus a
// structure-of-arrays object side (per-object access rate λ_o, volume
// v_o, home node h_o). Objects interact ONLY through the per-node
// capacity constraints
//
//   Σ_o v_o x_i^o <= B_i        for every node i,
//
// which is exactly the storage-budgeted setting of Sardari et al.
// (PAPERS.md) and the capacity-capped video catalog of the onlineJCCP
// exemplar (SNIPPETS.md §1). The per-object objective is the paper's
// Eq. 1 single-file cost with a structured workload: a fraction
// `locality` (β) of object o's accesses originate at its home node, the
// rest follow the shared origin mix w_j, so the object's access-cost
// vector is
//
//   C_i^o = (1-β) Σ_j w_j c_ji + β c(h_o, i)
//
// — assembled in O(N) per object from the O(N²) base term Σ_j w_j c_ji
// computed once, which is what makes million-object rounds affordable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/cost_provider.hpp"
#include "net/shortest_paths.hpp"
#include "queueing/delay.hpp"

namespace fap::catalog {

struct CatalogSpec {
  // --- shared network side.
  /// c_ij (least-cost access i -> j), read one source row at a time. A
  /// DenseCostProvider is the small-N default; row-based and implicit
  /// providers keep large N at O(n + cached rows) memory instead of n².
  /// Providers return bit-equal rows by contract, so the solved result
  /// does not depend on which one is used.
  std::shared_ptr<const net::CostProvider> comm;
  std::vector<double> node_capacity;  ///< B_i, in volume units
  std::vector<double> mu;             ///< per-node service rates
  double k = 1.0;                     ///< delay-vs-communication scaling
  queueing::DelayModel delay;         ///< per-object queueing discipline
  /// Shared access-origin mix w_j (Σ = 1): where the non-local share of
  /// every object's accesses originates.
  std::vector<double> origin_weight;
  /// β in [0, 1]: fraction of each object's accesses originating at its
  /// home node (the rest follow origin_weight).
  double locality = 0.0;

  // --- object side, structure-of-arrays, one entry per object.
  std::vector<double> rate;           ///< λ_o > 0
  std::vector<double> volume;         ///< v_o > 0, in capacity units
  std::vector<std::uint32_t> home;    ///< h_o < node_count()

  std::size_t node_count() const noexcept { return mu.size(); }
  std::size_t object_count() const noexcept { return rate.size(); }

  /// Throws PreconditionError unless the spec is well-formed: a cost
  /// provider spanning every node, matching sizes, a finite k >= 0,
  /// finite positive rates, positive volumes/μ, locality in [0, 1],
  /// origin weights a distribution, total capacity holding the total
  /// volume, and — for pure (non-linearized) delay models — every
  /// object's full rate below every node's service capacity.
  void validate() const;
};

/// Knobs of the synthetic catalog generator (the bench/test workload).
struct SyntheticCatalogOptions {
  std::size_t objects = 1000;
  std::size_t nodes = 16;
  /// Zipf popularity exponent; object o's rate is proportional to
  /// fs::zipf_popularity(objects, zipf_s)[o].
  double zipf_s = 0.8;
  /// Capacity headroom: Σ B_i = (1 + headroom) · Σ v_o, spread uniformly
  /// over nodes.
  double headroom = 0.25;
  /// Home-node share of each object's accesses (spec.locality).
  double locality = 0.5;
  double k = 1.0;
};

/// Deterministic synthetic catalog: a random-metric topology and origin
/// mix drawn from Rng(seed), Zipf rates, and per-object volume/home drawn
/// from Rng(runtime::task_seed(seed, o)) — each object's data is a pure
/// function of (seed, o), the same splitting contract as runtime::sweep,
/// so regenerating any subset of objects is order-independent. The
/// network depends only on (options.nodes, seed), so callers that vary
/// only options.objects can reuse spec.comm through the provider overload.
CatalogSpec make_synthetic_catalog(const SyntheticCatalogOptions& options,
                                   std::uint64_t seed);

/// Explicit-network variant: same synthetic object/origin data (the RNG
/// streams do not depend on the network), but the communication side is
/// the caller's matrix — e.g. the APSP of a structured fat-tree /
/// geo-tiers topology instead of the default random metric — wrapped in
/// a DenseCostProvider. The matrix must be options.nodes × options.nodes.
CatalogSpec make_synthetic_catalog(const SyntheticCatalogOptions& options,
                                   std::uint64_t seed, net::CostMatrix comm);

/// Provider variant: the spec shares `comm` (which must span
/// options.nodes nodes) — a row-based or implicit provider keeps large N
/// free of any dense matrix. With a provider and matrix describing the
/// same network, the solved results are byte-identical.
CatalogSpec make_synthetic_catalog(
    const SyntheticCatalogOptions& options, std::uint64_t seed,
    std::shared_ptr<const net::CostProvider> comm);

}  // namespace fap::catalog
