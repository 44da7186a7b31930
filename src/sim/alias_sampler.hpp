// Walker/Vose alias-table sampler over a discrete distribution.
//
// The discrete-event simulator draws one routed target per generated
// access. A CDF binary search costs O(log n) per draw and walks a
// cache-unfriendly prefix array; the alias table answers the same draw in
// O(1): one multiply, one table probe, one compare. Construction is O(n)
// (Vose's stack algorithm).
//
// The sampler consumes exactly ONE uniform draw per sample, like the CDF
// sampler it replaced, so swapping it in shifts which random bits route
// which access but leaves the RNG stream alignment — and every downstream
// exponential draw count — unchanged.
//
// The table is built in place: the acceptance array holds the scaled
// weights while Vose pairs under-full with over-full buckets (a bucket's
// acceptance IS its scaled weight at the moment it is paired), and one
// 32-bit worklist holds both stacks, the under-full one growing from the
// front and the over-full one from the back. A table costs 16 B per
// outcome: an 8 B acceptance, a 4 B alias and a 4 B worklist entry, which
// is 3.2 MB for the trace generator's 200k-record table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fap::sim {

class AliasSampler {
 public:
  /// Builds the table for `weights` (same validation as the routing rows:
  /// entries >= -1e-12 with negatives clamped to 0, total within 1e-6 of
  /// 1, fewer than 2^32 outcomes). Throws PreconditionError otherwise.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Rebuilds the table for a new distribution in place, reusing the
  /// table and workspace storage — after the first build, a same-size
  /// rebuild performs no allocation. Produces a table bit-identical to
  /// constructing AliasSampler(weights). The engine rewires routing this
  /// way (DesSystem::set_routing), so deploying a new allocation
  /// mid-flight does not churn the allocator. The weights are validated
  /// before the table changes, so a rebuild that throws leaves the
  /// previous table in place.
  void rebuild(const std::vector<double>& weights);

  std::size_t size() const noexcept { return accept_.size(); }

  /// Maps one uniform draw u ∈ [0, 1) to an outcome index, distributed as
  /// the constructor's weights. The single draw is split into a bucket
  /// index (high part) and an acceptance coin (fractional part) — the
  /// classic one-uniform alias probe.
  std::size_t sample(double u) const noexcept {
    const double scaled = u * static_cast<double>(accept_.size());
    std::size_t bucket = static_cast<std::size_t>(scaled);
    if (bucket >= accept_.size()) {
      bucket = accept_.size() - 1;  // guards u rounding up to 1.0
    }
    const double coin = scaled - static_cast<double>(bucket);
    return coin < accept_[bucket] ? bucket : alias_[bucket];
  }

  /// Table introspection for the distribution-equivalence tests: outcome
  /// i's total probability mass is
  ///   (accept_[i] + Σ_{j : alias_[j] == i} (1 - accept_[j])) / n.
  const std::vector<double>& acceptance() const noexcept { return accept_; }
  const std::vector<std::uint32_t>& alias() const noexcept { return alias_; }

 private:
  std::vector<double> accept_;
  std::vector<std::uint32_t> alias_;
  // Vose construction worklist, kept so rebuild() is allocation-free.
  std::vector<std::uint32_t> work_;
};

}  // namespace fap::sim
