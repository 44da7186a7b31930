#include "sim/alias_sampler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace fap::sim {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  rebuild(weights);
}

void AliasSampler::rebuild(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  FAP_EXPECTS(n >= 1, "alias table needs at least one outcome");
  FAP_EXPECTS(n <= std::numeric_limits<std::uint32_t>::max(),
              "alias table outcomes must be numbered in 32 bits");
  double sum = 0.0;
  for (const double w : weights) {
    FAP_EXPECTS(w >= -1e-12, "routing weights must be non-negative");
    sum += std::max(w, 0.0);
  }
  FAP_EXPECTS(std::fabs(sum - 1.0) < 1e-6,
              "routing row must sum to 1 (every access must be served "
              "somewhere)");

  // Vose: scale each weight to mean 1, then repeatedly pair an
  // under-full bucket with an over-full one. Every bucket ends with its
  // own mass plus the top-up it donates to its alias. accept_ holds the
  // scaled weights until a bucket is paired or left over; the under-full
  // stack is work_[0, small) and the over-full one work_[large, n), each
  // popped last in, first out.
  const double scale = static_cast<double>(n) / sum;
  accept_.resize(n);
  alias_.resize(n);
  work_.resize(n);
  std::size_t small = 0;
  std::size_t large = n;
  for (std::size_t i = 0; i < n; ++i) {
    accept_[i] = std::max(weights[i], 0.0) * scale;
    alias_[i] = static_cast<std::uint32_t>(i);
    if (accept_[i] < 1.0) {
      work_[small++] = static_cast<std::uint32_t>(i);
    } else {
      work_[--large] = static_cast<std::uint32_t>(i);
    }
  }
  while (small > 0 && large < n) {
    const std::uint32_t s = work_[--small];
    const std::uint32_t l = work_[large++];
    alias_[s] = l;
    accept_[l] = (accept_[l] + accept_[s]) - 1.0;
    if (accept_[l] < 1.0) {
      work_[small++] = l;
    } else {
      work_[--large] = l;
    }
  }
  // Leftovers (one side only, up to floating-point residue) are full
  // buckets.
  for (std::size_t k = 0; k < small; ++k) {
    accept_[work_[k]] = 1.0;
  }
  for (std::size_t k = large; k < n; ++k) {
    accept_[work_[k]] = 1.0;
  }
}

}  // namespace fap::sim
