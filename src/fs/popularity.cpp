#include "fs/popularity.hpp"

#include <cmath>

#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace fap::fs {

std::vector<double> uniform_popularity(std::size_t record_count) {
  FAP_EXPECTS(record_count >= 1, "need at least one record");
  return std::vector<double>(record_count,
                             1.0 / static_cast<double>(record_count));
}

std::vector<double> zipf_popularity(std::size_t record_count, double s) {
  FAP_EXPECTS(record_count >= 1, "need at least one record");
  FAP_EXPECTS(s >= 0.0, "Zipf exponent must be non-negative");
  std::vector<double> weights(record_count, 0.0);
  for (std::size_t r = 0; r < record_count; ++r) {
    weights[r] = std::pow(static_cast<double>(r + 1), -s);
  }
  return normalized_popularity(std::move(weights));
}

std::vector<double> normalized_popularity(std::vector<double> weights) {
  FAP_EXPECTS(!weights.empty(), "need at least one record");
  // Neumaier-compensated total: a naive sum of 1e6 same-sign weights
  // carries ~5e-11 relative error, and dividing by it would push Σp_r
  // that far from 1. With the compensated total the normalized masses
  // sum to 1 within a few eps (~1e-15 at R = 1e6, pinned by fs tests).
  util::NeumaierSum total;
  for (const double w : weights) {
    FAP_EXPECTS(w >= 0.0, "weights must be non-negative");
    total.add(w);
  }
  const double t = total.value();
  FAP_EXPECTS(t > 0.0, "total weight must be positive");
  for (double& w : weights) {
    w /= t;
  }
  return weights;
}

std::vector<double> node_access_shares(
    const FragmentMap& layout, const std::vector<double>& popularity) {
  FAP_EXPECTS(popularity.size() == layout.record_count(),
              "one popularity per record");
  std::vector<double> shares(layout.node_count(), 0.0);
  for (net::NodeId node = 0; node < layout.node_count(); ++node) {
    const RecordRange& range = layout.range_at(node);
    for (std::size_t r = range.begin; r < range.end; ++r) {
      shares[node] += popularity[r];
    }
  }
  return shares;
}

FragmentMap popularity_split(const std::vector<double>& popularity,
                             const std::vector<double>& shares) {
  FAP_EXPECTS(!popularity.empty(), "need at least one record");
  FAP_EXPECTS(!shares.empty(), "need at least one node");
  util::NeumaierSum pop_total;
  for (const double p : popularity) {
    FAP_EXPECTS(p >= 0.0, "popularity must be non-negative");
    pop_total.add(p);
  }
  util::NeumaierSum share_total;
  for (const double s : shares) {
    FAP_EXPECTS(s >= 0.0, "shares must be non-negative");
    share_total.add(s);
  }
  const double mass = pop_total.value();
  const double share_sum = share_total.value();
  FAP_EXPECTS(mass > 0.0, "total popularity must be positive");
  FAP_EXPECTS(share_sum > 0.0, "total share must be positive");

  // One pass over the record space: node i's range closes at the record
  // where the cumulative popularity is nearest the cumulative target
  // mass Σ_{j<=i} shares_j · mass. The last node takes the remainder, so
  // every record is assigned exactly once.
  const std::size_t n = shares.size();
  std::vector<std::size_t> counts(n, 0);
  util::NeumaierSum target_acc;
  util::NeumaierSum cum;
  std::size_t r = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    target_acc.add(shares[i] / share_sum * mass);
    const double target = target_acc.value();
    std::size_t taken = 0;
    while (r < popularity.size()) {
      const double before = cum.value();
      if (before >= target) {
        break;
      }
      // Take record r only if doing so lands the cumulative mass no
      // further from the target than stopping here would.
      const double after = before + popularity[r];
      if (after - target > target - before) {
        break;
      }
      cum.add(popularity[r]);
      ++r;
      ++taken;
    }
    counts[i] = taken;
  }
  counts[n - 1] = popularity.size() - r;
  return FragmentMap(std::move(counts));
}

}  // namespace fap::fs
