#include "core/active_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/contracts.hpp"

namespace fap::core::detail {

void active_set_fast(const ConstraintGroup& group, const std::vector<double>& x,
                     const std::vector<double>& marginal_u, double alpha,
                     const std::vector<double>& caps, std::size_t dim,
                     ActiveSetWorkspace& ws) {
  FAP_EXPECTS(!group.indices.empty(), "constraint group must be non-empty");
  const std::vector<std::size_t>& members = group.indices;
  const std::size_t m = members.size();

  const auto cap_of = [&caps](std::size_t i) {
    return caps.empty() ? std::numeric_limits<double>::infinity() : caps[i];
  };
  const auto pinned = [&](std::size_t i, double d) {
    if (x[i] <= kBoundaryTol && d < 0.0 && x[i] + d <= 0.0) {
      return true;  // at the floor, being decreased
    }
    const double cap = cap_of(i);
    return x[i] >= cap - kBoundaryTol && d > 0.0 && x[i] + d >= cap;
  };

  std::vector<std::size_t>& active = ws.active;
  active.clear();

  // Step (i): the reference recomputes mean_over(marginal_u, group.indices)
  // for every candidate; the sum is the same left-to-right sum each time,
  // so computing it once is bit-identical.
  double sum_full = 0.0;
  for (const std::size_t i : members) {
    sum_full += marginal_u[i];
  }
  const double avg_full = sum_full / static_cast<double>(m);
  for (const std::size_t i : members) {
    const double d = alpha * (marginal_u[i] - avg_full);
    if (!pinned(i, d)) {
      active.push_back(i);
    }
  }

  // Fast path: nobody pinned under the full-group average. The reference's
  // round 0 is then a provable no-op — no outsiders exist to re-admit, and
  // its drop pass recomputes the same left-to-right group sum and repeats
  // exactly the pinned() checks step (i) just passed — so A is the whole
  // group and no outsider bookkeeping is needed. This is the steady state
  // of an interior trajectory.
  if (active.size() == m) {
    std::sort(active.begin(), active.end());
    return;
  }

  // Membership bitmask (replaces the reference's std::find scans).
  ws.in_active.assign(dim, 0);
  for (const std::size_t i : active) {
    ws.in_active[i] = 1;
  }

  if (active.empty()) {
    // Degenerate; keep the node with the highest marginal utility (first
    // maximum in group order, as std::max_element returns).
    std::size_t best = members.front();
    for (const std::size_t i : members) {
      if (marginal_u[i] > marginal_u[best]) {
        best = i;
      }
    }
    active.push_back(best);
    ws.in_active[best] = 1;
  }

  // Re-admission candidates are the outsiders that would move away from
  // their bound: floor-side gainers (x < cap) and cap-side losers (x > 0).
  // Eligibility is a static property of x, and the largest gap of each
  // class belongs to its extreme marginal utility — a rounded difference
  // is monotone in ∂U — so two running extremes over the outsiders replace
  // a scan per candidate. They are exact, so each gap below is the very
  // subtraction the reference's scan makes for its winner.
  const auto floor_side = [&](std::size_t j) {
    return x[j] < cap_of(j) - kBoundaryTol;
  };
  const auto cap_side = [&](std::size_t j) { return x[j] > kBoundaryTol; };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double top_gainer = -kInf;  // max ∂U over floor-side outsiders
  double top_loser = kInf;    // min ∂U over cap-side outsiders
  const auto add_outsider = [&](std::size_t j) {
    if (floor_side(j)) {
      top_gainer = std::max(top_gainer, marginal_u[j]);
    }
    if (cap_side(j)) {
      top_loser = std::min(top_loser, marginal_u[j]);
    }
  };
  const auto rescan_outsiders = [&] {
    top_gainer = -kInf;
    top_loser = kInf;
    for (const std::size_t j : members) {
      if (ws.in_active[j] == 0) {
        add_outsider(j);
      }
    }
  };
  rescan_outsiders();

  const std::size_t round_limit = 2 * m + 2;
  std::vector<std::size_t>& survivors = ws.survivors;
  for (std::size_t round = 0; round < round_limit; ++round) {
    bool changed = false;

    // Running sum of the active marginal utilities, rebuilt in the active
    // vector's insertion order so every mean below reproduces the
    // reference's fresh left-to-right mean_over bit for bit (appending the
    // admitted node's term to the running sum IS the next left-to-right
    // sum, because the node is appended at the end).
    double sum_active = 0.0;
    for (const std::size_t i : active) {
      sum_active += marginal_u[i];
    }

    // Re-admission: largest |marginal - average| eligible node first. An
    // empty class leaves its extreme at ∓inf, whose gap never qualifies.
    for (;;) {
      const double avg = sum_active / static_cast<double>(active.size());
      const double up = top_gainer - avg;
      const double down = top_loser - avg;
      const double gainer_gap = up > 0.0 ? up : 0.0;
      const double loser_gap = down < 0.0 ? std::fabs(down) : 0.0;
      if (!(gainer_gap > 0.0 || loser_gap > 0.0)) {
        break;
      }
      // The winner is the first outsider in group order whose gap equals
      // the winning one, as the reference's strict-improvement scan keeps.
      // Gaps are compared, not ∂U: distinct ∂U can round to one gap. On an
      // exact cross-class tie either class may hold the first such node;
      // that needs α < 0, since for α > 0 every floor-side outsider was
      // pinned below an average that every cap-side one was pinned above.
      const bool take_gainer = gainer_gap >= loser_gap;
      const bool take_loser = loser_gap >= gainer_gap;
      std::size_t j = members.front();
      for (const std::size_t c : members) {
        if (ws.in_active[c] == 0 &&
            ((take_gainer && floor_side(c) && marginal_u[c] - avg == up) ||
             (take_loser && cap_side(c) && marginal_u[c] - avg == down))) {
          j = c;
          break;
        }
      }
      active.push_back(j);
      ws.in_active[j] = 1;
      sum_active += marginal_u[j];
      changed = true;
      rescan_outsiders();
    }

    // Drop: members whose recomputed Δx pins them at a boundary. A dropped
    // node joins the outsiders, which only moves the extremes outward.
    const double avg = sum_active / static_cast<double>(active.size());
    survivors.clear();
    for (const std::size_t i : active) {
      const double d = alpha * (marginal_u[i] - avg);
      if (pinned(i, d)) {
        changed = true;
        ws.in_active[i] = 0;
        add_outsider(i);
        continue;
      }
      survivors.push_back(i);
    }
    if (survivors.empty()) {
      // Everyone is a violator only in degenerate corner cases; keep the
      // best node defensively (first maximum in the pre-drop active order).
      std::size_t best = active.front();
      for (const std::size_t i : active) {
        if (marginal_u[i] > marginal_u[best]) {
          best = i;
        }
      }
      survivors.push_back(best);
      ws.in_active[best] = 1;
      rescan_outsiders();
    }
    std::swap(active, survivors);

    if (!changed) {
      break;
    }
  }
  std::sort(active.begin(), active.end());
}

}  // namespace fap::core::detail
