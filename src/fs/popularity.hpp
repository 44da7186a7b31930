// Record popularity distributions.
//
// Section 4 assumes "the individual records with a file are accessed on a
// uniform basis (although this can be easily relaxed)". This header is
// the relaxation: popularity vectors (uniform, Zipf, custom) and helpers
// to aggregate record popularity into per-node access probabilities
// under a given fragment layout. Workload generators draw records from a
// popularity vector through sim::AliasSampler.
#pragma once

#include <cstddef>
#include <vector>

#include "fs/fragment_map.hpp"

namespace fap::fs {

/// Uniform popularity: every record accessed with probability 1/R.
std::vector<double> uniform_popularity(std::size_t record_count);

/// Zipf popularity with exponent `s` (s = 0 is uniform): p_r ∝ 1/(r+1)^s,
/// normalized. Rank order = record order (record 0 hottest).
std::vector<double> zipf_popularity(std::size_t record_count, double s);

/// Normalizes an arbitrary non-negative weight vector into a popularity
/// distribution.
std::vector<double> normalized_popularity(std::vector<double> weights);

/// Per-node access probability under `layout`:
/// q_i = Σ_{r stored at i} p_r — the quantity that replaces x_i in Eq. 1
/// when record access is non-uniform.
std::vector<double> node_access_shares(const FragmentMap& layout,
                                       const std::vector<double>& popularity);

/// Inverse of node_access_shares for contiguous layouts: a FragmentMap
/// whose per-node POPULARITY MASS (not record count) approximates the
/// target shares — the rounding step that deploys an allocator solution
/// x when record access is non-uniform. FragmentMap::from_allocation
/// splits by record count, which under Zipf popularity hands the first
/// node nearly all the traffic regardless of x; this split walks the
/// record space once and closes each node's range at the record that
/// lands the cumulative mass nearest the cumulative target share.
/// `shares` must be non-negative with a positive sum (it is normalized
/// internally); a zero share is legal and yields an empty range.
FragmentMap popularity_split(const std::vector<double>& popularity,
                             const std::vector<double>& shares);

}  // namespace fap::fs
