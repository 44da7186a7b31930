// The Walker/Vose alias sampler must reproduce each routing row's
// distribution exactly (table mass accounting) and statistically
// (chi-squared over a long sample stream) — it replaced the CDF sampler
// on the DES hot path, and a biased table would silently skew every
// simulated utilization and sojourn time.
#include "sim/alias_sampler.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fs/popularity.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using fap::sim::AliasSampler;
using fap::util::PreconditionError;

// Probability mass the table assigns to outcome i:
//   (accept_[i] + Σ_{j : alias_[j] == i} (1 - accept_[j])) / n.
std::vector<double> table_masses(const AliasSampler& sampler) {
  const std::size_t n = sampler.size();
  std::vector<double> mass(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    mass[i] += sampler.acceptance()[i];
    mass[sampler.alias()[i]] += 1.0 - sampler.acceptance()[i];
  }
  for (double& m : mass) {
    m /= static_cast<double>(n);
  }
  return mass;
}

// Upper chi-squared critical value at p ≈ 0.999 via the Wilson–Hilferty
// cube approximation (z = 3.09). Generous on purpose: one fixed seed, so
// the test either passes forever or flags a real bias.
double chi2_critical(std::size_t df) {
  const double d = static_cast<double>(df);
  const double term = 1.0 - 2.0 / (9.0 * d) + 3.09 * std::sqrt(2.0 / (9.0 * d));
  return d * term * term * term;
}

std::vector<double> normalized(std::vector<double> weights) {
  double sum = 0.0;
  for (const double w : weights) {
    sum += w;
  }
  for (double& w : weights) {
    w /= sum;
  }
  return weights;
}

TEST(AliasSampler, TableMassesMatchWeightsExactly) {
  const std::vector<std::vector<double>> rows = {
      {1.0},
      {0.5, 0.5},
      {1.0, 0.0, 0.0, 0.0},
      {0.25, 0.25, 0.25, 0.25},
      {0.7, 0.1, 0.1, 0.1},
      normalized({0.05, 1.9, 0.3, 0.7, 0.05, 3.0}),
  };
  for (const std::vector<double>& row : rows) {
    const AliasSampler sampler(row);
    const std::vector<double> mass = table_masses(sampler);
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_NEAR(mass[i], row[i], 1e-12) << "outcome " << i;
    }
  }
}

TEST(AliasSampler, NeverEmitsZeroWeightOutcomes) {
  const AliasSampler sampler({0.5, 0.0, 0.5, 0.0});
  fap::util::Rng rng(17);
  for (int draw = 0; draw < 20000; ++draw) {
    const std::size_t target = sampler.sample(rng.uniform());
    EXPECT_TRUE(target == 0 || target == 2) << "draw " << draw;
  }
}

// Chi-squared goodness of fit per routing row: the empirical counts over
// a long one-uniform-per-sample stream must match the row.
TEST(AliasSampler, ChiSquaredMatchesEachRoutingRow) {
  // Rows shaped like the experiments' routing matrices: near-uniform
  // (converged allocation), concentrated (early iterations), skewed with
  // zero entries (boundary allocations), and a large heterogeneous row.
  std::vector<std::vector<double>> rows = {
      {0.25, 0.25, 0.25, 0.25},
      {0.8, 0.1, 0.1, 0.0},
      {0.05, 0.9, 0.05},
      normalized({2.0, 1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625}),
  };
  {
    // 32-outcome row with random weights (fixed seed).
    fap::util::Rng rng(23);
    std::vector<double> big(32);
    for (double& w : big) {
      w = rng.uniform(0.1, 2.0);
    }
    rows.push_back(normalized(big));
  }

  fap::util::Rng rng(101);
  constexpr std::size_t kSamples = 200000;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double>& row = rows[r];
    const AliasSampler sampler(row);
    std::vector<std::size_t> counts(row.size(), 0);
    for (std::size_t s = 0; s < kSamples; ++s) {
      ++counts[sampler.sample(rng.uniform())];
    }
    double chi2 = 0.0;
    std::size_t df = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      const double expected = row[i] * static_cast<double>(kSamples);
      if (expected == 0.0) {
        EXPECT_EQ(counts[i], 0u) << "row " << r << " outcome " << i;
        continue;
      }
      const double dev = static_cast<double>(counts[i]) - expected;
      chi2 += dev * dev / expected;
      ++df;
    }
    ASSERT_GT(df, 1u);
    EXPECT_LT(chi2, chi2_critical(df - 1)) << "row " << r;
  }
}

// FNV-1a over every acceptance bit pattern and alias index of the table.
std::uint64_t table_digest(const AliasSampler& sampler) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xffu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < sampler.size(); ++i) {
    mix(std::bit_cast<std::uint64_t>(sampler.acceptance()[i]));
    mix(static_cast<std::uint64_t>(sampler.alias()[i]));
  }
  return hash;
}

// Golden digests of the tables serving builds: the trace generator's
// 200k-record Zipf(0.9) table, the same table under a x10 flash crowd on
// 1,001 records, a 16-node origin row, and a routing row with zero
// weights (one of them negative dust). The pairing order decides every
// acceptance and alias entry, so a change to it fails here by case.
// Rebuilding a sampler that last held another table gives the same bits.
TEST(AliasSampler, TableBitsGoldenPin) {
  const std::vector<double> zipf = fap::fs::zipf_popularity(200000, 0.9);
  std::vector<double> crowd = zipf;
  for (std::size_t r = 50000; r < 51001; ++r) {
    crowd[r] *= 10.0;
  }
  struct Case {
    std::string name;
    std::vector<double> weights;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"zipf 200k", zipf, 0xd21a505445989c25ULL},
      {"flash crowd", fap::fs::normalized_popularity(crowd),
       0x445e98a97a25202fULL},
      {"origin row",
       fap::fs::normalized_popularity(
           {3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3}),
       0xc994e14cb185ed7bULL},
      {"zero weights", {0.3, 0.0, 0.45, -1e-13, 0.25, 0.0},
       0xaa99d1ec000b6508ULL},
  };
  AliasSampler reused({1.0});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const AliasSampler fresh(c.weights);
    EXPECT_EQ(table_digest(fresh), c.digest)
        << std::hex << "0x" << table_digest(fresh);
    reused.rebuild(c.weights);
    EXPECT_EQ(table_digest(reused), c.digest);
  }
}

TEST(AliasSampler, ValidatesLikeTheRoutingRows) {
  EXPECT_THROW(AliasSampler({}), PreconditionError);
  EXPECT_THROW(AliasSampler({0.5, 0.4}), PreconditionError);   // sums to 0.9
  EXPECT_THROW(AliasSampler({0.5, -0.5, 1.0}), PreconditionError);
  // Tiny negative dust is clamped, matching the CDF sampler it replaced.
  EXPECT_NO_THROW(AliasSampler({1.0, -1e-13}));
  // A rebuild that throws leaves the previous table in place.
  AliasSampler sampler({0.25, 0.75});
  EXPECT_THROW(sampler.rebuild({0.5, 0.4, 0.3}), PreconditionError);
  const std::vector<double> mass = table_masses(sampler);
  ASSERT_EQ(mass.size(), 2u);
  EXPECT_NEAR(mass[0], 0.25, 1e-12);
  EXPECT_NEAR(mass[1], 0.75, 1e-12);
}

}  // namespace
