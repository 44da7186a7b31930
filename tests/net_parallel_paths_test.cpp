// The pool-parallel all-pairs overloads promise byte-identical output to
// their serial counterparts on every topology shape the generators
// produce — that guarantee is what lets the experiment pipeline fan the
// O(n · Dijkstra) work over cores without perturbing a single figure.
#include "net/shortest_paths.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/generators.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace {

namespace net = fap::net;
namespace runtime = fap::runtime;

std::vector<std::pair<std::string, net::Topology>> all_generator_samples() {
  fap::util::Rng rng(5);
  fap::util::Rng rng2(6);
  std::vector<std::pair<std::string, net::Topology>> samples;
  samples.emplace_back("ring", net::make_ring(9, 1.0));
  samples.emplace_back("weighted_ring",
                       net::make_ring(5, {1.0, 2.5, 0.5, 3.0, 1.5}));
  samples.emplace_back("complete", net::make_complete(8, 2.0));
  samples.emplace_back("star", net::make_star(11, 1.5));
  samples.emplace_back("line", net::make_line(13, 0.75));
  samples.emplace_back("grid", net::make_grid(4, 5, 1.0));
  samples.emplace_back("erdos_renyi",
                       net::make_erdos_renyi(17, 0.3, 0.5, 2.0, rng));
  samples.emplace_back("random_metric", net::make_random_metric(23, 3, rng2));
  return samples;
}

TEST(ParallelShortestPaths, AllPairsMatchesSerialByteForByte) {
  runtime::ThreadPool pool(4);
  for (const auto& [name, topology] : all_generator_samples()) {
    const net::CostMatrix serial = net::all_pairs_shortest_paths(topology);
    const net::CostMatrix parallel =
        net::all_pairs_shortest_paths(topology, pool);
    ASSERT_EQ(serial.node_count(), parallel.node_count()) << name;
    const std::size_t n = serial.node_count();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        // EXPECT_EQ on doubles is exact — the contract is bitwise, not
        // within-epsilon.
        ASSERT_EQ(serial(i, j), parallel(i, j))
            << name << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(ParallelShortestPaths, SingleWorkerPoolMatchesToo) {
  // Degenerate pool: everything lands on one worker; must still agree.
  runtime::ThreadPool pool(1);
  fap::util::Rng rng(9);
  const net::Topology topology = net::make_random_metric(31, 4, rng);
  const net::CostMatrix serial = net::all_pairs_shortest_paths(topology);
  const net::CostMatrix parallel =
      net::all_pairs_shortest_paths(topology, pool);
  const std::size_t n = serial.node_count();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(serial(i, j), parallel(i, j));
    }
  }
}

TEST(CostMatrix, UncheckedAccessorsAgreeWithCheckedOnes) {
  fap::util::Rng rng(13);
  const net::Topology topology = net::make_random_metric(12, 3, rng);
  const net::CostMatrix matrix = net::all_pairs_shortest_paths(topology);
  for (std::size_t i = 0; i < matrix.node_count(); ++i) {
    const double* row = matrix.row(i);
    for (std::size_t j = 0; j < matrix.node_count(); ++j) {
      ASSERT_EQ(matrix.cost(i, j), matrix(i, j));
      ASSERT_EQ(matrix.cost(i, j), row[j]);
    }
  }
}

}  // namespace
