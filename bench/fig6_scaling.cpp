// Figure 6: increasing the number of nodes. The paper's setup is fully
// connected networks with unit link costs, N = 4..20, starting allocation
// (0.8, 0.1, 0.1, 0, ...), iterations to converge using the best α found
// per N.
//
// Paper: "increasing the problem size does not significantly increase the
// number of iterations required" — the curve is essentially flat.
//
// Beyond the paper, --topology selects structured large-N networks (ring,
// fat-tree, geo-tiers) and --provider selects how the c_ij structure is
// served: `dense` builds the full APSP matrix (the small-N default),
// `rows` runs one Dijkstra per requested source row behind an LRU cache,
// and `implicit` computes tier-tree costs in O(depth) per pair with no
// graph traversal at all. Providers return bit-equal rows by contract, so
// for a fixed topology the printed output is byte-identical across
// providers (CI diffs them) — only the memory/time profile changes:
// `rows`/`implicit` never materialize the n×n matrix, which is what lets
// the sweep reach N = 10k.
//
// Each N is an independent problem (its own topology, model and α grid
// search), so the sweep runs through runtime::sweep: `--jobs 8` fills
// eight cores and prints byte-identical output to `--jobs 1`. Within a
// point, the α grid search is a loop of serial allocator runs, and the
// winning run's result is reported instead of a re-run.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/allocator.hpp"
#include "core/single_file.hpp"
#include "net/cost_provider.hpp"
#include "net/generators.hpp"
#include "net/hierarchy.hpp"
#include "runtime/sweep.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

namespace {

struct ScalingPoint {
  std::size_t n = 0;
  double best_alpha = 0.0;
  std::size_t iterations = 0;
  double cost = 0.0;
};

constexpr std::size_t kMinNodes = 4;

std::size_t fat_tree_fanout(std::size_t target) {
  // Smallest k whose depth-3 complete tree (1 + k + k² + k³ nodes)
  // reaches the target size.
  std::size_t k = 1;
  while (1 + k + k * k + k * k * k < target) {
    ++k;
  }
  return k;
}

std::size_t geo_racks(std::size_t target) {
  // 4 regions × 4 DCs: N = 1 + 4 + 16 + 16·racks = 21 + 16·racks.
  return target > 21 + 16 ? (target - 21 + 15) / 16 : 1;
}

/// Network size a target ladder entry actually lands on (structured
/// generators cannot hit every N exactly).
std::size_t actual_nodes(const std::string& topology, std::size_t target) {
  if (topology == "fat-tree") {
    const std::size_t k = fat_tree_fanout(target);
    return 1 + k + k * k + k * k * k;
  }
  if (topology == "geo-tiers") {
    return 21 + 16 * geo_racks(target);
  }
  return target;  // complete and ring hit the target exactly
}

/// The explicit graph plus, for tier trees, the implicit spec.
struct NetworkCase {
  fap::net::Topology topology;
  fap::net::HierarchySpec spec;  // empty fanout unless tiered
  bool tiered = false;
};

NetworkCase build_network(const std::string& topology, std::size_t target) {
  using namespace fap;
  if (topology == "ring") {
    return NetworkCase{net::make_ring(target, 1.0), {}, false};
  }
  if (topology == "fat-tree") {
    net::TieredNetwork tiered = net::make_fat_tree(fat_tree_fanout(target));
    return NetworkCase{std::move(tiered.topology), std::move(tiered.spec),
                       true};
  }
  if (topology == "geo-tiers") {
    net::TieredNetwork tiered = net::make_geo_tiers(geo_racks(target), 4, 4);
    return NetworkCase{std::move(tiered.topology), std::move(tiered.spec),
                       true};
  }
  return NetworkCase{net::make_complete(target, 1.0), {}, false};
}

fap::core::SingleFileModel build_model(const NetworkCase& network,
                                       const std::string& provider,
                                       std::size_t row_cache) {
  using namespace fap;
  const std::size_t n = network.topology.node_count();
  const core::Workload workload = core::Workload::uniform(n, 1.0);
  if (provider == "rows") {
    return core::SingleFileModel(core::make_problem(
        std::make_shared<net::RowCostProvider>(network.topology, row_cache),
        workload, /*mu=*/1.5, /*k=*/1.0));
  }
  if (provider == "implicit") {
    return core::SingleFileModel(core::make_problem(
        std::make_shared<net::HierarchicalCostProvider>(network.spec,
                                                        row_cache),
        workload, /*mu=*/1.5, /*k=*/1.0));
  }
  return core::SingleFileModel(core::make_problem(
      network.topology, workload, /*mu=*/1.5, /*k=*/1.0));
}

ScalingPoint measure_scaling_point(const fap::core::SingleFileModel& model,
                                   std::size_t alpha_points) {
  using namespace fap;
  const std::size_t n = model.dimension();
  std::vector<double> start(n, 0.0);
  start[0] = 0.8;
  start[1] = 0.1;
  start[2] = 0.1;

  // Best α per N via a grid search (the paper: "using the best possible
  // α"): one run per α candidate. A run that fails to converge gets a
  // large penalty, keeping the search away from divergent settings.
  // grid_select keeps the first of tied scores, and the chosen run's
  // result is the reported row.
  const std::vector<double> alphas = util::grid_points(0.05, 1.2, alpha_points);
  std::vector<core::AllocationResult> runs;
  runs.reserve(alphas.size());
  std::vector<double> scores;
  scores.reserve(alphas.size());
  for (const double alpha : alphas) {
    core::AllocatorOptions options;
    options.alpha = alpha;
    options.epsilon = 1e-3;
    options.max_iterations = 20000;
    runs.push_back(core::ResourceDirectedAllocator(model, options).run(start));
    scores.push_back(runs.back().converged
                         ? static_cast<double>(runs.back().iterations)
                         : 1e9);
  }
  const util::GridMinimum best = util::grid_select(alphas, scores);
  const core::AllocationResult& chosen = runs[best.index];
  return {n, best.x, chosen.iterations, chosen.cost};
}

}  // namespace

int main(int argc, char** argv) {
  // The paper's figure stops at N = 20; --max-n extends the sweep so the
  // flatness claim can be exercised at larger networks, e.g. --max-n 256
  // (complete) or --topology geo-tiers --provider implicit --max-n 10000.
  std::uint64_t max_nodes = 20;
  std::uint64_t alpha_points = 47;
  std::uint64_t row_cache = fap::net::RowCostProvider::kDefaultCapacity;
  std::string topology = "complete";
  std::string provider = "dense";
  fap::bench::register_numeric_flag(
      "--max-n", "largest network size N to sweep (default 20)", &max_nodes);
  fap::bench::register_numeric_flag(
      "--alphas", "alpha grid points per N (default 47)", &alpha_points);
  fap::bench::register_numeric_flag(
      "--row-cache", "cached rows per provider (default 64)", &row_cache);
  fap::bench::register_string_flag(
      "--topology", "complete | ring | fat-tree | geo-tiers", &topology);
  fap::bench::register_string_flag(
      "--provider", "dense | rows | implicit", &provider);
  fap::bench::init(argc, argv);
  using namespace fap;

  if (topology != "complete" && topology != "ring" &&
      topology != "fat-tree" && topology != "geo-tiers") {
    std::cerr << argv[0] << ": unknown --topology '" << topology << "'\n";
    return 2;
  }
  if (provider != "dense" && provider != "rows" && provider != "implicit") {
    std::cerr << argv[0] << ": unknown --provider '" << provider << "'\n";
    return 2;
  }
  const bool tiered = topology == "fat-tree" || topology == "geo-tiers";
  if (provider == "implicit" && !tiered) {
    std::cerr << argv[0]
              << ": --provider implicit needs a tier-tree topology "
                 "(fat-tree or geo-tiers)\n";
    return 2;
  }
  if (max_nodes < kMinNodes) {
    std::cerr << argv[0] << ": --max-n must be at least " << kMinNodes
              << "\n";
    return 2;
  }
  if (alpha_points < 1) {
    std::cerr << argv[0] << ": --alphas must be at least 1\n";
    return 2;
  }

  bench::print_header("Figure 6",
                      "iterations (best alpha) vs number of nodes");

  // The paper's complete-network mode sweeps every N (the figure's x
  // axis); the structured large-N modes walk a power-of-two target ladder
  // instead — the point there is scaling, and the generators cannot hit
  // every N exactly anyway. Targets that land on the same actual size are
  // deduplicated.
  const auto kMaxNodes = static_cast<std::size_t>(max_nodes);
  std::vector<std::size_t> targets;
  if (topology == "complete") {
    for (std::size_t n = kMinNodes; n <= kMaxNodes; ++n) {
      targets.push_back(n);
    }
  } else {
    std::size_t last_actual = 0;
    for (std::size_t t = kMinNodes; t < kMaxNodes; t *= 2) {
      if (actual_nodes(topology, t) != last_actual) {
        targets.push_back(t);
        last_actual = actual_nodes(topology, t);
      }
    }
    if (actual_nodes(topology, kMaxNodes) != last_actual) {
      targets.push_back(kMaxNodes);
    }
  }

  const std::size_t cache_rows = std::max<std::uint64_t>(1, row_cache);
  const std::vector<ScalingPoint> points = runtime::sweep(
      targets.size(), bench::sweep_options("fig6_scaling"),
      [&](std::size_t index, std::uint64_t /*seed*/) {
        const NetworkCase network = build_network(topology, targets[index]);
        const core::SingleFileModel model =
            build_model(network, provider, cache_rows);
        return measure_scaling_point(model, alpha_points);
      });

  util::Table table({"N", "best alpha", "iterations", "final cost",
                     "optimal x_i (=1/N)"},
                    4);
  std::vector<double> iteration_series;
  for (const ScalingPoint& point : points) {
    table.add_row({static_cast<long long>(point.n), point.best_alpha,
                   static_cast<long long>(point.iterations), point.cost,
                   1.0 / static_cast<double>(point.n)});
    iteration_series.push_back(static_cast<double>(point.iterations));
  }
  std::cout << bench::render(table) << '\n';
  std::cout << util::ascii_chart(iteration_series, 34, 8,
                                 "iterations (x: N = 4.." +
                                     std::to_string(kMaxNodes) + ")")
            << '\n';
  std::cout << "Flatness check: max/min iterations across N = "
            << *std::max_element(iteration_series.begin(),
                                 iteration_series.end()) /
                   std::max(1.0, *std::min_element(iteration_series.begin(),
                                                   iteration_series.end()))
            << "x (paper: ~flat)\n";
  return 0;
}
