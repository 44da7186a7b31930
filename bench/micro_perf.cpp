// Microbenchmarks (google-benchmark): gradient evaluation, one algorithm
// iteration, all-pairs shortest paths, ring weight computation, and DES
// throughput — the building blocks whose costs determine how cheaply the
// algorithm can run "in the background" (Section 5.3).
#include <benchmark/benchmark.h>

#include <limits>
#include <map>

#include "baselines/branch_and_bound.hpp"
#include "catalog/catalog_solver.hpp"
#include "catalog/catalog_spec.hpp"
#include "core/allocator.hpp"
#include "core/batch_allocator.hpp"
#include "core/batch_kernels.hpp"
#include "core/simd_dispatch.hpp"
#include "core/ring_model.hpp"
#include "core/single_file.hpp"
#include "core/trace_export.hpp"
#include "fs/fragment_map.hpp"
#include "fs/popularity.hpp"
#include "fs/weighted_assignment.hpp"
#include "net/cost_provider.hpp"
#include "net/generators.hpp"
#include "net/hierarchy.hpp"
#include "net/shortest_paths.hpp"
#include "runtime/sweep.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/trace_server.hpp"
#include "sim/des.hpp"
#include "sim/des_system.hpp"
#include "util/rng.hpp"

namespace {

using namespace fap;

core::SingleFileModel make_model(std::size_t n) {
  const net::Topology topology = net::make_complete(n, 1.0);
  return core::SingleFileModel(core::make_problem(
      topology, core::Workload::uniform(n, 1.0), /*mu=*/1.5, /*k=*/1.0));
}

// Model setup runs an O(n³) all-pairs pass on a complete topology, and
// google-benchmark re-enters each benchmark body while calibrating the
// iteration count — cache the models so the n = 1000 setup happens once.
const core::SingleFileModel& cached_model(std::size_t n) {
  static std::map<std::size_t, core::SingleFileModel> models;
  auto it = models.find(n);
  if (it == models.end()) {
    it = models.emplace(n, make_model(n)).first;
  }
  return it->second;
}

void BM_GradientEvaluation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SingleFileModel& model = cached_model(n);
  const std::vector<double> x(n, 1.0 / static_cast<double>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.gradient(x));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GradientEvaluation)->Arg(4)->Arg(20)->Arg(100)->Arg(1000);

void BM_AllocatorStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SingleFileModel& model = cached_model(n);
  core::AllocatorOptions options;
  options.alpha = 0.3;
  const core::ResourceDirectedAllocator allocator(model, options);
  std::vector<double> x(n, 0.0);
  x[0] = 0.8;
  x[1] = 0.2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.step(x));
  }
}
BENCHMARK(BM_AllocatorStep)->Arg(4)->Arg(20)->Arg(100)->Arg(1000);

// The active-set procedure in isolation from a two-node start. Every empty
// node's marginal utility lies above the group average that the two
// loaded nodes pull down, so nobody is pinned and each call takes the
// all-active path: step (i) and a sort. BM_ActiveSetPointMass below times
// the boundary case.
void BM_ActiveSet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SingleFileModel& model = cached_model(n);
  const core::ResourceDirectedAllocator allocator(model, {});
  const core::ConstraintGroup group = model.constraint_groups().front();
  std::vector<double> x(n, 0.0);
  x[0] = 0.8;
  x[1] = 0.2;
  const std::vector<double> du = model.marginal_utilities(x);
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.active_set(group, x, du, 0.3));
  }
}
BENCHMARK(BM_ActiveSet)->Arg(100)->Arg(1000);

// The active-set procedure on catalog lanes, the boundary case nearly
// every catalog inner step takes: each call gets one object's point-mass
// start and marginal utilities, built as the catalog's batch task builds
// them (object_access_cost and object_start at zero prices), so all but a
// few nodes are pinned at the floor. One iteration is one call; the calls
// cycle over 64 objects of one synthetic catalog.
void BM_ActiveSetPointMass(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  catalog::SyntheticCatalogOptions synth;
  synth.objects = 64;
  synth.nodes = n;
  const catalog::CatalogSpec spec = catalog::make_synthetic_catalog(synth, 7);
  const catalog::CatalogSolver solver(spec, catalog::CatalogOptions{});
  const std::vector<double> prices(n, 0.0);
  const auto lane_model = [&](std::size_t o) {
    std::vector<double> lambda(n, 0.0);
    lambda[spec.home[o]] = spec.rate[o];
    return core::SingleFileModel(core::SingleFileProblem{
        nullptr, std::move(lambda), spec.mu, spec.k, spec.delay, {}, {},
        solver.object_access_cost(o, prices)});
  };
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> dus;
  for (std::size_t o = 0; o < spec.object_count(); ++o) {
    xs.push_back(solver.object_start(o, prices));
    dus.push_back(lane_model(o).marginal_utilities(xs.back()));
  }
  // The lanes share one allocator: a catalog lane has no storage caps, so
  // the procedure reads nothing from the model beyond the dimension.
  const core::SingleFileModel model = lane_model(0);
  const core::ResourceDirectedAllocator allocator(
      model, solver.options().inner);
  const core::ConstraintGroup group = model.constraint_groups().front();
  const double alpha = solver.options().inner.alpha;
  std::size_t lane = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        allocator.active_set(group, xs[lane], dus[lane], alpha));
    lane = lane + 1 == xs.size() ? 0 : lane + 1;
  }
}
BENCHMARK(BM_ActiveSetPointMass)->Arg(10)->Arg(100);

// One instance family shared by the batch-vs-serial comparison below:
// lane k descends the n = 16 complete-graph model from a lane-specific
// interior start with a lane-specific step size. epsilon is unattainably
// small, so every lane runs to the 100-iteration cap and items processed
// is exactly lanes * 100 instance-steps on both paths — items/sec is
// directly comparable across BM_BatchAllocatorStep and
// BM_SerialAllocatorStep at the same lane count.
constexpr std::size_t kStepBenchIterations = 100;
constexpr std::size_t kStepBenchNodes = 16;

core::AllocatorOptions step_bench_options(std::size_t lane) {
  core::AllocatorOptions options;
  options.alpha = 0.01 + 0.0002 * static_cast<double>(lane % 50);
  options.epsilon = 1e-300;
  options.max_iterations = kStepBenchIterations;
  return options;
}

std::vector<double> step_bench_start(std::size_t lane) {
  std::vector<double> x(kStepBenchNodes);
  double total = 0.0;
  for (std::size_t i = 0; i < kStepBenchNodes; ++i) {
    x[i] = 1.0 + 0.0125 * static_cast<double>((i * 7 + lane) % kStepBenchNodes);
    total += x[i];
  }
  for (double& v : x) {
    v /= total;
  }
  return x;
}

// The SoA lockstep kernel: submit `lanes` instances, run them to the
// iteration cap as one batch. Construction and submission copies sit
// inside the timing loop — they are part of the price of batching and are
// amortized over lanes * 100 steps, exactly as in the sweep pipeline.
void BM_BatchAllocatorStep(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const core::SingleFileModel& model = cached_model(kStepBenchNodes);
  for (auto _ : state) {
    core::BatchAllocator batch(lanes);
    for (std::size_t k = 0; k < lanes; ++k) {
      batch.submit(model, step_bench_options(k), step_bench_start(k));
    }
    benchmark::DoNotOptimize(batch.run_all());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes) *
                          static_cast<int64_t>(kStepBenchIterations));
}
BENCHMARK(BM_BatchAllocatorStep)->Arg(8)->Arg(64)->Arg(256);

// The serial mirror: the same instances, one ResourceDirectedAllocator
// run() each (run() is the production serial path — an in-place
// step_into loop). Compare items/sec against BM_BatchAllocatorStep at
// equal lane count for the aggregate speedup of batching.
void BM_SerialAllocatorStep(benchmark::State& state) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  const core::SingleFileModel& model = cached_model(kStepBenchNodes);
  for (auto _ : state) {
    for (std::size_t k = 0; k < lanes; ++k) {
      const core::ResourceDirectedAllocator allocator(model,
                                                      step_bench_options(k));
      benchmark::DoNotOptimize(allocator.run(step_bench_start(k)));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes) *
                          static_cast<int64_t>(kStepBenchIterations));
}
BENCHMARK(BM_SerialAllocatorStep)->Arg(8)->Arg(64)->Arg(256);

// --- Isolated kernel benchmarks: the dense SoA passes without the
// lockstep driver around them, so kernel-level regressions (or SIMD
// wins) are visible separately from submit/retire bookkeeping. The
// synthetic plane mirrors the BM_BatchAllocatorStep population: n = 16
// single-server rows, per-lane step sizes, fixed step rule.
core::detail::BatchSoA make_kernel_bench_soa(std::size_t lanes) {
  core::detail::BatchSoA soa;
  const std::size_t stride = core::detail::round_up_stride(lanes);
  soa.stride = stride;
  soa.live = lanes;
  soa.node_cap = kStepBenchNodes;
  soa.n_min = kStepBenchNodes;
  soa.n_max = kStepBenchNodes;
  soa.any_dyn = false;
  const std::size_t cells = kStepBenchNodes * stride;
  soa.x.assign(cells, 0.0);
  soa.xn.assign(cells, 0.0);
  soa.du.assign(cells, 0.0);
  soa.d2c.assign(cells, 0.0);
  soa.c.assign(cells, 0.0);
  soa.mu.assign(cells, 1.0);
  soa.imu.assign(cells, 1.0);
  soa.cap.assign(cells, std::numeric_limits<double>::infinity());
  for (util::AlignedVector* v :
       {&soa.lane_tr, &soa.lane_k, &soa.lane_scv, &soa.lane_rho,
        &soa.lane_nd, &soa.lane_dynd, &soa.lane_alpha_opt,
        &soa.sum_full, &soa.avg_full, &soa.alpha, &soa.lo, &soa.hi,
        &soa.theta}) {
    v->assign(stride, 0.0);
  }
  soa.pinc.assign(stride, 0u);
  soa.viol.assign(stride, 0u);
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::vector<double> start = step_bench_start(k);
    for (std::size_t j = 0; j < kStepBenchNodes; ++j) {
      soa.x[j * stride + k] = start[j];
      soa.c[j * stride + k] = 0.5 + 0.1 * static_cast<double>(j % 5);
      soa.mu[j * stride + k] = 1.5;
      soa.imu[j * stride + k] = 1.0 / 1.5;
    }
    soa.lane_tr[k] = 1.0;
    soa.lane_k[k] = 1.0;
    soa.lane_scv[k] = 1.0;
    soa.lane_rho[k] = 1.0;
    soa.lane_nd[k] = static_cast<double>(kStepBenchNodes);
    soa.lane_alpha_opt[k] = step_bench_options(k).alpha;
  }
  return soa;
}

// One delay-law + marginal-utility row sweep (the division-heavy pass).
// items = lane-cells evaluated.
void kernel_gradient_bench(benchmark::State& state,
                           const core::detail::BatchKernels& kernels) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  core::detail::BatchSoA soa = make_kernel_bench_soa(lanes);
  for (auto _ : state) {
    kernels.derivative_rows(soa, /*with_second=*/false);
    benchmark::DoNotOptimize(soa.du.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes) *
                          static_cast<int64_t>(kStepBenchNodes));
}

// The census + θ + clamp-apply passes (the step's boundary logic).
// items = lane-steps applied.
void kernel_step_bench(benchmark::State& state,
                       const core::detail::BatchKernels& kernels) {
  const auto lanes = static_cast<std::size_t>(state.range(0));
  core::detail::BatchSoA soa = make_kernel_bench_soa(lanes);
  kernels.derivative_rows(soa, /*with_second=*/false);
  kernels.lane_sums(soa);
  kernels.step_sizes(soa);
  for (auto _ : state) {
    kernels.census_theta(soa);
    kernels.apply_step(soa);
    benchmark::DoNotOptimize(soa.xn.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(lanes));
}

void BM_BatchKernelGradient(benchmark::State& state) {
  kernel_gradient_bench(state, core::detail::select_batch_kernels());
}
BENCHMARK(BM_BatchKernelGradient)->Arg(64)->Arg(256);

void BM_BatchKernelGradientScalar(benchmark::State& state) {
  kernel_gradient_bench(state, core::detail::scalar_batch_kernels());
}
BENCHMARK(BM_BatchKernelGradientScalar)->Arg(64)->Arg(256);

void BM_BatchKernelStep(benchmark::State& state) {
  kernel_step_bench(state, core::detail::select_batch_kernels());
}
BENCHMARK(BM_BatchKernelStep)->Arg(64)->Arg(256);

void BM_BatchKernelStepScalar(benchmark::State& state) {
  kernel_step_bench(state, core::detail::scalar_batch_kernels());
}
BENCHMARK(BM_BatchKernelStepScalar)->Arg(64)->Arg(256);

void BM_FullConvergence(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SingleFileModel& model = cached_model(n);
  core::AllocatorOptions options;
  options.alpha = 0.3;
  options.epsilon = 1e-3;
  const core::ResourceDirectedAllocator allocator(model, options);
  std::vector<double> start(n, 0.0);
  start[0] = 0.8;
  start[1] = 0.1;
  start[2] = 0.1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(allocator.run(start));
  }
}
BENCHMARK(BM_FullConvergence)->Arg(4)->Arg(20)->Arg(100);

void BM_AllPairsShortestPaths(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const net::Topology topology = net::make_random_metric(n, 4, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::all_pairs_shortest_paths(topology));
  }
}
BENCHMARK(BM_AllPairsShortestPaths)->Arg(20)->Arg(100)->Arg(300)->Arg(1000);

// Pool-parallel APSP (byte-identical rows, fanned over workers). The pool
// is built outside the timing loop: the steady-state cost is what matters
// for the pipeline, which reuses one pool across a whole sweep.
void BM_AllPairsShortestPathsParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const net::Topology topology = net::make_random_metric(n, 4, rng);
  runtime::ThreadPool pool(runtime::ThreadPool::hardware_jobs());
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::all_pairs_shortest_paths(topology, pool));
  }
}
BENCHMARK(BM_AllPairsShortestPathsParallel)->Arg(300)->Arg(1000);

// The row-provider miss path: every request asks for a new source row
// (stride 7919 is coprime to n, so the walk cycles through all sources
// and a capacity-8 LRU never hits) — each iteration pays one CSR
// Dijkstra plus the cache bookkeeping. Compare n× this against
// BM_AllPairsShortestPaths at the same n for the full-matrix cost the
// on-demand path avoids.
void BM_RowProvider(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  const net::Topology topology = net::make_random_metric(n, 4, rng);
  const net::RowCostProvider provider(topology, /*row_cache_capacity=*/8);
  std::size_t source = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.row(source));
    source = (source + 7919) % n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RowProvider)->Arg(1000)->Arg(10000);

// The implicit tier-tree pair cost: O(depth) arithmetic per c_ij with no
// graph in sight. geo_tiers(255, 4, 4) is the catalog_scale N=4101
// acceptance network; the id walk covers sources and destinations across
// all four levels. items = pair costs computed.
void BM_HierarchicalCost(benchmark::State& state) {
  const net::TieredNetwork tiered = net::make_geo_tiers(255, 4, 4);
  const net::HierarchicalCostProvider provider(tiered.spec);
  const std::size_t n = provider.node_count();
  std::size_t i = 0;
  std::size_t j = n / 2;
  for (auto _ : state) {
    benchmark::DoNotOptimize(provider.cost(i, j));
    i = (i + 7919) % n;
    j = (j + 104729) % n;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HierarchicalCost);

void BM_RingGradient(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> costs(n, 1.0);
  core::RingProblem problem{net::VirtualRing(costs),
                            2.0,
                            std::vector<double>(n, 1.0 / n),
                            std::vector<double>(n, 1.5),
                            1.0,
                            queueing::DelayModel::mm1(0.95),
                            0.0};
  const core::RingModel model(problem);
  const std::vector<double> x(n, 2.0 / static_cast<double>(n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.gradient(x));
  }
}
BENCHMARK(BM_RingGradient)->Arg(4)->Arg(20)->Arg(100);

void BM_DesThroughput(benchmark::State& state) {
  const core::SingleFileModel model(core::make_paper_ring_problem());
  sim::DesConfig config =
      sim::des_config_for(model, {0.25, 0.25, 0.25, 0.25});
  config.measured_accesses = static_cast<std::size_t>(state.range(0));
  config.warmup_time = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::run_des(config));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DesThroughput)->Arg(10000)->Arg(100000);

// A heavily loaded DES config: every node generates at unit rate, routing
// spreads the traffic over all n holders, and per-node service rates are
// sized so each server runs at utilization rho — the regime where queueing
// (not idling) dominates and the event loop runs flat out.
sim::DesConfig loaded_des_config(std::size_t n, double rho) {
  util::Rng rng(29);
  sim::DesConfig config;
  config.lambda.assign(n, 1.0);
  // Mildly skewed routing row (shared by every source) so the alias
  // sampler walks a non-trivial table.
  std::vector<double> row(n);
  double total = 0.0;
  for (double& w : row) {
    w = rng.uniform(0.5, 1.5);
    total += w;
  }
  for (double& w : row) {
    w /= total;
  }
  config.routing.assign(n, row);
  // Node i receives n * row[i] accesses per unit time; pin rho everywhere.
  config.mu.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    config.mu[i] = static_cast<double>(n) * row[i] / rho;
  }
  util::Rng topology_rng(7);
  const net::Topology topology =
      n == 4 ? net::make_ring(n, 1.0)
             : net::make_random_metric(n, 4, topology_rng);
  const net::CostMatrix costs = net::all_pairs_shortest_paths(topology);
  config.comm_cost.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      config.comm_cost[j][i] = costs(j, i);
    }
  }
  return config;
}

// The DES event loop in steady state: one long-lived DesSystem advanced in
// completion chunks, warmup and construction outside the timing loop. Arg
// is the node count: 4 = paper-ring scale, 64 = a random-metric network
// where routing rows and server state stop fitting in a handful of cache
// lines. items/sec is measured completions/sec (each completion is >= 2
// processed events: its generate + its departure).
void BM_DesHotLoop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::DesSystem system(loaded_des_config(n, /*rho=*/0.9));
  system.advance_until(200.0);  // past the fill-up transient
  system.reset_window();
  constexpr std::size_t kChunk = 10000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(system.advance_completions(kChunk));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kChunk));
}
BENCHMARK(BM_DesHotLoop)->Arg(4)->Arg(64);

// The replication path run_des_replications takes (runtime::sweep, serial):
// R independent warm-up-and-measure runs of one configuration. Exercises
// whole-run engine setup/reuse rather than the steady-state loop alone.
void BM_DesReplicationBatch(benchmark::State& state) {
  sim::DesConfig config = loaded_des_config(4, /*rho=*/0.9);
  config.warmup_time = 50.0;
  config.measured_accesses = 20000;
  constexpr std::size_t kReplications = 4;
  runtime::SweepOptions options;
  options.base_seed = 20260806;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::run_des_replications(config, kReplications, options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kReplications) *
                          static_cast<int64_t>(config.measured_accesses));
}
BENCHMARK(BM_DesReplicationBatch);

// Trace generation alone: the open-loop workload source serve_trace
// drives 10M+ requests through. Drift is set so the alias table rebuilds
// on a realistic cadence (a few records of rotation per epoch batch).
// items/sec is generated requests/sec — the ceiling on serving
// throughput that is pure workload synthesis.
void BM_TraceGen(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  serve::TraceWorkload workload;
  workload.records = records;
  workload.total_rate = 9.6;
  workload.zipf_s = 0.9;
  workload.drift_rate = 0.001;
  workload.update_fraction = 0.15;
  workload.epoch_requests = 8192;
  workload.seed = 20260809;
  serve::TraceGenerator generator(workload, /*node_count=*/16);
  std::size_t produced = 0;
  for (auto _ : state) {
    const std::vector<serve::TraceRequest>& epoch =
        generator.next_epoch(workload.epoch_requests);
    benchmark::DoNotOptimize(epoch.data());
    produced += epoch.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(produced));
}
BENCHMARK(BM_TraceGen)->Arg(5000)->Arg(200000);

// End-to-end trace serving at the CI smoke scale (Experiment A18's
// pipeline in miniature): generator -> DES injection -> per-window
// estimation, with the arg selecting the policy (0 = static, 1 = online
// with re-solves + live migration, 2 = per-node LRU caches). items/sec is
// served requests/sec.
void BM_ServeTrace(benchmark::State& state) {
  const net::Topology topology = net::make_ring(4);
  serve::TraceWorkload workload;
  workload.records = 5000;
  workload.total_rate = 2.4;  // 60% of 4 nodes at mu = 1
  workload.zipf_s = 0.9;
  workload.update_fraction = 0.15;
  workload.epoch_requests = 8192;
  workload.seed = 20260809;
  const double window_time = 2.0 * 8192.0 / workload.total_rate;
  workload.drift_rate = 2.0 / window_time;
  serve::TraceServeOptions options;
  constexpr serve::ServeMode kModes[] = {serve::ServeMode::kStatic,
                                         serve::ServeMode::kOnline,
                                         serve::ServeMode::kLru};
  options.mode = kModes[state.range(0)];
  options.estimation_epochs = 2;
  options.hysteresis = 0.05;
  constexpr std::size_t kRequests = 100000;
  for (auto _ : state) {
    serve::TraceServer server(topology, workload, options);
    benchmark::DoNotOptimize(server.serve(kRequests));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRequests));
}
BENCHMARK(BM_ServeTrace)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_FragmentMapLookup(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(32, 1.0 / 32.0);
  const fs::FragmentMap map = fs::FragmentMap::from_allocation(records, x);
  std::size_t record = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.node_of(record));
    record = (record + 7919) % records;
  }
}
BENCHMARK(BM_FragmentMapLookup)->Arg(10000)->Arg(1000000);

void BM_ZipfPacking(benchmark::State& state) {
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::vector<double> popularity = fs::zipf_popularity(records, 1.1);
  const std::vector<double> targets{0.4, 0.3, 0.2, 0.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs::pack_records(popularity, targets));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(records));
}
BENCHMARK(BM_ZipfPacking)->Arg(1000)->Arg(50000);

void BM_BranchAndBound(benchmark::State& state) {
  const auto files = static_cast<std::size_t>(state.range(0));
  util::Rng rng(11);
  const net::Topology topology = net::make_random_metric(8, 2, rng);
  core::MultiFileProblem problem{net::all_pairs_shortest_paths(topology),
                                 {},
                                 {},
                                 1.0,
                                 queueing::DelayModel()};
  double total = 0.0;
  for (std::size_t f = 0; f < files; ++f) {
    std::vector<double> lambda(8, 0.0);
    for (double& rate : lambda) {
      rate = rng.uniform(0.01, 0.05);
      total += rate;
    }
    problem.per_file_lambda.push_back(std::move(lambda));
  }
  problem.mu.assign(8, total * 1.5);
  const core::MultiFileModel model(problem);
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::best_integral_multi_bnb(model));
  }
}
BENCHMARK(BM_BranchAndBound)->Arg(4)->Arg(6)->Arg(8);

void BM_TraceJsonExport(benchmark::State& state) {
  const core::SingleFileModel model = make_model(20);
  core::AllocatorOptions options;
  options.alpha = 0.1;
  options.epsilon = 1e-6;
  options.record_trace = true;
  const core::ResourceDirectedAllocator allocator(model, options);
  std::vector<double> start(20, 0.0);
  start[0] = 1.0;
  const core::AllocationResult result = allocator.run(start);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::result_to_json(result));
  }
}
BENCHMARK(BM_TraceJsonExport);

// Price-decomposed catalog allocation end to end (Experiment A16's inner
// engine): K objects over a 24-node network with moderate slack, so the
// dual loop settles in one round and the measurement tracks the
// per-object decomposition cost rather than tâtonnement behavior.
void BM_CatalogSolve(benchmark::State& state) {
  const auto objects = static_cast<std::size_t>(state.range(0));
  static std::map<std::size_t, catalog::CatalogSpec> specs;
  auto it = specs.find(objects);
  if (it == specs.end()) {
    catalog::SyntheticCatalogOptions synth;
    synth.objects = objects;
    synth.nodes = 24;
    synth.headroom = 0.5;
    synth.zipf_s = 0.9;
    it = specs.emplace(objects, catalog::make_synthetic_catalog(synth, 7))
             .first;
  }
  const catalog::CatalogSolver solver(it->second, catalog::CatalogOptions{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(objects));
}
BENCHMARK(BM_CatalogSolve)
    ->Arg(1000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Expanded BENCHMARK_MAIN() so the JSON context records THIS binary's
// build type and the SIMD level dispatch resolved at startup. The
// library's own "library_build_type" context field describes how
// libbenchmark was built (the system package reports "debug"), which is
// useless for deciding whether a capture is comparable —
// scripts/perf_check.py reads fap_build_type instead.
int main(int argc, char** argv) {
#if defined(NDEBUG)
  benchmark::AddCustomContext("fap_build_type", "release");
#else
  benchmark::AddCustomContext("fap_build_type", "debug");
#endif
  benchmark::AddCustomContext(
      "fap_simd_level",
      fap::core::simd_level_name(fap::core::active_simd_level()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
