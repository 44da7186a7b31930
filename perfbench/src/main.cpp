// The repository benchmark: one binary that runs every workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--part P] [--work-dir DIR] [--source ID]
//
// Workloads (the seed is the only input the library receives, through the
// generators below; the same seed gives the same inputs):
//
//   serve_online       A18 trace, drift + flash crowds, ServeMode::kOnline:
//                      estimation, warm re-solves and fs migration.
//   serve_lru          A18 trace without drift, 30% updates, kLru at a 5%
//                      cache: a stable queue, and the cache does the work.
//   catalog_contended  A16 catalogs, K = 1000 over 10 nodes at 5% headroom:
//                      capacity binds, the price loop runs all its rounds,
//                      repair moves fragments.
//   catalog_wide       an A16 catalog at K = 1e5 over 100 nodes: one round,
//                      point-mass fast path; per-object cost dominates.
//   A catalog pass solves the catalogs of one --part, each from a seed
//   derived from --seed, over one fixed network.
//
// --trace 0 measures the end-to-end metrics with no tracing: set-up is
// repeated and its median reported, then the main call (TraceServer::serve,
// or a pass of CatalogSolver::solve calls) repeats for --seconds and its
// median is reported. --trace 1 makes the separate traced run that gives the
// per-layer metrics, from spans around this file's calls into each layer
// and from the counters those layers return; its spans are written to
// --work-dir when the run ends.
//
// Every repeat is checked (TraceServer: completions == requests injected;
// catalog: residual, row sums, capacities) and must reproduce the first
// repeat's result digest; the digests are printed with the provenance so
// that perfbench/run.py can compare processes. The last stdout line is the
// result object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only
// when every check passed.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hpp"
#include "catalog/catalog_solver.hpp"
#include "catalog/catalog_spec.hpp"
#include "core/simd_dispatch.hpp"
#include "net/generators.hpp"
#include "net/shortest_paths.hpp"
#include "runtime/metrics.hpp"
#include "runtime/sweep.hpp"
#include "serve/trace_server.hpp"
#include "sim/des_system.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using perfbench::Recorder;
using perfbench::Threads;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0). Each is defined on every workload; see
// perfbench/README.md for what it measures on serve_* and on catalog_*.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"items_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"delay_p50", "t_sim"},
    {"comm_cost_mean", "cost"},
    {"external_traffic", "cost/t_sim"},
};

// Per-layer metrics (--trace 1). A metric of a layer a workload does not
// run reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"serve.ctor_s", "s"},
    {"serve.call_s", "s"},
    {"serve.generate.busy_s", "s"},
    {"serve.generate.requests", "count"},
    {"serve.generate.epochs", "count"},
    {"serve.generate.ns_per_request", "ns"},
    {"serve.other_s", "s"},
    {"serve.cache.hits", "count"},
    {"serve.cache.misses", "count"},
    {"serve.cache.invalidations", "count"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.origin_frac", "ratio"},
    {"serve.delay_p99", "t_sim"},
    {"serve.delay_p999", "t_sim"},
    {"serve.online.reallocations", "count"},
    {"serve.online.suppressed", "count"},
    {"serve.online.failed_estimations", "count"},
    {"fs.migration.records", "count"},
    {"fs.migration.waves", "count"},
    {"fs.migration.stalled_requests", "count"},
    {"sim.des.busy_s", "s"},
    {"sim.des.completions", "count"},
    {"sim.des.ns_per_completion", "ns"},
    {"net.apsp_s", "s"},
    {"core.batch.busy_s", "s"},
    {"core.batch.count", "count"},
    {"core.batch.ms_p50", "ms"},
    {"core.batch.ms_p99", "ms"},
    {"core.batch.tail_q", "quantile"},
    {"core.batch.ms_max", "ms"},
    {"core.inner_iterations", "count"},
    {"core.unconverged_objects", "count"},
    {"catalog.instances", "count"},
    {"catalog.spec_s", "s"},
    {"catalog.solve_s", "s"},
    {"catalog.rounds", "count"},
    {"catalog.oscillations", "count"},
    {"catalog.price_converged", "ratio"},
    {"catalog.repair_moves", "count"},
    {"catalog.pre_repair_residual", "volume"},
    {"catalog.round_s", "s"},
    {"catalog.serial_s", "s"},
    {"catalog.self_s", "s"},
    {"runtime.workers", "count"},
    {"runtime.parallel_efficiency", "ratio"},
    {"trace.overhead_s", "s"},
};

struct Outcome {
  std::vector<std::string> violations;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, double> metrics;

  /// (input seed, result digest) of each instance, from its first repeat;
  /// printed with the provenance so that processes can be compared.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;

  void check(const std::vector<std::string>& found) {
    violations.insert(violations.end(), found.begin(), found.end());
  }
  /// Every repeat of one seed must reproduce the first repeat's digest.
  void check_digest(std::size_t instance, std::uint64_t seed,
                    std::uint64_t digest) {
    if (instance == digests.size()) {
      digests.emplace_back(seed, digest);
    } else if (digests.at(instance).second != digest) {
      violations.push_back("result digest differs between repeats of a seed");
    }
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string source = "unknown";
  std::size_t part = 0;
};

/// Repeats set-up until both kMinReps repeats and kMinSeconds have passed
/// (or kMaxReps), so the median of a sub-millisecond set-up rests on
/// hundreds of samples.
bool more_setup(std::size_t reps, double elapsed) {
  constexpr std::size_t kMinReps = 5;
  constexpr std::size_t kMaxReps = 1001;
  constexpr double kMinSeconds = 0.2;
  return reps < kMinReps || (elapsed < kMinSeconds && reps < kMaxReps);
}

// ---------------------------------------------------------------------------
// Serving workloads: the A18 trace of bench/serve_trace.

constexpr std::size_t kServeNodes = 16;
constexpr std::size_t kServeRequests = 3000000;
constexpr std::size_t kServeEpoch = 65536;
constexpr std::size_t kServeEstimationEpochs = 4;

fap::serve::TraceWorkload serve_workload(bool online, std::uint64_t seed) {
  constexpr std::size_t kRecords = 200000;
  constexpr double kLoad = 0.6;
  constexpr std::size_t kFlashCrowds = 2;
  fap::serve::TraceWorkload workload;
  workload.records = kRecords;
  workload.total_rate = static_cast<double>(kServeNodes) * kLoad;  // μ = 1
  workload.zipf_s = 0.9;
  const double window_time =
      static_cast<double>(kServeEstimationEpochs * kServeEpoch) /
      workload.total_rate;
  // serve_online: the hot set walks 2 records per estimation window, so
  // the online policy has drift to detect and migrate away. serve_lru: no
  // drift keeps the queue stable, and 30% updates make the cache both hit
  // and invalidate.
  workload.drift_rate = online ? 2.0 / window_time : 0.0;
  workload.update_fraction = online ? 0.15 : 0.30;
  workload.epoch_requests = kServeEpoch;
  workload.seed = seed;
  const double run_time =
      static_cast<double>(kServeRequests) / workload.total_rate;
  for (std::size_t c = 0; c < kFlashCrowds; ++c) {
    fap::serve::FlashCrowd crowd;
    crowd.start = run_time * static_cast<double>(c + 1) /
                  static_cast<double>(kFlashCrowds + 1);
    crowd.end = crowd.start + run_time / 10.0;
    crowd.first_record = (kRecords * (2 * c + 1)) / (2 * kFlashCrowds);
    crowd.last_record = crowd.first_record + kRecords / 200 + 1;
    crowd.boost = 10.0;
    workload.flash_crowds.push_back(crowd);
  }
  return workload;
}

fap::serve::TraceServeOptions serve_options(bool online) {
  fap::serve::TraceServeOptions options;
  options.mode = online ? fap::serve::ServeMode::kOnline
                        : fap::serve::ServeMode::kLru;
  options.estimation_epochs = kServeEstimationEpochs;
  options.hysteresis = 0.05;
  options.cooldown_windows = 1;
  options.migration_bandwidth = 2000.0;
  options.max_transfers_per_node = 2;
  options.cache_fraction = 0.05;
  return options;
}

/// Standalone replay of the generator and the DES: the same trace through
/// TraceGenerator::next_epoch and then DesSystem::inject_access /
/// advance_until / advance_completions, every request served at its home in
/// `layout`. Each epoch's generator and DES calls are their own spans, so
/// the layers' busy times are measured apart from routing and bookkeeping.
void replay_generator_and_des(const fap::serve::TraceWorkload& workload,
                              const fap::net::Topology& topology,
                              const fap::fs::FragmentMap& layout,
                              Recorder& rec, std::size_t parent,
                              Outcome& out) {
  const std::size_t n = topology.node_count();
  std::optional<fap::net::CostMatrix> comm;
  rec.time("net.apsp", Threads::kOne,
           [&] { comm.emplace(fap::net::all_pairs_shortest_paths(topology)); },
           parent);
  out.metrics["net.apsp_s"] = rec.last_call().wall_s;

  fap::sim::DesConfig config;
  config.open_loop = true;
  config.lambda.assign(n, 0.0);
  config.mu.assign(n, 1.0);
  config.routing.assign(n, std::vector<double>(n, 0.0));
  config.comm_cost.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    config.routing[i][i] = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      config.comm_cost[i][j] = comm->cost(i, j);
    }
  }
  config.window_by_completion = true;
  config.seed = workload.seed;
  fap::sim::DesSystem engine(std::move(config));
  fap::serve::TraceGenerator generator(workload, n);

  double generate_s = 0.0;
  double des_s = 0.0;
  std::size_t requests = 0;
  std::size_t epochs = 0;
  while (requests < kServeRequests) {
    const std::vector<fap::serve::TraceRequest>* batch = nullptr;
    rec.time("serve.generate", Threads::kOne,
             [&] { batch = &generator.next_epoch(kServeRequests - requests); },
             parent);
    generate_s += rec.last_call().wall_s;
    rec.time("sim.des", Threads::kOne,
             [&] {
               for (const fap::serve::TraceRequest& request : *batch) {
                 const std::size_t target = layout.node_of(request.record);
                 engine.inject_access(request.time, request.origin, target,
                                      comm->cost(request.origin, target));
               }
               engine.advance_until(generator.now());
             },
             parent);
    des_s += rec.last_call().wall_s;
    requests += batch->size();
    ++epochs;
  }
  rec.time("sim.des", Threads::kOne,
           [&] {
             while (engine.advance_completions(65536) > 0) {
             }
           },
           parent);
  des_s += rec.last_call().wall_s;
  const std::size_t completions = engine.window().completions;
  if (completions != requests) {
    out.violations.push_back("DES replay: completions != requests injected");
  }
  out.metrics["serve.generate.busy_s"] = generate_s;
  out.metrics["serve.generate.requests"] = static_cast<double>(requests);
  out.metrics["serve.generate.epochs"] = static_cast<double>(epochs);
  out.metrics["serve.generate.ns_per_request"] =
      1e9 * generate_s / static_cast<double>(requests);
  out.metrics["sim.des.busy_s"] = des_s;
  out.metrics["sim.des.completions"] = static_cast<double>(completions);
  out.metrics["sim.des.ns_per_completion"] =
      1e9 * des_s / static_cast<double>(completions);
}

Outcome run_serve(bool online, const Args& args, Recorder& rec,
                  std::size_t root) {
  Outcome out;
  const fap::serve::TraceWorkload workload = serve_workload(online, args.seed);
  const fap::serve::TraceServeOptions options = serve_options(online);

  // Set-up: the topology plus the TraceServer constructor (its APSP).
  std::optional<fap::net::Topology> topology;
  std::unique_ptr<fap::serve::TraceServer> server;
  std::vector<double> setup_s;
  std::vector<double> ctor_s;
  const double setup_begin = rec.now();
  while (more_setup(setup_s.size(), rec.now() - setup_begin)) {
    server.reset();  // it refers to the topology replaced below
    const double t0 = rec.now();
    const std::size_t span = rec.open("setup", root);
    rec.time("net.make_ring", Threads::kOne,
             [&] { topology.emplace(fap::net::make_ring(kServeNodes)); },
             span);
    rec.time("serve.ctor", Threads::kOne,
             [&] {
               server = std::make_unique<fap::serve::TraceServer>(
                   *topology, workload, options);
             },
             span);
    ctor_s.push_back(rec.last_call().wall_s);
    rec.close(span);
    setup_s.push_back(rec.now() - t0);
  }

  fap::serve::TraceServeResult result;
  const auto serve_checked = [&](const char* name) {
    rec.time(name, Threads::kOne,
             [&] { result = server->serve(kServeRequests); }, root);
    out.check(perfbench::check_serve(result, kServeRequests));
    out.check_digest(0, workload.seed, perfbench::digest(result));
    out.attempted += kServeRequests;
    out.failed += (result.requests_injected - std::min(result.requests_injected,
                                                       result.completions)) +
                  result.failed;
    return rec.last_call().wall_s;
  };

  if (!args.trace) {
    std::vector<double> walls;
    std::vector<double> rss;
    const double deadline = rec.now() + args.seconds;
    while (walls.empty() || rec.now() < deadline) {
      perfbench::reset_peak_rss();
      walls.push_back(serve_checked("serve.serve"));
      rss.push_back(perfbench::peak_rss_mb());
    }
    out.metrics["peak_rss_mb"] = perfbench::median(rss);
    out.metrics["setup_s"] = perfbench::median(setup_s);
    out.metrics["items_per_s"] =
        static_cast<double>(kServeRequests) / perfbench::median(walls);
    out.metrics["delay_p50"] = result.delay_hist.quantile(0.5);
    out.metrics["comm_cost_mean"] = result.comm.mean();
    out.metrics["external_traffic"] = result.external_traffic();
    return out;
  }

  // Traced run: a warm-up call (the first call runs on a cold heap), the
  // traced call, and the same call untraced (the difference is the tracing
  // overhead), then the standalone generator + DES replay.
  serve_checked("serve.serve[warmup]");
  const double call_s = serve_checked("serve.serve");
  const double untraced_s = serve_checked("serve.serve[untraced]");
  const std::size_t replay = rec.open("replay[standalone]", root);
  replay_generator_and_des(workload, *topology, server->initial_layout(), rec,
                           replay, out);
  rec.close(replay);

  const double hits = static_cast<double>(result.cache_hits);
  const double lookups = hits + static_cast<double>(result.cache_misses);
  out.metrics["serve.ctor_s"] = perfbench::median(ctor_s);
  out.metrics["serve.call_s"] = call_s;
  out.metrics["serve.other_s"] = call_s -
                                 out.metrics["serve.generate.busy_s"] -
                                 out.metrics["sim.des.busy_s"];
  out.metrics["serve.cache.hits"] = hits;
  out.metrics["serve.cache.misses"] = static_cast<double>(result.cache_misses);
  out.metrics["serve.cache.invalidations"] =
      static_cast<double>(result.cache_invalidations);
  out.metrics["serve.cache.hit_ratio"] = lookups > 0.0 ? hits / lookups : 0.0;
  out.metrics["serve.origin_frac"] = result.hit_rate();
  out.metrics["serve.delay_p99"] = result.delay_hist.quantile(0.99);
  out.metrics["serve.delay_p999"] = result.delay_hist.quantile(0.999);
  out.metrics["serve.online.reallocations"] =
      static_cast<double>(result.reallocations);
  out.metrics["serve.online.suppressed"] =
      static_cast<double>(result.suppressed_reallocations);
  out.metrics["serve.online.failed_estimations"] =
      static_cast<double>(result.failed_estimations);
  out.metrics["fs.migration.records"] =
      static_cast<double>(result.migrated_records);
  out.metrics["fs.migration.waves"] =
      static_cast<double>(result.migration_waves);
  out.metrics["fs.migration.stalled_requests"] =
      static_cast<double>(result.stalled_requests);
  out.metrics["trace.overhead_s"] = call_s - untraced_s;
  return out;
}

// ---------------------------------------------------------------------------
// Catalog workloads: the A16 synthetic catalog of bench/catalog_scale.

constexpr std::size_t kCatalogWorkers = 2;

/// The catalogs' network is part of the workload, like serve's ring: the
/// random metric (3 nearest neighbours) that make_synthetic_catalog draws
/// for seed 1, catalog_scale's default, while --seed draws each catalog's
/// objects and origin mix. Drawing the network from --seed as well made
/// solve time swing 3x between seeds, because some metrics leave many
/// near-tied objects crawling to the iteration cap.
constexpr std::uint64_t kNetworkSeed = 1;

fap::net::CostMatrix catalog_network(std::size_t nodes) {
  fap::util::Rng rng(kNetworkSeed);
  fap::util::Rng topology_rng = rng.split();  // as make_synthetic_catalog
  return fap::net::all_pairs_shortest_paths(
      fap::net::make_random_metric(nodes, 3, topology_rng));
}

struct CatalogWorkload {
  fap::catalog::SyntheticCatalogOptions synth;
  /// Catalogs per pass, each from its own seed derived from --seed. Solve
  /// time depends on the catalog (how many objects crawl to the inner
  /// iteration cap), so a pass over several varies less from seed to seed
  /// than one solve does.
  std::size_t instances = 0;
};

CatalogWorkload catalog_workload(bool wide) {
  CatalogWorkload workload;
  fap::catalog::SyntheticCatalogOptions& synth = workload.synth;
  synth.zipf_s = 0.9;
  synth.locality = 0.5;
  if (wide) {
    synth.objects = 100000;
    synth.nodes = 100;
    synth.headroom = 0.25;
    workload.instances = 1;
  } else {
    // 100 objects per node at 5% headroom: capacity binds on almost every
    // catalog, the price loop spends all 16 rounds and repair moves
    // fragments. At 10% some catalogs converge in a round or two, and their
    // cost differs 10x from the rest. The A16 size (K = 1e4 over 100 nodes,
    // 25% headroom) takes 14-19 s per solve and sometimes converges early;
    // small catalogs let one run cover many of them.
    synth.objects = 1000;
    synth.nodes = 10;
    synth.headroom = 0.05;
    workload.instances = 16;
  }
  return workload;
}

struct CatalogInstance {
  std::uint64_t seed = 0;
  std::unique_ptr<fap::catalog::CatalogSpec> spec;
  std::unique_ptr<fap::catalog::CatalogSolver> solver;  // refers to *spec
  fap::catalog::CatalogResult result;
};

/// The MetricsSink records of one traced solve, each stamped with the time
/// its line reached this process. The sink writes into a FIFO that a
/// reader thread drains while the solve runs: a batch ends when its record
/// arrives and started wall_ms before, which places every core.batch span
/// on the run's clock without touching the library.
class BatchRecordPipe {
 public:
  struct Record {
    double end_s = 0.0;
    double wall_ms = 0.0;
  };

  BatchRecordPipe(const std::string& path, const Recorder& rec)
      : path_(path), rec_(rec) {
    ::unlink(path_.c_str());
    if (::mkfifo(path_.c_str(), 0600) != 0) {
      throw std::runtime_error("cannot create FIFO " + path_);
    }
    // The read end opens non-blocking (no writer yet), so opening the sink
    // for writing cannot block; reads block again once the writer exists.
    fd_ = ::open(path_.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd_ < 0) {
      ::unlink(path_.c_str());
      throw std::runtime_error("cannot open FIFO " + path_);
    }
    try {
      sink_ = std::make_unique<fap::runtime::MetricsSink>(path_);
    } catch (...) {
      ::close(fd_);
      ::unlink(path_.c_str());
      throw;
    }
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) & ~O_NONBLOCK);
    reader_ = std::thread([this] { drain(); });
  }
  ~BatchRecordPipe() { finish(); }
  BatchRecordPipe(const BatchRecordPipe&) = delete;
  BatchRecordPipe& operator=(const BatchRecordPipe&) = delete;

  fap::runtime::MetricsSink* sink() { return sink_.get(); }

  /// Closes the writer, waits for the reader to see EOF, and returns the
  /// records in arrival order.
  const std::vector<Record>& finish() {
    sink_.reset();
    if (reader_.joinable()) {
      reader_.join();
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      ::unlink(path_.c_str());
    }
    return records_;
  }

 private:
  void drain() {
    std::string pending;
    char buffer[1 << 16];
    while (true) {
      const ssize_t got = ::read(fd_, buffer, sizeof(buffer));
      if (got <= 0) {
        break;
      }
      const double arrived = rec_.now();
      pending.append(buffer, static_cast<std::size_t>(got));
      std::size_t line_start = 0;
      std::size_t line_end = 0;
      while ((line_end = pending.find('\n', line_start)) != std::string::npos) {
        const std::size_t key = pending.find("\"wall_ms\":", line_start);
        if (key < line_end) {
          records_.push_back(Record{
              arrived, std::strtod(pending.c_str() + key + 10, nullptr)});
        }
        line_start = line_end + 1;
      }
      pending.erase(0, line_start);
    }
  }

  std::string path_;
  const Recorder& rec_;
  int fd_ = -1;
  std::unique_ptr<fap::runtime::MetricsSink> sink_;
  std::vector<Record> records_;
  std::thread reader_;  // last: joined before the members it uses go
};

Outcome run_catalog(bool wide, const Args& args, Recorder& rec,
                    std::size_t root) {
  Outcome out;
  const CatalogWorkload workload = catalog_workload(wide);
  const fap::catalog::SyntheticCatalogOptions& synth = workload.synth;
  fap::catalog::CatalogOptions options;
  options.jobs = kCatalogWorkers;
  // Part p of a run solves catalogs [p·M, (p+1)·M) of the seed sequence,
  // so the processes of one run cover distinct catalogs.
  std::vector<CatalogInstance> instances(workload.instances);
  fap::runtime::TaskSeedSequence seeds(args.seed);
  for (std::size_t skip = 0; skip < args.part * instances.size(); ++skip) {
    seeds.next();
  }
  for (CatalogInstance& instance : instances) {
    instance.seed = seeds.next();
  }

  // Set-up: the network, then every instance's synthetic spec and its
  // CatalogSolver constructor.
  std::vector<double> setup_s;
  std::vector<double> spec_s;
  std::vector<double> network_s;
  const double setup_begin = rec.now();
  while (more_setup(setup_s.size(), rec.now() - setup_begin)) {
    const double t0 = rec.now();
    const std::size_t span = rec.open("setup", root);
    std::optional<fap::net::CostMatrix> network;
    rec.time("net.apsp", Threads::kOne,
             [&] { network.emplace(catalog_network(synth.nodes)); }, span);
    network_s.push_back(rec.last_call().wall_s);
    for (CatalogInstance& instance : instances) {
      instance.solver.reset();  // it refers to the spec replaced below
      rec.time("catalog.spec", Threads::kOne,
               [&] {
                 instance.spec = std::make_unique<fap::catalog::CatalogSpec>(
                     fap::catalog::make_synthetic_catalog(synth, instance.seed,
                                                          *network));
               },
               span);
      spec_s.push_back(rec.last_call().wall_s);
      options.base_seed = instance.seed;
      rec.time("catalog.ctor", Threads::kOne,
               [&] {
                 instance.solver =
                     std::make_unique<fap::catalog::CatalogSolver>(
                         *instance.spec, options);
               },
               span);
    }
    rec.close(span);
    setup_s.push_back(rec.now() - t0);
  }

  // Solves instance i, checks it, and returns its span. When traced, the
  // solve's batch records are appended to `records`.
  const auto solve_one = [&](std::size_t i, const char* name,
                             std::vector<std::vector<BatchRecordPipe::Record>>*
                                 records) {
    CatalogInstance& instance = instances[i];
    const bool traced = records != nullptr;
    std::optional<BatchRecordPipe> pipe;
    std::optional<fap::catalog::CatalogSolver> traced_solver;
    if (traced) {
      pipe.emplace(args.work_dir + "/batch_records.fifo", rec);
      fap::catalog::CatalogOptions traced_options =
          instance.solver->options();
      traced_options.metrics = pipe->sink();
      traced_options.run_id = rec.run_id();
      traced_solver.emplace(*instance.spec, traced_options);
    }
    const fap::catalog::CatalogSolver& solver =
        traced ? *traced_solver : *instance.solver;
    const std::size_t span = rec.time(
        name, Threads::kMany, [&] { instance.result = solver.solve(); },
        root);
    if (traced) {
      records->push_back(pipe->finish());
    }
    const std::vector<std::string> violations =
        perfbench::check_catalog(*instance.spec, instance.result);
    out.check(violations);
    out.failed += violations.empty() ? 0 : instance.spec->object_count();
    out.check_digest(i, instance.seed, perfbench::digest(instance.result));
    out.attempted += instance.spec->object_count();
    return span;
  };
  // One pass solves every instance; returns the pass's wall time.
  const auto solve_pass = [&](const char* name,
                              std::vector<std::vector<BatchRecordPipe::Record>>*
                                  records,
                              std::vector<std::size_t>* spans) {
    double pass_s = 0.0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const std::size_t span = solve_one(i, name, records);
      pass_s += rec.last_call().wall_s;
      if (spans != nullptr) {
        spans->push_back(span);
      }
    }
    return pass_s;
  };

  if (!args.trace) {
    std::vector<double> walls;
    std::vector<double> rss;
    const double deadline = rec.now() + args.seconds;
    while (walls.empty() || rec.now() < deadline) {
      perfbench::reset_peak_rss();
      walls.push_back(solve_pass("catalog.solve", nullptr, nullptr));
      rss.push_back(perfbench::peak_rss_mb());
    }
    if (walls.size() == 1) {
      solve_one(0, "catalog.solve[repeat]", nullptr);  // checks the digest
    }
    out.metrics["peak_rss_mb"] = perfbench::median(rss);
    // Model delay of an access under the final allocation: object o's
    // share x at node i is a queue fed λ_o·x, so each (object, node) pair
    // contributes sojourn(λ_o·x, μ_i) with weight λ_o·x.
    std::vector<std::pair<double, double>> delays;
    double rate_total = 0.0;
    double traffic_total = 0.0;
    double objects = 0.0;
    for (const CatalogInstance& instance : instances) {
      const fap::catalog::CatalogSpec& spec = *instance.spec;
      const fap::catalog::CatalogResult& result = instance.result;
      objects += static_cast<double>(spec.object_count());
      traffic_total += result.external_traffic;
      for (std::size_t o = 0; o < spec.object_count(); ++o) {
        rate_total += spec.rate[o];
        for (std::uint32_t p = result.offsets[o]; p < result.offsets[o + 1];
             ++p) {
          const fap::catalog::Placement& placement = result.placements[p];
          const double a = spec.rate[o] * placement.fraction;
          delays.emplace_back(spec.delay.sojourn(a, spec.mu[placement.node]),
                              a);
        }
      }
    }
    out.metrics["setup_s"] = perfbench::median(setup_s);
    out.metrics["items_per_s"] = objects / perfbench::median(walls);
    out.metrics["delay_p50"] = perfbench::weighted_percentile(delays, 0.5);
    out.metrics["comm_cost_mean"] = traffic_total / rate_total;
    out.metrics["external_traffic"] =
        traffic_total / static_cast<double>(instances.size());
    return out;
  }

  // Traced run, as for serving: a warm-up pass, the pass traced through a
  // MetricsSink whose per-batch records become core.batch child spans of
  // each catalog.solve, and the same pass untraced.
  solve_pass("catalog.solve[warmup]", nullptr, nullptr);
  std::vector<std::vector<BatchRecordPipe::Record>> records;
  std::vector<std::size_t> solve_spans;
  const double solve_s =
      solve_pass("catalog.solve", &records, &solve_spans);
  const double untraced_s =
      solve_pass("catalog.solve[untraced]", nullptr, nullptr);

  std::vector<double> batch_ms;
  double busy_s = 0.0;
  double rounds_s = 0.0;
  std::size_t rounds = 0;
  std::size_t converged = 0;
  std::size_t oscillations = 0;
  std::size_t repair_moves = 0;
  std::size_t unconverged = 0;
  std::uint64_t inner_iterations = 0;
  double pre_repair_residual = 0.0;
  double self_s = 0.0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const fap::catalog::CatalogResult& result = instances[i].result;
    const std::vector<BatchRecordPipe::Record>& solve_records = records[i];
    std::vector<perfbench::Interval> batches;
    for (const BatchRecordPipe::Record& record : solve_records) {
      batch_ms.push_back(record.wall_ms);
      busy_s += record.wall_ms / 1e3;
      batches.push_back({record.end_s - record.wall_ms / 1e3, record.end_s});
      rec.add_span("core.batch", solve_spans[i], batches.back().start,
                   batches.back().end);
    }
    const perfbench::Span& solve = rec.spans()[solve_spans[i]];
    self_s += perfbench::self_time({solve.start, solve.end}, batches);
    // batch_sweep joins every round before the next starts, so records
    // [r·B, (r+1)·B) are round r's.
    const std::size_t per_round =
        (instances[i].spec->object_count() + options.batch_width - 1) /
        options.batch_width;
    if (solve_records.size() != per_round * result.rounds) {
      out.violations.push_back("batch records != batches per round x rounds");
      continue;
    }
    for (std::size_t r = 0; r < result.rounds; ++r) {
      double first = solve_records[r * per_round].end_s;
      double last = first;
      for (std::size_t b = r * per_round; b < (r + 1) * per_round; ++b) {
        const BatchRecordPipe::Record& record = solve_records[b];
        first = std::min(first, record.end_s - record.wall_ms / 1e3);
        last = std::max(last, record.end_s);
      }
      rounds_s += last - first;
    }
    rounds += result.rounds;
    converged += result.price_converged ? 1 : 0;
    oscillations += result.oscillations;
    repair_moves += result.repair_moves;
    unconverged += result.unconverged_objects;
    inner_iterations += result.inner_iterations;
    pre_repair_residual =
        std::max(pre_repair_residual, result.pre_repair_residual);
  }

  const double solves = static_cast<double>(instances.size());
  const double workers = static_cast<double>(kCatalogWorkers);
  const double tail_q =
      perfbench::supported_quantile(batch_ms.size(), {0.5, 0.9, 0.99});
  out.metrics["core.batch.busy_s"] = busy_s;
  out.metrics["core.batch.count"] = static_cast<double>(batch_ms.size());
  out.metrics["core.batch.ms_p50"] = perfbench::percentile(batch_ms, 0.5);
  out.metrics["core.batch.ms_p99"] = perfbench::percentile(batch_ms, tail_q);
  out.metrics["core.batch.tail_q"] = tail_q;
  out.metrics["core.batch.ms_max"] = perfbench::percentile(batch_ms, 1.0);
  out.metrics["core.inner_iterations"] = static_cast<double>(inner_iterations);
  out.metrics["core.unconverged_objects"] = static_cast<double>(unconverged);
  out.metrics["catalog.instances"] = solves;
  out.metrics["net.apsp_s"] = perfbench::median(network_s);
  out.metrics["catalog.spec_s"] = perfbench::median(spec_s);
  out.metrics["catalog.solve_s"] = solve_s;
  out.metrics["catalog.rounds"] = static_cast<double>(rounds) / solves;
  out.metrics["catalog.oscillations"] =
      static_cast<double>(oscillations) / solves;
  out.metrics["catalog.price_converged"] =
      static_cast<double>(converged) / solves;
  out.metrics["catalog.repair_moves"] =
      static_cast<double>(repair_moves) / solves;
  out.metrics["catalog.pre_repair_residual"] = pre_repair_residual;
  out.metrics["catalog.round_s"] =
      rounds > 0 ? rounds_s / static_cast<double>(rounds) : 0.0;
  out.metrics["catalog.serial_s"] = solve_s - busy_s / workers;
  out.metrics["catalog.self_s"] = self_s;
  out.metrics["runtime.workers"] = workers;
  out.metrics["runtime.parallel_efficiency"] = busy_s / (workers * solve_s);
  out.metrics["trace.overhead_s"] = solve_s - untraced_s;
  return out;
}

// ---------------------------------------------------------------------------
// Provenance and output

std::vector<double> load_average() {
  double load[3] = {0.0, 0.0, 0.0};
  if (::getloadavg(load, 3) != 3) {
    return {};
  }
  return {load[0], load[1], load[2]};
}

std::string provenance_json(const Args& args, const Recorder& rec,
                            const Outcome& out,
                            const std::vector<double>& load_before,
                            const std::vector<double>& load_after,
                            const std::string& argv_line) {
  fap::util::JsonWriter json;
  json.begin_object();
  json.key("source").value(args.source);
  json.key("compiler").value(__VERSION__);
  json.key("build_type").value(PERFBENCH_BUILD_TYPE);
  json.key("cxx_flags").value(PERFBENCH_CXX_FLAGS);
  json.key("simd").value(
      fap::core::simd_level_name(fap::core::active_simd_level()));
  json.key("nproc").value(
      static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json.key("load_avg_before").value(load_before);
  json.key("load_avg_after").value(load_after);
  json.key("workload").value(args.workload);
  json.key("seed").value(static_cast<std::size_t>(args.seed));
  json.key("seconds").value(args.seconds);
  json.key("trace").value(args.trace);
  json.key("part").value(args.part);
  json.key("args").value(argv_line);
  // Wall and CPU time of every timed call, summarized per call name.
  std::map<std::string, std::vector<perfbench::CallTiming>> by_name;
  std::size_t inflated = 0;
  for (const perfbench::CallTiming& call : rec.calls()) {
    by_name[call.name].push_back(call);
    inflated += perfbench::inflated(call) ? 1 : 0;
  }
  json.key("inflated_calls").value(inflated);
  json.key("digests").begin_object();
  for (const auto& [seed, digest] : out.digests) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    json.key(std::to_string(seed)).value(hex);
  }
  json.end_object();
  json.key("calls").begin_object();
  for (const auto& [name, calls] : by_name) {
    std::vector<double> wall;
    std::vector<double> cpu;
    std::size_t name_inflated = 0;
    for (const perfbench::CallTiming& call : calls) {
      wall.push_back(call.wall_s);
      cpu.push_back(call.cpu_s);
      name_inflated += perfbench::inflated(call) ? 1 : 0;
    }
    json.key(name).begin_object();
    json.key("count").value(calls.size());
    json.key("threads").value(calls.front().threads == Threads::kOne ? "one"
                                                                     : "many");
    json.key("wall_median_s").value(perfbench::median(wall));
    json.key("cpu_median_s").value(perfbench::median(cpu));
    json.key("inflated").value(name_inflated);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

std::string result_json(const Outcome& out, bool trace) {
  fap::util::JsonWriter json;
  json.begin_object();
  json.key("correct").value(out.violations.empty());
  json.key("attempted").value(out.attempted);
  json.key("failed").value(out.failed);
  json.key("metrics").begin_object();
  const auto emit = [&](const MetricDef& def) {
    const auto it = out.metrics.find(def.name);
    json.key(def.name).begin_object();
    json.key("value").value(it != out.metrics.end() ? it->second : 0.0);
    json.key("unit").value(def.unit);
    json.end_object();
  };
  if (trace) {
    for (const MetricDef& def : kPerLayer) {
      emit(def);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      emit(def);
    }
  }
  json.end_object();
  json.end_object();
  return json.str();
}

[[noreturn]] void usage(const char* argv0, const std::string& problem) {
  std::cerr << argv0 << ": " << problem << "\n"
            << "usage: " << argv0
            << " --workload serve_online|serve_lru|catalog_contended|"
               "catalog_wide --seed N --seconds S --trace 0|1 "
               "[--part P] [--work-dir DIR] [--source ID]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage(argv[0], "missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        usage(argv[0], "--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source") {
      args.source = value;
    } else if (flag == "--part") {
      args.part = std::strtoull(value.c_str(), &end, 10);

    } else {
      usage(argv[0], "unknown flag " + flag);
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      usage(argv[0], "bad number for " + flag + ": " + value);
    }
  }
  if (args.workload != "serve_online" && args.workload != "serve_lru" &&
      args.workload != "catalog_contended" && args.workload != "catalog_wide") {
    usage(argv[0], "unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) {
    usage(argv[0], "--seconds must be in (0, 120]");
  }
  if (args.part > 1000) {
    usage(argv[0], "--part must be at most 1000");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef __OPTIMIZE__
  std::cerr << argv[0]
            << ": refusing to measure a non-optimised build (configure with "
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo or Release)\n";
  return 3;
#endif
  const Args args = parse_args(argc, argv);
  std::string argv_line;
  for (int i = 0; i < argc; ++i) {
    argv_line += (i > 0 ? " " : "") + std::string(argv[i]);
  }
  const std::vector<double> load_before = load_average();
  Recorder rec(args.workload + "/seed=" + std::to_string(args.seed) +
                   "/trace=" + (args.trace ? "1" : "0"),
               args.trace);
  const std::size_t root = rec.open("run");
  Outcome out;
  try {
    if (args.workload == "serve_online" || args.workload == "serve_lru") {
      out = run_serve(args.workload == "serve_online", args, rec, root);
    } else {
      out = run_catalog(args.workload == "catalog_wide", args, rec, root);
    }
  } catch (const std::exception& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 1;
  }
  rec.close(root);

  for (const std::string& violation : out.violations) {
    std::cerr << "check failed: " << violation << "\n";
  }
  for (const perfbench::CallTiming& call : rec.calls()) {
    if (perfbench::inflated(call)) {
      std::cerr << "warning: " << call.name << " wall " << call.wall_s
                << " s > cpu " << call.cpu_s
                << " s: the machine, not the code, set this time\n";
    }
  }
  if (args.trace) {
    const std::string path = args.work_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    std::ofstream file(path, std::ios::trunc);
    file << rec.spans_json() << '\n';
    if (!file) {
      std::cerr << argv[0] << ": cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "spans: " << path << "\n";
  }
  std::cout << "provenance "
            << provenance_json(args, rec, out, load_before, load_average(),
                               argv_line)
            << "\n";
  std::cout << result_json(out, args.trace) << std::endl;
  return out.violations.empty() ? 0 : 1;
}
