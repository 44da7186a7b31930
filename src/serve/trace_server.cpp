#include "serve/trace_server.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "fs/popularity.hpp"
#include "queueing/delay.hpp"
#include "runtime/metrics.hpp"
#include "sim/estimation.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace fap::serve {

namespace {

// Placement models are solved with the tangent-linearized delay so the
// cost and its gradient stay finite for ANY allocation — in particular
// for warm starts taken from a drifted system whose deployed shares
// overload some node (exactly the state that triggers a re-solve).
constexpr double kRhoMax = 0.95;

// Decorrelates the engine's service-time stream from the trace
// generator's draw stream (both are seeded from workload.seed).
constexpr std::uint64_t kEngineSeedSalt = 0x5bf03635dcd66d67ULL;

std::vector<double> normalized_origin_mix(const TraceWorkload& workload,
                                          std::size_t node_count) {
  if (workload.origin_mix.empty()) {
    return std::vector<double>(node_count,
                               1.0 / static_cast<double>(node_count));
  }
  FAP_EXPECTS(workload.origin_mix.size() == node_count,
              "origin mix must have one weight per node");
  return fs::normalized_popularity(workload.origin_mix);
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceGenerator

TraceGenerator::TraceGenerator(TraceWorkload workload, std::size_t node_count)
    : workload_(std::move(workload)),
      nodes_(node_count),
      rng_(workload_.seed),
      base_(fs::zipf_popularity(workload_.records, workload_.zipf_s)),
      popularity_(workload_.records, 0.0),
      records_(base_),
      origins_(normalized_origin_mix(workload_, node_count)) {
  FAP_EXPECTS(nodes_ >= 1, "need at least one node");
  FAP_EXPECTS(std::isfinite(workload_.total_rate) &&
                  workload_.total_rate > 0.0,
              "total rate must be finite and positive");
  FAP_EXPECTS(std::isfinite(workload_.drift_rate) &&
                  workload_.drift_rate >= 0.0,
              "drift rate must be finite and non-negative");
  FAP_EXPECTS(workload_.update_fraction >= 0.0 &&
                  workload_.update_fraction <= 1.0,
              "update fraction must be a probability");
  FAP_EXPECTS(workload_.epoch_requests >= 1,
              "epochs must hold at least one request");
  FAP_EXPECTS(workload_.flash_crowds.size() <= 64,
              "at most 64 flash crowds (activity bitmask)");
  for (const FlashCrowd& crowd : workload_.flash_crowds) {
    FAP_EXPECTS(crowd.start <= crowd.end, "crowd must start before it ends");
    FAP_EXPECTS(crowd.first_record <= crowd.last_record &&
                    crowd.last_record <= workload_.records,
                "crowd record range out of bounds");
    FAP_EXPECTS(crowd.boost > 0.0, "crowd boost must be positive");
  }
  popularity_current_ = false;
  refresh_popularity();  // the t = 0 distribution
}

void TraceGenerator::refresh_popularity() {
  const std::size_t record_count = workload_.records;
  const std::size_t shift =
      workload_.drift_rate > 0.0
          ? static_cast<std::size_t>(workload_.drift_rate * now_) %
                record_count
          : 0;
  std::uint64_t mask = 0;
  for (std::size_t c = 0; c < workload_.flash_crowds.size(); ++c) {
    const FlashCrowd& crowd = workload_.flash_crowds[c];
    if (now_ >= crowd.start && now_ < crowd.end) {
      mask |= std::uint64_t{1} << c;
    }
  }
  if (popularity_current_ && shift == shift_ && mask == crowd_mask_) {
    return;
  }
  shift_ = shift;
  crowd_mask_ = mask;
  for (std::size_t r = 0; r < record_count; ++r) {
    popularity_[r] = base_[(r + shift) % record_count];
  }
  if (mask != 0) {
    for (std::size_t c = 0; c < workload_.flash_crowds.size(); ++c) {
      if ((mask & (std::uint64_t{1} << c)) == 0) {
        continue;
      }
      const FlashCrowd& crowd = workload_.flash_crowds[c];
      for (std::size_t r = crowd.first_record; r < crowd.last_record; ++r) {
        popularity_[r] *= crowd.boost;
      }
    }
    popularity_ = fs::normalized_popularity(std::move(popularity_));
  }
  records_.rebuild(popularity_);
  popularity_current_ = true;
}

const std::vector<TraceRequest>& TraceGenerator::next_epoch(
    std::size_t max_requests) {
  const std::size_t count =
      std::min(workload_.epoch_requests, max_requests);
  buffer_.clear();
  buffer_.reserve(count);
  refresh_popularity();
  for (std::size_t i = 0; i < count; ++i) {
    now_ += rng_.exponential(workload_.total_rate);
    TraceRequest request;
    request.time = now_;
    request.origin =
        static_cast<std::uint32_t>(origins_.sample(rng_.uniform()));
    request.record =
        static_cast<std::uint32_t>(records_.sample(rng_.uniform()));
    request.update = rng_.uniform() < workload_.update_fraction;
    buffer_.push_back(request);
  }
  return buffer_;
}

// ---------------------------------------------------------------------------
// TraceServer internals

/// The per-node LRU caches of kLru in flat arrays, sized once per serve()
/// call: no request allocates. Node i owns `capacity` slots holding
/// {record, prev, next}; its cached records form an intrusive recency list
/// (head = most recently used) and its unused slots a free list. A holder
/// mask of ⌈n/64⌉ words per record says which nodes cache it, so a read
/// miss at a non-holder is one bit test and an update visits only the
/// holders. A per-node open-addressing index of slot numbers
/// (power-of-two size ≥ 2·capacity, linear probing, backward-shift
/// deletion) finds a cached record's slot. Memory is
/// O(n·capacity + records·⌈n/64⌉).
struct TraceServer::LruCaches {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  struct Slot {
    std::uint32_t record;
    std::uint32_t prev;
    std::uint32_t next;  ///< next in the recency list, or in the free list
  };
  struct List {
    std::uint32_t head = kNone;  ///< most recently used
    std::uint32_t tail = kNone;  ///< least recently used
    std::uint32_t free = 0;
    std::uint32_t size = 0;
  };

  std::size_t capacity;
  std::size_t words;  ///< holder-mask words per record
  std::size_t index_size;
  int index_shift;
  std::vector<Slot> slots;  ///< node i: [i·capacity, (i+1)·capacity)
  /// Slot numbers, kNone = empty; node i: [i·index_size, (i+1)·index_size).
  std::vector<std::uint32_t> index;
  std::vector<List> lists;
  std::vector<std::uint64_t> holders;  ///< record r: [r·words, (r+1)·words)

  LruCaches(std::size_t node_count, std::size_t records, std::size_t cap)
      : capacity(cap),
        words((node_count + 63) / 64),
        index_size(std::bit_ceil(2 * cap)),
        index_shift(64 - std::countr_zero(index_size)),
        slots(node_count * cap),
        index(node_count * index_size, kNone),
        lists(node_count),
        holders(records * words, 0) {
    for (std::size_t i = 0; i < node_count; ++i) {
      Slot* const base = &slots[i * capacity];
      for (std::size_t s = 0; s < capacity; ++s) {
        base[s].next = static_cast<std::uint32_t>(s + 1);
      }
      base[capacity - 1].next = kNone;
    }
  }

  /// A read of `record` at `node`. A hit moves the record to the front
  /// and returns true. A miss inserts it at the front, evicting the least
  /// recently used record when the cache is at capacity, and returns
  /// false.
  bool read(std::size_t node, std::uint32_t record) {
    std::uint64_t& word = holders[record * words + node / 64];
    const std::uint64_t bit = std::uint64_t{1} << (node % 64);
    Slot* const base = &slots[node * capacity];
    std::uint32_t* const table = &index[node * index_size];
    List& list = lists[node];
    if ((word & bit) != 0) {
      const std::uint32_t s = table[find(table, base, record)];
      unlink(base, list, s);
      push_front(base, list, s);
      return true;
    }
    std::uint32_t s = list.free;
    if (list.size < capacity) {
      list.free = base[s].next;
      ++list.size;
    } else {
      s = list.tail;  // evict the least recently used record
      holders[base[s].record * words + node / 64] &= ~bit;
      erase(table, base, find(table, base, base[s].record));
      unlink(base, list, s);
    }
    base[s].record = record;
    push_front(base, list, s);
    std::size_t cell = home(record);
    while (table[cell] != kNone) {
      cell = (cell + 1) & (index_size - 1);
    }
    table[cell] = s;
    word |= bit;
    return false;
  }

  /// Drops every cached copy of `record`; returns how many there were.
  std::size_t invalidate(std::uint32_t record) {
    std::size_t dropped = 0;
    std::uint64_t* const mask = &holders[record * words];
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        const std::size_t node =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        Slot* const base = &slots[node * capacity];
        std::uint32_t* const table = &index[node * index_size];
        List& list = lists[node];
        const std::size_t cell = find(table, base, record);
        const std::uint32_t s = table[cell];
        erase(table, base, cell);
        unlink(base, list, s);
        base[s].next = list.free;
        list.free = s;
        --list.size;
        ++dropped;
      }
      mask[w] = 0;
    }
    return dropped;
  }

  /// Fibonacci hashing: the multiply spreads consecutive record ids
  /// (a Zipf head is a run of them) over the whole index.
  std::size_t home(std::uint32_t record) const {
    return static_cast<std::size_t>(
        (std::uint64_t{record} * 0x9E3779B97F4A7C15ULL) >> index_shift);
  }

  /// Cell of a record that the holder mask says is cached.
  std::size_t find(const std::uint32_t* table, const Slot* base,
                   std::uint32_t record) const {
    std::size_t cell = home(record);
    for (;; cell = (cell + 1) & (index_size - 1)) {
      FAP_ENSURES(table[cell] != kNone,
                  "holder mask and slot index must agree");
      if (base[table[cell]].record == record) {
        return cell;
      }
    }
  }

  /// Empties `cell` and shifts later entries of its probe run back, so
  /// every entry stays reachable from its home cell.
  void erase(std::uint32_t* table, const Slot* base, std::size_t cell) const {
    const std::size_t mask = index_size - 1;
    for (std::size_t next = (cell + 1) & mask; table[next] != kNone;
         next = (next + 1) & mask) {
      if (((next - home(base[table[next]].record)) & mask) >=
          ((next - cell) & mask)) {
        table[cell] = table[next];
        cell = next;
      }
    }
    table[cell] = kNone;
  }

  static void unlink(Slot* base, List& list, std::uint32_t s) {
    const Slot& slot = base[s];
    (slot.prev != kNone ? base[slot.prev].next : list.head) = slot.next;
    (slot.next != kNone ? base[slot.next].prev : list.tail) = slot.prev;
  }

  static void push_front(Slot* base, List& list, std::uint32_t s) {
    base[s].prev = kNone;
    base[s].next = list.head;
    (list.head != kNone ? base[list.head].prev : list.tail) = s;
    list.head = s;
  }
};

/// An in-flight layout change: the plan, its wave schedule, and the wave
/// timeline implied by the migration bandwidth. Waves run sequentially;
/// `completed` is the count of waves whose end time has passed.
struct TraceServer::PendingMigration {
  std::vector<fs::Transfer> plan;  ///< sorted by range.begin
  fs::MigrationSchedule schedule;
  std::vector<double> wave_begin;
  std::vector<double> wave_end;
  fs::FragmentMap target;
  std::size_t completed = 0;
  std::size_t locked_wave = static_cast<std::size_t>(-1);

  /// Index of the transfer containing `record`, or npos.
  std::size_t find(std::size_t record) const {
    const auto it = std::upper_bound(
        plan.begin(), plan.end(), record,
        [](std::size_t r, const fs::Transfer& transfer) {
          return r < transfer.range.begin;
        });
    if (it == plan.begin()) {
      return static_cast<std::size_t>(-1);
    }
    const std::size_t t =
        static_cast<std::size_t>(it - plan.begin()) - 1;
    return record < plan[t].range.end ? t : static_cast<std::size_t>(-1);
  }
};

TraceServer::TraceServer(const net::Topology& topology,
                         TraceWorkload workload, TraceServeOptions options)
    : topology_(topology),
      workload_(std::move(workload)),
      options_(std::move(options)),
      n_(topology.node_count()),
      comm_(std::make_shared<net::DenseCostProvider>(
          std::make_shared<const net::CostMatrix>(
              net::all_pairs_shortest_paths(topology)))) {
  FAP_EXPECTS(options_.mu > 0.0, "service rate must be positive");
  FAP_EXPECTS(options_.k >= 0.0, "delay weight must be non-negative");
  FAP_EXPECTS(std::isfinite(options_.hop_latency) &&
                  options_.hop_latency >= 0.0,
              "hop latency must be finite and non-negative");
  FAP_EXPECTS(options_.estimation_epochs >= 1,
              "estimation windows span at least one epoch");
  FAP_EXPECTS(options_.hysteresis >= 0.0,
              "hysteresis must be non-negative");
  FAP_EXPECTS(options_.migration_bandwidth > 0.0,
              "migration bandwidth must be positive");
  FAP_EXPECTS(options_.max_transfers_per_node >= 1,
              "per-node transfer limit must be at least one");
  FAP_EXPECTS(options_.cache_fraction > 0.0 &&
                  options_.cache_fraction <= 1.0,
              "cache fraction must be in (0, 1]");
  const std::vector<double> mix = normalized_origin_mix(workload_, n_);
  lambda_.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    lambda_[i] = workload_.total_rate * mix[i];
  }
}

TraceServer::~TraceServer() = default;

TraceServeResult TraceServer::serve(std::size_t total_requests) {
  FAP_EXPECTS(total_requests >= 1, "nothing to serve");
  TraceServeResult result;

  TraceGenerator generator(workload_, n_);

  // Initial placement: solve the paper's problem for the t = 0 popularity
  // and workload mix, then deploy it as a contiguous layout whose
  // per-node POPULARITY mass matches the solution shares.
  {
    core::SingleFileProblem problem{comm_,
                                    lambda_,
                                    std::vector<double>(n_, options_.mu),
                                    options_.k,
                                    queueing::DelayModel::mm1(kRhoMax),
                                    /*comm_weight_rates=*/{},
                                    /*storage_capacity=*/{},
                                    /*access_cost_override=*/{}};
    const core::SingleFileModel model(problem);
    const core::ResourceDirectedAllocator allocator(model,
                                                    options_.allocator);
    const core::AllocationResult solution =
        allocator.run(std::vector<double>(
            n_, 1.0 / static_cast<double>(n_)));
    initial_ = std::make_unique<fs::FragmentMap>(
        fs::popularity_split(generator.popularity(), solution.x));
  }
  layout_ = std::make_unique<fs::FragmentMap>(*initial_);
  // The shares the deployed layout actually carries under the popularity
  // it was solved for (record-granular, so quantization is included) —
  // the baseline the per-window drift test compares against.
  solved_shares_ = fs::node_access_shares(*layout_, generator.popularity());
  window_counts_.assign(workload_.records, 0);
  // The first window is never cooldown-blocked.
  windows_since_realloc_ = options_.cooldown_windows;
  pending_.reset();
  locks_ = fs::LockManager();
  lru_.reset();
  if (options_.mode == ServeMode::kLru) {
    const std::size_t capacity = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.cache_fraction *
                                    static_cast<double>(workload_.records)));
    FAP_EXPECTS(capacity < LruCaches::kNone,
                "cache slots must be numbered below the empty sentinel");
    lru_ = std::make_unique<LruCaches>(n_, workload_.records, capacity);
  }

  // No node generates: route_request picks every target and its comm
  // cost, so the engine needs no routing or comm-cost matrix.
  sim::DesConfig config;
  config.open_loop = true;
  config.lambda.assign(n_, 0.0);
  config.mu.assign(n_, options_.mu);
  config.k = options_.k;
  config.service = options_.service;
  config.hop_latency = options_.hop_latency;
  if (options_.hop_latency > 0.0) {
    config.route_hops = net::route_hop_counts(topology_);
  }
  config.record_log = options_.mode == ServeMode::kOnline;
  // Completion-time window attribution: the union of the estimation
  // windows is an exact partition of all completions, so the cumulative
  // statistics cover every injected request even though kOnline resets
  // the window (to truncate the estimation log) while jobs are in flight.
  config.window_by_completion = true;
  config.seed = workload_.seed ^ kEngineSeedSalt;
  engine_ = std::make_unique<sim::DesSystem>(std::move(config));

  std::size_t injected = 0;
  std::size_t epochs_in_window = 0;
  while (injected < total_requests) {
    const std::vector<TraceRequest>& batch =
        generator.next_epoch(total_requests - injected);
    for (const TraceRequest& request : batch) {
      std::size_t target = 0;
      double comm = 0.0;
      double extra_latency = 0.0;
      route_request(request, target, comm, extra_latency, result);
      engine_->inject_access(request.time, request.origin, target, comm,
                             extra_latency);
      if (target == request.origin) {
        ++result.served_at_origin;
      }
      if (options_.mode == ServeMode::kOnline) {
        ++window_counts_[request.record];
      }
    }
    injected += batch.size();
    engine_->advance_until(generator.now());
    if (options_.mode == ServeMode::kOnline) {
      update_migration_state(generator.now());
    }
    if (++epochs_in_window >= options_.estimation_epochs &&
        injected < total_requests) {
      // Only kOnline consumes windowed state — the access log feeds the
      // estimator, so the window must be truncated per period to bound
      // memory. The passive modes keep ONE window for the whole run.
      // Either way, completion-time attribution (window_by_completion)
      // makes the harvested union exact: no request is ever dropped from
      // the statistics by a reset.
      if (options_.mode == ServeMode::kOnline) {
        const sim::WindowStats& window = engine_->window();
        maybe_reallocate(window, generator.now(), result);
        harvest_window(window, result);
        engine_->reset_window();
        std::fill(window_counts_.begin(), window_counts_.end(), 0);
      }
      epochs_in_window = 0;
    }
  }
  result.requests_injected = injected;

  // Drain: every injected request is served to completion and the final
  // window is harvested afterwards, so nothing is dropped at the end of
  // the run.
  while (engine_->advance_completions(65536) > 0) {
  }
  if (options_.mode == ServeMode::kOnline) {
    update_migration_state(engine_->now());
  }
  harvest_window(engine_->window(), result);

  // Counters for the calling sweep task's metrics record (no-op outside
  // a metered sweep), named like the benchmark's per-layer metrics.
  const std::pair<const char*, std::size_t> counters[] = {
      {"sim.des.completions", result.completions},
      {"serve.cache.hits", result.cache_hits},
      {"serve.cache.misses", result.cache_misses},
      {"serve.cache.invalidations", result.cache_invalidations},
      {"serve.online.reallocations", result.reallocations},
      {"fs.migration.records", result.migrated_records},
      {"fs.migration.stalled_requests", result.stalled_requests},
  };
  for (const auto& [name, value] : counters) {
    runtime::add_task_metric(name, static_cast<double>(value));
  }
  return result;
}

void TraceServer::route_request(const TraceRequest& request,
                                std::size_t& target, double& comm,
                                double& extra_latency,
                                TraceServeResult& result) {
  const std::size_t record = request.record;
  const std::size_t origin = request.origin;
  target = layout_->node_of(record);
  extra_latency = 0.0;
  switch (options_.mode) {
    case ServeMode::kStatic:
      break;
    case ServeMode::kOnline:
      if (pending_) {
        const PendingMigration& pending = *pending_;
        const std::size_t t = pending.find(record);
        if (t != static_cast<std::size_t>(-1)) {
          const std::size_t wave = pending.schedule.wave_of[t];
          if (request.time >= pending.wave_end[wave]) {
            // Wave landed: the record serves from its new home (the
            // deployed FragmentMap flips only when the whole plan does).
            target = pending.plan[t].target;
          } else if (request.time >= pending.wave_begin[wave]) {
            // In the in-flight wave: the record is locked for transfer,
            // so the request stalls until the wave lands and is then
            // served at the new home.
            target = pending.plan[t].target;
            extra_latency = pending.wave_end[wave] - request.time;
            ++result.stalled_requests;
          }
          // Before its wave starts the record still serves from the old
          // home — which `target` already is.
        }
      }
      break;
    case ServeMode::kLru: {
      const std::size_t home = target;  // layout_ never moves in LRU mode
      if (request.update) {
        // Updates are applied at the home node and invalidate every
        // cached copy — what keeps a write-heavy hot set uncacheable.
        result.cache_invalidations += lru_->invalidate(request.record);
      } else if (home != origin) {
        if (lru_->read(origin, request.record)) {
          ++result.cache_hits;
          target = origin;
        } else {
          ++result.cache_misses;
        }
      }
      break;
    }
  }
  comm = comm_->cost(origin, target);
}

void TraceServer::maybe_reallocate(const sim::WindowStats& window, double now,
                                   TraceServeResult& result) {
  ++windows_since_realloc_;
  if (pending_) {
    // Never re-plan over an in-flight migration.
    ++result.suppressed_reallocations;
    return;
  }
  std::uint64_t total = 0;
  for (const std::uint64_t count : window_counts_) {
    total += count;
  }
  if (total == 0) {
    return;
  }
  std::vector<double> observed(window_counts_.size(), 0.0);
  for (std::size_t r = 0; r < window_counts_.size(); ++r) {
    observed[r] = static_cast<double>(window_counts_[r]) /
                  static_cast<double>(total);
  }
  // Drift statistic: TV distance between the node shares the deployed
  // layout served this window and the shares it was solved to carry.
  // Aggregating to nodes before comparing is deliberate — popularity
  // moving WITHIN a node's range needs no migration, and the n-value
  // statistic has a ~1/sqrt(window) noise floor independent of the
  // record count (per-record empirical TV is noise-dominated at
  // realistic record counts and window sizes).
  const std::vector<double> observed_shares =
      fs::node_access_shares(*layout_, observed);
  double tv = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    tv += std::abs(observed_shares[i] - solved_shares_[i]);
  }
  tv *= 0.5;
  if (tv < options_.hysteresis ||
      windows_since_realloc_ < options_.cooldown_windows) {
    ++result.suppressed_reallocations;
    return;
  }
  if (window.log.empty()) {
    ++result.failed_estimations;
    return;
  }
  try {
    const sim::EstimatedParameters estimates =
        sim::estimate_parameters(window.log, n_);
    core::SingleFileProblem problem = sim::problem_from_estimates(
        estimates, comm_, options_.k, options_.mu,
        queueing::DelayModel::mm1(kRhoMax));
    const core::SingleFileModel model(problem);
    const core::ResourceDirectedAllocator allocator(model,
                                                    options_.allocator);
    // Warm start from the shares the deployed layout serves under the
    // OBSERVED popularity — the allocator walks from the system's actual
    // operating point, not from scratch. Renormalized exactly so the
    // simplex feasibility check passes regardless of counting rounding.
    std::vector<double> warm = fs::node_access_shares(*layout_, observed);
    util::NeumaierSum warm_total;
    for (const double share : warm) {
      warm_total.add(share);
    }
    for (double& share : warm) {
      share /= warm_total.value();
    }
    const core::AllocationResult solution = allocator.run(std::move(warm));
    fs::FragmentMap next = fs::popularity_split(observed, solution.x);
    std::vector<fs::Transfer> plan = fs::plan_migration(*layout_, next);
    ++result.reallocations;
    solved_shares_ = fs::node_access_shares(next, observed);
    windows_since_realloc_ = 0;
    if (plan.empty()) {
      layout_ = std::make_unique<fs::FragmentMap>(std::move(next));
      return;
    }
    fs::MigrationSchedule schedule =
        fs::schedule_waves(plan, n_, options_.max_transfers_per_node);
    result.migrated_records += fs::migration_volume(plan);
    result.migration_waves += schedule.wave_count;
    std::vector<double> wave_begin(schedule.wave_count, 0.0);
    std::vector<double> wave_end(schedule.wave_count, 0.0);
    double t = now;
    for (std::size_t w = 0; w < schedule.wave_count; ++w) {
      wave_begin[w] = t;
      t += static_cast<double>(schedule.wave_volume[w]) /
           options_.migration_bandwidth;
      wave_end[w] = t;
    }
    pending_ = std::make_unique<PendingMigration>(PendingMigration{
        std::move(plan), std::move(schedule), std::move(wave_begin),
        std::move(wave_end), std::move(next)});
    update_migration_state(now);  // lock wave 0
  } catch (const std::exception&) {
    // Deterministic: the estimate (or the model built from it) was not
    // solvable this window; keep serving and try again next window.
    ++result.failed_estimations;
  }
}

void TraceServer::update_migration_state(double now) {
  if (!pending_) {
    return;
  }
  PendingMigration& pending = *pending_;
  while (pending.completed < pending.schedule.wave_count &&
         now >= pending.wave_end[pending.completed]) {
    if (pending.locked_wave == pending.completed) {
      locks_.release_all(pending.completed);
      pending.locked_wave = static_cast<std::size_t>(-1);
    }
    ++pending.completed;
  }
  if (pending.completed < pending.schedule.wave_count &&
      now >= pending.wave_begin[pending.completed] &&
      pending.locked_wave != pending.completed) {
    // Waves are strictly sequential, so at most one holds locks — every
    // acquisition must be granted immediately and the waits-for graph
    // must stay empty. Locks are keyed by each transfer's first record
    // (transfer ranges are disjoint, so keys are unique).
    const std::size_t wave = pending.completed;
    for (std::size_t t = 0; t < pending.plan.size(); ++t) {
      if (pending.schedule.wave_of[t] != wave) {
        continue;
      }
      const fs::LockOutcome outcome = locks_.acquire(
          wave, pending.plan[t].range.begin, fs::LockMode::kExclusive);
      FAP_ENSURES(outcome == fs::LockOutcome::kGranted,
                  "sequential migration waves never contend");
    }
    FAP_ENSURES(locks_.find_deadlock().empty(),
                "migration locking must stay deadlock-free");
    pending.locked_wave = wave;
  }
  if (pending.completed == pending.schedule.wave_count) {
    // The whole plan landed: flip the deployed layout. apply_migration
    // is the record-granular proof that the plan reproduces the target.
    layout_ =
        std::make_unique<fs::FragmentMap>(std::move(pending.target));
    pending_.reset();
  }
}

void TraceServer::harvest_window(const sim::WindowStats& window,
                                 TraceServeResult& result) {
  result.delay.merge(window.response_time);
  result.delay_hist.merge(window.response_hist);
  result.comm.merge(window.comm_cost);
  result.completions += window.completions;
  result.failed += window.failed_accesses;
  result.span = engine_->now();
}

}  // namespace fap::serve
