// The DES event engine. Hot-path layout (see DESIGN.md §4d):
//
//   * EventHeap — a flat 4-ary min-heap of 32-byte POD entries ordered by
//     (time, seq). seq is the same monotone schedule counter the previous
//     std::priority_queue<Event> engine used as its tie-breaker, and
//     (time, seq) is a strict total order, so the pop sequence — and with
//     it every statistic — is identical event for event.
//   * JobSlab — job state lives in dense indexed slots with an intrusive
//     LIFO free list. Events carry the slot index, so a departure is an
//     array access where the previous engine paid an unordered_map
//     find+erase (and a node allocation per job).
//   * Ring<T> — each server's FIFO is a growable power-of-two ring of
//     slot indices instead of a std::deque of fat records.
//   * Arrival stream — in-order injection (DesSystem::inject_access) is
//     O(1): an access whose arrival is not earlier than the last one
//     queued is appended to a time-ordered Ring<InjectedAccess> beside
//     the heap, and holds no job slot until it reaches its target. The
//     loop pops whichever of the stream's front and the heap's top comes
//     first in (time, seq). Out-of-order injection (a migration stall or
//     a longer transit) is one heap push: a slot plus a kArrive event.
//   * Epoch voiding is unchanged: a node failure bumps the server epoch,
//     frees the queued/active slots, and any in-flight departure event
//     carrying the stale epoch is discarded before it can touch the slab
//     (so slot reuse can never resurrect a lost job).
//   * Routing cells — a generate event finds its target and comm cost in
//     one 32-byte AliasCell of a flat n*n table, filled row by row through
//     one scratch AliasSampler. Only generate events read it, so a config
//     in which no node generates (open-loop serving) builds no table and
//     may leave DesConfig::routing and comm_cost empty.
//
// Steady state allocates nothing: the heap, slab, rings, routing cells and
// window buffers grow during warm-up and are reused thereafter — including
// across runs via restart(), which re-seeds the engine bit-equivalently
// to fresh construction without releasing storage.
//
// Equivalence to the previous engine is pinned by the golden-trace suite
// (tests/sim_des_engine_equiv_test.cpp) against DesReferenceSystem, the
// old engine kept verbatim in des_reference.cpp. The reference engine has
// no open-loop path; DesSystem.OpenLoopGoldenPin and the TraceServer
// golden pins fix that path bit for bit instead.
#include "sim/des_system.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <random>
#include <utility>

#include "sim/alias_sampler.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace fap::sim {

namespace {

enum class EventKind : std::uint32_t { kGenerate, kArrive, kDeparture };

inline constexpr std::uint32_t kNoSlot = 0xffffffffu;

/// One scheduled event. POD and 32 bytes so heap sifts move cache lines,
/// not constructors. kArrive and kDeparture events point at a JobSlab
/// slot; kGenerate carries only its node.
struct EventEntry {
  double time = 0.0;
  std::uint64_t seq = 0;  // tie-breaker for deterministic ordering
  EventKind kind = EventKind::kGenerate;
  std::uint32_t node = 0;
  std::uint32_t slot = kNoSlot;
  /// kDeparture: the server epoch at schedule time. A node failure bumps
  /// the server's epoch, voiding any in-flight departure event (the
  /// service it represented was lost with the node).
  std::uint32_t epoch = 0;
};

/// An injected access waiting in the arrival stream. It holds no job slot
/// yet; `seq` is taken at injection, so it orders against heap events
/// exactly as the kArrive event it replaces would have.
struct InjectedAccess {
  double time = 0.0;  // arrival at the target's queue
  std::uint64_t seq = 0;
  double generated_time = 0.0;
  double comm_cost = 0.0;
  std::uint32_t source = 0;
  std::uint32_t target = 0;
};

/// (time, seq) precedes — the exact ordering std::greater<Event> gave the
/// old priority queue, so pop order is preserved bit for bit. Defined for
/// heap entries and stream entries alike.
template <typename A, typename B>
inline bool precedes(const A& a, const B& b) noexcept {
  if (a.time != b.time) {
    return a.time < b.time;
  }
  return a.seq < b.seq;
}

/// Flat 4-ary min-heap over EventEntry. 4-ary halves the tree depth of a
/// binary heap and its four children share one 128-byte span, so the
/// dominant sift-down touches fewer cache lines per level. top()+pop()
/// replaces the old engine's top-then-pop double copy of a 72-byte Event
/// with one 32-byte read and one sift.
class EventHeap {
 public:
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t size() const noexcept { return entries_.size(); }
  void clear() noexcept { entries_.clear(); }
  const EventEntry& top() const noexcept { return entries_.front(); }

  void push(const EventEntry& entry) {
    entries_.push_back(entry);
    std::size_t child = entries_.size() - 1;
    while (child > 0) {
      const std::size_t parent = (child - 1) / 4;
      if (!precedes(entries_[child], entries_[parent])) {
        break;
      }
      std::swap(entries_[child], entries_[parent]);
      child = parent;
    }
  }

  void pop() noexcept {
    const EventEntry last = entries_.back();
    entries_.pop_back();
    if (entries_.empty()) {
      return;
    }
    sift_down_from_root(last);
  }

  /// pop() immediately followed by push(entry), as one sift. The event
  /// loop almost always replaces the event it consumes (a generate event
  /// schedules the next generation; a departure usually starts the next
  /// queued service), so fusing halves the heap traffic. Equivalent to
  /// pop+push for ordering purposes: (time, seq) is a strict total
  /// order, so pop order never depends on internal layout.
  void replace_top(const EventEntry& entry) noexcept {
    sift_down_from_root(entry);
  }

 private:
  /// Hole-based sift-down: bubble the root hole to the resting position
  /// for `value`, moving entries instead of swapping them.
  void sift_down_from_root(const EventEntry& value) noexcept {
    std::size_t hole = 0;
    const std::size_t count = entries_.size();
    for (;;) {
      const std::size_t first_child = 4 * hole + 1;
      if (first_child >= count) {
        break;
      }
      const std::size_t last_child = std::min(first_child + 4, count);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (precedes(entries_[c], entries_[best])) {
          best = c;
        }
      }
      if (!precedes(entries_[best], value)) {
        break;
      }
      entries_[hole] = entries_[best];
      hole = best;
    }
    entries_[hole] = value;
  }

  std::vector<EventEntry> entries_;
};

/// Dense job storage. A slot is live from allocate() to free(); freed
/// slots chain through next_free (LIFO) and are reused before the slab
/// grows, so the slab's high-water mark is the maximum number of
/// concurrently in-system jobs — after warm-up, allocate() never touches
/// the heap allocator again.
struct JobRecord {
  double arrival_time = 0.0;
  double comm_cost = 0.0;
  double generated_time = 0.0;
  double service_start = 0.0;
  std::uint32_t source = 0;
  std::uint32_t next_free = kNoSlot;
};

class JobSlab {
 public:
  std::uint32_t allocate() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = records_[slot].next_free;
      records_[slot].next_free = kNoSlot;
      return slot;
    }
    records_.emplace_back();
    return static_cast<std::uint32_t>(records_.size() - 1);
  }

  void free(std::uint32_t slot) noexcept {
    records_[slot].next_free = free_head_;
    free_head_ = slot;
  }

  JobRecord& operator[](std::uint32_t slot) noexcept {
    return records_[slot];
  }
  const JobRecord& operator[](std::uint32_t slot) const noexcept {
    return records_[slot];
  }

  void clear() noexcept {
    records_.clear();  // keeps capacity
    free_head_ = kNoSlot;
  }

 private:
  std::vector<JobRecord> records_;
  std::uint32_t free_head_ = kNoSlot;
};

/// Growable power-of-two FIFO ring — each server's queue of job slots and
/// the injected-arrival stream. push/pop are an index mask each; growth
/// (amortized, warm-up only) unwraps the ring into the doubled storage.
template <typename T>
class Ring {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }
  void clear() noexcept { head_ = size_ = 0; }
  const T& front() const noexcept { return buffer_[head_]; }
  const T& back() const noexcept { return at(size_ - 1); }

  void push_back(const T& value) {
    if (size_ == buffer_.size()) {
      grow();
    }
    buffer_[(head_ + size_) & (buffer_.size() - 1)] = value;
    ++size_;
  }

  T pop_front() noexcept {
    const T value = buffer_[head_];
    head_ = (head_ + 1) & (buffer_.size() - 1);
    --size_;
    return value;
  }

  /// FIFO-order element access (0 = front).
  const T& at(std::size_t i) const noexcept {
    return buffer_[(head_ + i) & (buffer_.size() - 1)];
  }

 private:
  void grow() {
    const std::size_t capacity = std::max<std::size_t>(buffer_.size() * 2, 16);
    std::vector<T> bigger(capacity);
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = buffer_[(head_ + i) & (buffer_.size() - 1)];
    }
    buffer_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

struct Server {
  std::size_t capacity = 1;   // parallel servers (M/M/c node)
  std::uint32_t epoch = 0;    // bumped on failure; voids stale departures
  Ring<std::uint32_t> queue;  // waiting jobs' slots, FIFO
  /// In-service job slots in dispatch order. Dispatch order is ascending
  /// job-creation order, so iterating this vector reproduces the
  /// canonical ascending-job-id busy-time summation order shared with
  /// DesReferenceSystem. At most `capacity` entries, so the ordered
  /// erase on departure is O(capacity) — single-digit in practice.
  std::vector<std::uint32_t> active;
};

/// Checks the rates. The routing and comm-cost matrices are checked where
/// the routing cells are built (Impl::rebuild_routing), which happens only
/// when some node generates.
void validate_config(const DesConfig& config) {
  const std::size_t n = config.lambda.size();
  FAP_EXPECTS(n >= 1, "need at least one node");
  FAP_EXPECTS(config.mu.size() == n, "mu size mismatch");
  for (std::size_t j = 0; j < n; ++j) {
    FAP_EXPECTS(std::isfinite(config.lambda[j]) && config.lambda[j] >= 0.0,
                "rates must be finite and non-negative");
    FAP_EXPECTS(config.mu[j] > 0.0, "service rates must be positive");
  }
}

}  // namespace

struct DesSystem::Impl {
  DesConfig config;
  util::Rng rng{0};
  EventHeap events;
  /// In-order injected accesses, ascending in (time, seq); see the header.
  Ring<InjectedAccess> arrivals;
  std::uint64_t seq = 0;
  std::vector<Server> servers;
  JobSlab jobs;
  std::gamma_distribution<double> gamma;
  /// Per-node server busy time accumulated (on departures) since the
  /// window opened; window() adds the in-progress partials on top.
  std::vector<double> busy_accum;
  std::vector<bool> failed;
  std::size_t total_completions = 0;

  /// One alias-table bucket of the flattened routing tables: acceptance
  /// threshold, alias target, and the communication costs of BOTH
  /// possible outcomes side by side, so one generate event resolves its
  /// routing draw and its comm cost with a single 32-byte probe instead
  /// of three scattered ones (sampler accept array, sampler alias array,
  /// nested comm-cost row).
  struct AliasCell {
    double accept = 1.0;
    double comm_bucket = 0.0;  ///< comm_cost[source][bucket]
    double comm_alias = 0.0;   ///< comm_cost[source][alias]
    std::uint32_t alias = 0;
    std::uint32_t pad = 0;
  };
  /// Row-major n*n per-source alias tables with their comm costs. The
  /// nested config matrices scatter every row behind its own allocation;
  /// the event loop probes this contiguous table instead. Only kGenerate
  /// events read it, so restart builds it only when some node generates;
  /// set_routing rebuilds it.
  std::vector<AliasCell> alias_cells;
  /// Scratch table each routing row is built in before its cells are
  /// filled. AliasSampler::rebuild does not depend on the previous row.
  AliasSampler row_sampler{std::vector<double>{1.0}};

  explicit Impl(DesConfig cfg) { restart(std::move(cfg)); }

  /// Full deterministic re-initialization: after restart(cfg) the engine
  /// is in exactly the state Impl(cfg) would produce — same RNG stream,
  /// same seeded generate events — but the heap, slab, rings and routing
  /// cells keep their grown capacity. Throws (without leaking) on an
  /// invalid config; the engine must then be restarted again before use.
  void restart(DesConfig cfg) {
    validate_config(cfg);
    FAP_EXPECTS(std::isfinite(cfg.hop_latency) && cfg.hop_latency >= 0.0,
                "hop latency must be finite and non-negative");
    if (!cfg.route_hops.empty()) {
      FAP_EXPECTS(cfg.route_hops.size() == cfg.lambda.size(),
                  "route hop matrix size mismatch");
      for (const auto& row : cfg.route_hops) {
        FAP_EXPECTS(row.size() == cfg.lambda.size(),
                    "route hop row size mismatch");
      }
    }
    if (!cfg.servers_per_node.empty()) {
      FAP_EXPECTS(cfg.servers_per_node.size() == cfg.lambda.size(),
                  "servers_per_node size mismatch");
      for (const std::size_t servers_at_node : cfg.servers_per_node) {
        FAP_EXPECTS(servers_at_node >= 1,
                    "each node needs at least one server");
      }
    }

    config = std::move(cfg);
    const std::size_t n = config.lambda.size();
    rng = util::Rng(config.seed);
    events.clear();
    arrivals.clear();
    seq = 0;
    total_completions = 0;
    jobs.clear();
    servers.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      servers[i].capacity =
          config.servers_per_node.empty() ? 1 : config.servers_per_node[i];
      servers[i].epoch = 0;
      servers[i].queue.clear();
      servers[i].active.clear();
      servers[i].active.reserve(servers[i].capacity);
    }
    busy_accum.assign(n, 0.0);
    failed.assign(n, false);
    if (config.service == ServiceDistribution::kGamma) {
      FAP_EXPECTS(config.service_scv > 0.0 && std::isfinite(config.service_scv),
                  "gamma service needs a finite scv > 0");
      gamma = std::gamma_distribution<double>(1.0 / config.service_scv, 1.0);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (config.lambda[j] > 0.0) {
        EventEntry generate;
        generate.time = rng.exponential(config.lambda[j]);
        generate.seq = seq++;
        generate.kind = EventKind::kGenerate;
        generate.node = static_cast<std::uint32_t>(j);
        events.push(generate);
      }
    }
    FAP_EXPECTS(config.open_loop || !events.empty(),
                "at least one node must generate accesses");
    if (!events.empty()) {
      rebuild_routing(config.routing);
    }
  }

  /// Builds alias_cells from `routing` and config.comm_cost, both of which
  /// must be n x n. Every row is validated before any cell changes, so a
  /// malformed routing throws with the deployed mix intact.
  void rebuild_routing(const std::vector<std::vector<double>>& routing) {
    const std::size_t n = config.lambda.size();
    FAP_EXPECTS(routing.size() == n, "routing size mismatch");
    FAP_EXPECTS(config.comm_cost.size() == n, "comm cost size mismatch");
    for (std::size_t j = 0; j < n; ++j) {
      FAP_EXPECTS(routing[j].size() == n, "routing row size mismatch");
      FAP_EXPECTS(config.comm_cost[j].size() == n, "comm row size mismatch");
      row_sampler.rebuild(routing[j]);
    }
    // The comm costs come along so the generate handler never touches the
    // nested config matrix (comm_cost never changes outside restart()).
    alias_cells.resize(n * n);
    for (std::size_t j = 0; j < n; ++j) {
      row_sampler.rebuild(routing[j]);
      const std::vector<double>& accept = row_sampler.acceptance();
      const std::vector<std::size_t>& alias = row_sampler.alias();
      for (std::size_t b = 0; b < n; ++b) {
        AliasCell& cell = alias_cells[j * n + b];
        cell.accept = accept[b];
        cell.alias = static_cast<std::uint32_t>(alias[b]);
        cell.comm_bucket = config.comm_cost[j][b];
        cell.comm_alias = config.comm_cost[j][alias[b]];
      }
    }
  }

  /// One routing draw — bit-identical to AliasSampler::sample on the
  /// same uniform, but probing the flattened single-line cells. Also
  /// yields the access's communication cost from the same probe.
  std::size_t sample_target(std::size_t source, double& comm) {
    const std::size_t n = config.lambda.size();
    const double scaled = rng.uniform() * static_cast<double>(n);
    std::size_t bucket = static_cast<std::size_t>(scaled);
    if (bucket >= n) {
      bucket = n - 1;  // guards u rounding up to 1.0
    }
    const double coin = scaled - static_cast<double>(bucket);
    const AliasCell& cell = alias_cells[source * n + bucket];
    if (coin < cell.accept) {
      comm = cell.comm_bucket;
      return bucket;
    }
    comm = cell.comm_alias;
    return cell.alias;
  }

  bool drained() const noexcept { return events.empty() && arrivals.empty(); }

  /// Whether the next event (stream front or heap top) is due by `time`.
  bool event_due(double time) const noexcept {
    return (!arrivals.empty() && arrivals.front().time <= time) ||
           (!events.empty() && events.top().time <= time);
  }

  /// One-way transit time of the source->target route.
  double transit(std::size_t source, std::size_t target) const {
    if (config.hop_latency == 0.0 || source == target) {
      return 0.0;
    }
    const std::size_t hops = config.route_hops.empty()
                                 ? 1
                                 : config.route_hops[source][target];
    return config.hop_latency * static_cast<double>(hops);
  }

  double sample_service(std::size_t node) {
    switch (config.service) {
      case ServiceDistribution::kExponential:
        return rng.exponential(config.mu[node]);
      case ServiceDistribution::kDeterministic:
        return 1.0 / config.mu[node];
      case ServiceDistribution::kGamma:
        return gamma(rng) * config.service_scv / config.mu[node];
    }
    return 1.0 / config.mu[node];
  }

  // Moves queue heads into free servers, scheduling their departures
  // through `emit` (the event loop's fused replace-top-or-push sink; the
  // plain heap push during restart()).
  template <typename Emit>
  void dispatch(std::size_t node, double now, Emit&& emit) {
    Server& server = servers[node];
    while (server.active.size() < server.capacity &&
           !server.queue.empty()) {
      const std::uint32_t slot = server.queue.pop_front();
      jobs[slot].service_start = now;
      server.active.push_back(slot);
      EventEntry departure;
      departure.time = now + sample_service(node);
      departure.seq = seq++;
      departure.kind = EventKind::kDeparture;
      departure.node = static_cast<std::uint32_t>(node);
      departure.slot = slot;
      departure.epoch = server.epoch;
      emit(departure);
    }
  }
};

DesSystem::DesSystem(DesConfig config)
    : impl_(std::make_unique<Impl>(std::move(config))) {
  window_.node.resize(impl_->config.lambda.size());
}

DesSystem::~DesSystem() = default;
DesSystem::DesSystem(DesSystem&&) noexcept = default;
DesSystem& DesSystem::operator=(DesSystem&&) noexcept = default;

void DesSystem::restart(DesConfig config) {
  impl_->restart(std::move(config));
  now_ = 0.0;
  reset_window();
}

void DesSystem::set_routing(const std::vector<std::vector<double>>& routing) {
  impl_->rebuild_routing(routing);
}

void DesSystem::inject_access(double time, std::size_t source,
                              std::size_t target, double comm,
                              double extra_latency) {
  Impl& impl = *impl_;
  const std::size_t n = impl.config.lambda.size();
  FAP_EXPECTS(std::isfinite(time), "injection time must be finite");
  FAP_EXPECTS(time >= now_, "cannot inject an access in the past");
  FAP_EXPECTS(source < n && target < n, "node out of range");
  FAP_EXPECTS(std::isfinite(extra_latency) && extra_latency >= 0.0,
              "extra latency must be finite and non-negative");
  // The access is "in flight" until generation time + stall + transit,
  // then queues at the target through the same handler generated traffic
  // uses (including the failed-node drop and the window arrival
  // accounting). seq is taken now either way, so where the access waits
  // cannot change the (time, seq) pop order.
  const double arrival_time =
      time + extra_latency + impl.transit(source, target);
  const std::uint64_t seq = impl.seq++;
  if (impl.arrivals.empty() || arrival_time >= impl.arrivals.back().time) {
    impl.arrivals.push_back(InjectedAccess{
        arrival_time, seq, time, comm, static_cast<std::uint32_t>(source),
        static_cast<std::uint32_t>(target)});
    return;
  }
  // Overtakes the stream's tail (a stall or a longer transit): a slot and
  // a kArrive heap event, the store-and-forward path.
  const std::uint32_t slot = impl.jobs.allocate();
  JobRecord& job = impl.jobs[slot];
  job.comm_cost = comm;
  job.generated_time = time;
  job.source = static_cast<std::uint32_t>(source);
  EventEntry arrival;
  arrival.time = arrival_time;
  arrival.seq = seq;
  arrival.kind = EventKind::kArrive;
  arrival.node = static_cast<std::uint32_t>(target);
  arrival.slot = slot;
  impl.events.push(arrival);
}

void DesSystem::set_node_failed(std::size_t node, bool failed) {
  FAP_EXPECTS(node < impl_->config.lambda.size(), "node out of range");
  if (impl_->failed[node] == failed) {
    return;
  }
  impl_->failed[node] = failed;
  Server& server = impl_->servers[node];
  if (failed) {
    // All queued and in-service work at the node is lost.
    const std::size_t lost = server.queue.size() + server.active.size();
    for (std::size_t i = 0; i < server.queue.size(); ++i) {
      impl_->jobs.free(server.queue.at(i));
    }
    for (const std::uint32_t slot : server.active) {
      impl_->busy_accum[node] +=
          now_ -
          std::max(impl_->jobs[slot].service_start, window_.start_time);
      impl_->jobs.free(slot);
    }
    if (now_ >= window_.start_time) {
      window_.failed_accesses += lost;
    }
    server.queue.clear();
    server.active.clear();
    ++server.epoch;  // voids the in-flight departure events, if any
  }
  // Repair needs no special action: the node resumes idle and future
  // accesses routed to it are served normally.
}

void DesSystem::process_one_event() {
  Impl& impl = *impl_;
  FAP_ENSURES(!impl.drained(), "event queue drained unexpectedly");
  const bool from_stream =
      !impl.arrivals.empty() &&
      (impl.events.empty() ||
       precedes(impl.arrivals.front(), impl.events.top()));

  // Deferred pop: a consumed heap top stays in the heap until either the
  // first scheduled event overwrites it in place (replace_top — one sift
  // instead of a pop's sift-down plus a push's sift-up) or the handler
  // finishes without scheduling anything. A stream arrival consumes no
  // heap entry, so everything it schedules is a plain push.
  bool top_replaced = from_stream;
  const auto emit = [&](const EventEntry& entry) {
    if (top_replaced) {
      impl.events.push(entry);
    } else {
      impl.events.replace_top(entry);
      top_replaced = true;
    }
  };

  // Queues the slot's job at its target, or drops it if the target is
  // down. The slot must already carry comm_cost/source/generated_time.
  const auto enqueue_access = [&](std::uint32_t slot, std::size_t target) {
    if (impl.failed[target]) {
      // The fragment at a failed node is unreachable; the access is lost.
      impl.jobs.free(slot);
      if (now_ >= window_.start_time) {
        ++window_.failed_accesses;
      }
      return;
    }
    if (now_ >= window_.start_time) {
      ++window_.node[target].arrivals;
    }
    impl.jobs[slot].arrival_time = now_;
    impl.servers[target].queue.push_back(slot);
    impl.dispatch(target, now_, emit);
  };

  if (from_stream) {
    const InjectedAccess access = impl.arrivals.pop_front();
    now_ = access.time;
    const std::uint32_t slot = impl.jobs.allocate();
    JobRecord& job = impl.jobs[slot];
    job.comm_cost = access.comm_cost;
    job.generated_time = access.generated_time;
    job.source = access.source;
    enqueue_access(slot, access.target);
    return;
  }

  const EventEntry event = impl.events.top();
  now_ = event.time;
  if (event.kind == EventKind::kGenerate) {
    const std::size_t source = event.node;
    EventEntry next;
    next.time = now_ + impl.rng.exponential(impl.config.lambda[source]);
    next.seq = impl.seq++;
    next.kind = EventKind::kGenerate;
    next.node = event.node;
    emit(next);
    double comm = 0.0;
    const std::size_t target = impl.sample_target(source, comm);
    const std::uint32_t slot = impl.jobs.allocate();
    JobRecord& job = impl.jobs[slot];
    job.comm_cost = comm;
    job.generated_time = now_;
    job.source = event.node;
    const double transit = impl.transit(source, target);
    if (transit > 0.0) {
      // Store-and-forward: the request is in flight for `transit`.
      EventEntry arrival;
      arrival.time = now_ + transit;
      arrival.seq = impl.seq++;
      arrival.kind = EventKind::kArrive;
      arrival.node = static_cast<std::uint32_t>(target);
      arrival.slot = slot;
      emit(arrival);
    } else {
      enqueue_access(slot, target);
    }
  } else if (event.kind == EventKind::kArrive) {
    enqueue_access(event.slot, event.node);
  } else {
    const std::size_t node = event.node;
    Server& server = impl.servers[node];
    if (event.epoch != server.epoch) {
      // The node failed after this service started; the event is void and
      // its slot was already released (and possibly reused) by the
      // failure handler — it must not be touched here.
      impl.events.pop();
      return;
    }
    const std::uint32_t slot = event.slot;
    const auto it =
        std::find(server.active.begin(), server.active.end(), slot);
    FAP_ENSURES(it != server.active.end(),
                "departure event for an unknown job");
    const JobRecord& job = impl.jobs[slot];
    const double service_start = job.service_start;
    const double sojourn = now_ - job.arrival_time;
    ++impl.total_completions;
    if (impl.config.window_by_completion ||
        job.arrival_time >= window_.start_time) {
      window_.comm_cost.add(job.comm_cost);
      window_.sojourn.add(sojourn);
      window_.node[node].sojourn.add(sojourn);
      // Response reaches the requester after the return transit.
      const double response =
          now_ + impl.transit(job.source, node) - job.generated_time;
      window_.response_time.add(response);
      window_.response_hist.add(response);
      ++window_.completions;
      if (impl.config.record_log) {
        window_.log.push_back(AccessObservation{
            job.source, node, job.arrival_time, service_start, now_,
            job.comm_cost});
      }
    }
    impl.busy_accum[node] +=
        now_ - std::max(service_start, window_.start_time);
    server.active.erase(it);  // ordered erase keeps dispatch order
    impl.jobs.free(slot);
    impl.dispatch(node, now_, emit);
  }
  if (!top_replaced) {
    impl.events.pop();
  }
}

void DesSystem::advance_until(double time) {
  FAP_EXPECTS(std::isfinite(time), "advance target time must be finite");
  FAP_EXPECTS(time >= now_, "cannot advance backwards in time");
  while (impl_->event_due(time)) {
    process_one_event();
  }
  now_ = time;
}

std::size_t DesSystem::advance_completions(std::size_t count) {
  const std::size_t start = impl_->total_completions;
  // Generators never stop, so guard against a system that can no longer
  // complete anything (e.g. every routing target failed).
  const std::size_t event_budget =
      impl_->config.event_budget_per_completion * count +
      impl_->config.event_budget_floor;
  std::size_t events_processed = 0;
  while (impl_->total_completions < start + count) {
    if (impl_->drained()) {
      break;
    }
    FAP_ENSURES(events_processed++ < event_budget,
                "no service completions are being made — are all routed "
                "nodes failed?");
    process_one_event();
  }
  return impl_->total_completions - start;
}

void DesSystem::reset_window() {
  // In-place equivalent of assigning a fresh WindowStats: every counter
  // and accumulator returns to its default, but the node vector, log and
  // histogram keep their capacity (zero steady-state allocation even for
  // windowed workloads that reset every epoch).
  const std::size_t n = impl_->config.lambda.size();
  window_.comm_cost = util::RunningStats();
  window_.sojourn = util::RunningStats();
  window_.response_time = util::RunningStats();
  window_.response_hist.clear();
  window_.node.assign(n, NodeStats());
  window_.log.clear();
  window_.start_time = now_;
  window_.span = 0.0;
  window_.completions = 0;
  window_.failed_accesses = 0;
  std::fill(impl_->busy_accum.begin(), impl_->busy_accum.end(), 0.0);
}

const WindowStats& DesSystem::window() {
  const std::size_t n = impl_->config.lambda.size();
  window_.span = std::max(now_ - window_.start_time, 1e-12);
  for (std::size_t i = 0; i < n; ++i) {
    double busy = impl_->busy_accum[i];
    const Server& server = impl_->servers[i];
    for (const std::uint32_t slot : server.active) {
      busy += now_ -
              std::max(impl_->jobs[slot].service_start, window_.start_time);
    }
    window_.node[i].busy_time = busy;
    // Utilization is per server: busy server-time over capacity·span.
    window_.node[i].utilization =
        busy / (window_.span * static_cast<double>(server.capacity));
    window_.node[i].observed_arrival_rate =
        static_cast<double>(window_.node[i].arrivals) / window_.span;
  }
  return window_;
}

ReplicatedDesResult run_des_replications(const DesConfig& config,
                                         std::size_t replications,
                                         const runtime::SweepOptions& options) {
  // Each replication is a complete independent run_des with its own
  // derived seed; the per-replication DesResults come back in index order
  // and reduce deterministically left to right.
  const std::vector<DesResult> runs = runtime::sweep(
      replications, options, [&config](std::size_t, std::uint64_t seed) {
        DesConfig replication = config;
        replication.seed = seed;
        // One engine per worker thread, reused across every replication
        // that lands on it — and across run_des_replications calls from
        // the same thread. restart() is bit-equivalent to constructing a
        // fresh engine, so which worker runs which replication (and
        // whether an engine is fresh or recycled) cannot be observed in
        // the results; it only removes the per-replication heap/slab
        // reallocation.
        thread_local std::optional<DesSystem> engine;
        if (!engine.has_value()) {
          engine.emplace(replication);
        }
        return run_des(*engine, replication);
      });
  ReplicatedDesResult result;
  result.replications = runs.size();
  for (const DesResult& run : runs) {
    result.comm_cost.merge(run.comm_cost);
    result.sojourn.merge(run.sojourn);
    result.response_time.merge(run.response_time);
    result.cost_per_replication.add(run.measured_cost);
  }
  result.measured_cost =
      result.comm_cost.mean() + config.k * result.sojourn.mean();
  return result;
}

}  // namespace fap::sim
