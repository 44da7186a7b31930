#include "bench_lib.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/json.hpp"
#include "util/numeric.hpp"

namespace perfbench {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Fnv1a {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Length of the part of `within` covered by the union of `parts`.
double covered_length(std::vector<Interval> parts, Interval within) {
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  double covered = 0.0;
  double reach = within.start;  // everything before `reach` is counted
  for (const Interval& part : parts) {
    const double start = std::max(part.start, reach);
    const double end = std::min(part.end, within.end);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return covered;
}

std::string describe(const char* what, double got, double bound) {
  std::ostringstream out;
  out.precision(17);
  out << what << ": " << got << " (bound " << bound << ")";
  return out.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : std::min(rank, values.size()) - 1];
}

std::size_t samples_beyond(std::size_t count, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(count)));
  return count - std::min(rank, count);
}

double supported_quantile(std::size_t count,
                          const std::vector<double>& candidates,
                          std::size_t min_beyond) {
  double best = 0.5;
  bool found = false;
  for (const double q : candidates) {
    if (samples_beyond(count, q) >= min_beyond && (!found || q > best)) {
      best = q;
      found = true;
    }
  }
  return best;
}

double weighted_percentile(std::vector<std::pair<double, double>> value_weight,
                           double q) {
  if (value_weight.empty()) {
    return 0.0;
  }
  std::sort(value_weight.begin(), value_weight.end());
  double total = 0.0;
  for (const auto& [value, weight] : value_weight) {
    total += weight;
  }
  const double target = q * total;
  double cumulative = 0.0;
  for (const auto& [value, weight] : value_weight) {
    cumulative += weight;
    if (cumulative >= target) {
      return value;
    }
  }
  return value_weight.back().first;
}

// ---------------------------------------------------------------------------
// Spans

double self_time(Interval span, const std::vector<Interval>& children) {
  return (span.end - span.start) - covered_length(children, span);
}

bool inflated(const CallTiming& call) {
  return call.threads == Threads::kOne && call.wall_s > 1.15 * call.cpu_s &&
         call.wall_s - call.cpu_s > 0.005;
}

Recorder::Recorder(std::string run_id, bool tracing)
    : run_id_(std::move(run_id)), tracing_(tracing), origin_ns_(steady_ns()) {}

double Recorder::now() const {
  return static_cast<double>(steady_ns() - origin_ns_) * 1e-9;
}

double Recorder::cpu_seconds(Threads threads) {
  timespec ts{};
  clock_gettime(threads == Threads::kOne ? CLOCK_THREAD_CPUTIME_ID
                                         : CLOCK_PROCESS_CPUTIME_ID,
                &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::size_t Recorder::add_span(const std::string& name, std::size_t parent,
                               double start, double end) {
  if (!tracing_) {
    return kNoParent;
  }
  spans_.push_back(Span{name, parent, start, end});
  return spans_.size() - 1;
}

std::size_t Recorder::open(const std::string& name, std::size_t parent) {
  const double t = now();
  return add_span(name, parent, t, t);
}

void Recorder::close(std::size_t span) {
  if (span < spans_.size()) {
    spans_[span].end = now();
  }
}

std::vector<double> Recorder::self_times() const {
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent < spans_.size()) {
      children[span.parent].push_back(Interval{span.start, span.end});
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t s = 0; s < spans_.size(); ++s) {
    self[s] = self_time(Interval{spans_[s].start, spans_[s].end}, children[s]);
  }
  return self;
}

std::string Recorder::spans_json() const {
  const std::vector<double> self = self_times();
  fap::util::JsonWriter json;
  json.begin_object();
  json.key("run_id").value(run_id_);
  json.key("spans").begin_array();
  for (std::size_t s = 0; s < spans_.size(); ++s) {
    const Span& span = spans_[s];
    json.begin_object();
    json.key("id").value(s);
    json.key("name").value(span.name);
    if (span.parent == kNoParent) {
      json.key("parent").null();
    } else {
      json.key("parent").value(span.parent);
    }
    json.key("start").value(span.start);
    json.key("end").value(span.end);
    json.key("self").value(self[s]);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.str();
}

// ---------------------------------------------------------------------------
// Output checks

std::vector<std::string> check_serve(const fap::serve::TraceServeResult& r,
                                     std::size_t requested) {
  std::vector<std::string> violations;
  if (r.requests_injected != requested) {
    violations.push_back(describe("requests_injected != requested",
                                  static_cast<double>(r.requests_injected),
                                  static_cast<double>(requested)));
  }
  if (r.completions != r.requests_injected) {
    violations.push_back(describe("completions != requests_injected",
                                  static_cast<double>(r.completions),
                                  static_cast<double>(r.requests_injected)));
  }
  if (r.failed != 0) {
    violations.push_back(
        describe("failed requests", static_cast<double>(r.failed), 0.0));
  }
  if (r.delay_hist.total() != r.completions || r.delay_hist.nonfinite() != 0) {
    violations.push_back(describe("delay histogram != completions",
                                  static_cast<double>(r.delay_hist.total()),
                                  static_cast<double>(r.completions)));
  }
  return violations;
}

std::vector<std::string> check_catalog(const fap::catalog::CatalogSpec& spec,
                                       const fap::catalog::CatalogResult& r) {
  constexpr double kTolerance = 1e-9;
  std::vector<std::string> violations;
  const std::size_t objects = spec.object_count();
  const std::size_t nodes = spec.node_count();
  if (!(r.residual <= kTolerance)) {
    violations.push_back(describe("residual", r.residual, kTolerance));
  }
  if (r.offsets.size() != objects + 1 || r.offsets.front() != 0 ||
      r.offsets.back() != r.placements.size() || r.node_load.size() != nodes) {
    violations.push_back("malformed CSR or node_load size");
    return violations;
  }
  std::vector<fap::util::NeumaierSum> load(nodes);
  std::size_t bad_rows = 0;
  for (std::size_t o = 0; o < objects; ++o) {
    if (r.offsets[o] > r.offsets[o + 1]) {
      violations.push_back("CSR offsets decrease");
      return violations;
    }
    double sum = 0.0;
    for (std::uint32_t p = r.offsets[o]; p < r.offsets[o + 1]; ++p) {
      const fap::catalog::Placement& placement = r.placements[p];
      if (placement.node >= nodes || !(placement.fraction > 0.0)) {
        violations.push_back("placement with bad node or fraction");
        return violations;
      }
      sum += placement.fraction;
      load[placement.node].add(spec.volume[o] * placement.fraction);
    }
    if (!(std::abs(sum - 1.0) <= kTolerance)) {
      ++bad_rows;
    }
  }
  if (bad_rows > 0) {
    violations.push_back(describe("objects whose fractions do not sum to 1",
                                  static_cast<double>(bad_rows), 0.0));
  }
  for (std::size_t i = 0; i < nodes; ++i) {
    const double capacity = spec.node_capacity[i];
    if (!(r.node_load[i] <= capacity)) {
      violations.push_back(describe("node_load over capacity", r.node_load[i],
                                    capacity));
    }
    if (!(std::abs(load[i].value() - r.node_load[i]) <=
          kTolerance * std::max(1.0, capacity))) {
      violations.push_back(describe("node_load differs from its placements",
                                    r.node_load[i], load[i].value()));
    }
  }
  return violations;
}

std::uint64_t digest(const fap::serve::TraceServeResult& r) {
  Fnv1a h;
  for (const std::size_t count :
       {r.requests_injected, r.completions, r.failed, r.served_at_origin,
        r.reallocations, r.suppressed_reallocations, r.failed_estimations,
        r.migrated_records, r.migration_waves, r.stalled_requests,
        r.cache_hits, r.cache_misses, r.cache_invalidations}) {
    h.add(static_cast<std::uint64_t>(count));
  }
  for (const double value :
       {r.span, r.delay.mean(), r.delay.variance(), r.delay.max(),
        r.comm.mean(), r.comm.variance()}) {
    h.add(value);
  }
  for (std::size_t b = 0; b < r.delay_hist.bucket_count(); ++b) {
    h.add(static_cast<std::uint64_t>(r.delay_hist.count(b)));
  }
  return h.value();
}

std::uint64_t digest(const fap::catalog::CatalogResult& r) {
  Fnv1a h;
  for (const std::uint32_t offset : r.offsets) {
    h.add(static_cast<std::uint64_t>(offset));
  }
  for (const fap::catalog::Placement& placement : r.placements) {
    h.add(static_cast<std::uint64_t>(placement.node));
    h.add(placement.fraction);
  }
  for (const std::vector<double>* values : {&r.prices, &r.node_load}) {
    for (const double value : *values) {
      h.add(value);
    }
  }
  for (const std::uint64_t count :
       {static_cast<std::uint64_t>(r.rounds),
        static_cast<std::uint64_t>(r.repair_moves),
        static_cast<std::uint64_t>(r.oscillations), r.inner_iterations,
        static_cast<std::uint64_t>(r.unconverged_objects)}) {
    h.add(count);
  }
  for (const double value : {r.residual, r.pre_repair_residual, r.gamma,
                             r.hit_rate, r.external_traffic}) {
    h.add(value);
  }
  return h.value();
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // reported in KiB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

}  // namespace perfbench
