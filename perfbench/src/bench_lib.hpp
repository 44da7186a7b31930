// Helpers of the repository benchmark (perfbench/src/main.cpp).
//
// Everything here runs in the benchmark's own code, around its calls into
// the library: wall and CPU timing of each call, in-memory spans with
// self time, percentiles that state their sample count, the output checks
// that make a run fail, and the result digests that must repeat exactly
// across repeats of one seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "catalog/catalog_solver.hpp"
#include "catalog/catalog_spec.hpp"
#include "serve/trace_server.hpp"

namespace perfbench {

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 1]: the ceil(q·n)-th smallest value
/// (the smallest for q = 0). `values` need not be sorted; empty gives 0.
double percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank q-percentile of `count` samples.
std::size_t samples_beyond(std::size_t count, double q);

/// The highest of `candidates` that leaves at least `min_beyond` samples
/// beyond it, so a reported tail is backed by at least that many
/// observations; 0.5 (the median) when none does.
double supported_quantile(std::size_t count,
                          const std::vector<double>& candidates,
                          std::size_t min_beyond = 10);

/// q-quantile of a weighted sample: the smallest value whose cumulative
/// weight (in ascending value order) reaches q of the total.
double weighted_percentile(std::vector<std::pair<double, double>> value_weight,
                           double q);

// ---------------------------------------------------------------------------
// Spans

struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once).
double self_time(Interval span, const std::vector<Interval>& children);

inline constexpr std::size_t kNoParent =
    std::numeric_limits<std::size_t>::max();

/// Whether a timed call runs on the calling thread only (its CPU time is
/// the thread's) or fans out to workers (its CPU time is the process's).
enum class Threads { kOne, kMany };

struct CallTiming {
  std::string name;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Threads threads = Threads::kOne;
};

/// A single-threaded call whose wall time clearly exceeds its CPU time was
/// descheduled or waited on something: its wall time is inflated by the
/// machine, not by the code (wall > 1.15 × CPU and by more than 5 ms).
bool inflated(const CallTiming& call);

struct Span {
  std::string name;
  std::size_t parent = kNoParent;
  double start = 0.0;  ///< seconds since the recorder was made
  double end = 0.0;
};

/// Times calls into the library (wall and CPU, always) and, when tracing,
/// keeps a span per call in memory until the run writes them out.
class Recorder {
 public:
  Recorder(std::string run_id, bool tracing);

  const std::string& run_id() const noexcept { return run_id_; }
  /// Seconds since construction (steady clock).
  double now() const;

  /// Runs fn(), logs its wall and CPU time under `name`, and when tracing
  /// records a span under `parent`. Returns the span id (kNoParent when
  /// not tracing).
  template <typename Fn>
  std::size_t time(const std::string& name, Threads threads, Fn&& fn,
                   std::size_t parent = kNoParent) {
    const double cpu0 = cpu_seconds(threads);
    const double start = now();
    fn();
    const double end = now();
    calls_.push_back(
        CallTiming{name, end - start, cpu_seconds(threads) - cpu0, threads});
    return add_span(name, parent, start, end);
  }

  /// Records a span whose interval was measured elsewhere (no-op and
  /// kNoParent when not tracing).
  std::size_t add_span(const std::string& name, std::size_t parent,
                       double start, double end);

  /// Opens a span that encloses later calls; close() sets its end.
  std::size_t open(const std::string& name, std::size_t parent = kNoParent);
  void close(std::size_t span);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::vector<CallTiming>& calls() const noexcept { return calls_; }
  const CallTiming& last_call() const { return calls_.back(); }

  /// Self time of every span, in span order.
  std::vector<double> self_times() const;

  /// {"run_id", "spans": [{id, name, parent, start, end, self}]}.
  std::string spans_json() const;

 private:
  static double cpu_seconds(Threads threads);

  std::string run_id_;
  bool tracing_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<CallTiming> calls_;
};

// ---------------------------------------------------------------------------
// Output checks: each returns the violations found (empty = correct).

/// Every requested request was injected and completed, none failed, and
/// the delay histogram holds exactly the completions.
std::vector<std::string> check_serve(const fap::serve::TraceServeResult& r,
                                     std::size_t requested);

/// residual <= 1e-9; well-formed CSR whose rows each sum to 1 over valid
/// nodes; every node_load <= capacity; and node_load equals the load the
/// placements actually put on each node.
std::vector<std::string> check_catalog(const fap::catalog::CatalogSpec& spec,
                                       const fap::catalog::CatalogResult& r);

/// FNV-1a digests of the result statistics: equal digests across repeats
/// of one seed show the run is deterministic.
std::uint64_t digest(const fap::serve::TraceServeResult& r);
std::uint64_t digest(const fap::catalog::CatalogResult& r);

/// Peak resident set size of this process (VmHWM) in MB; 0 if unknown.
double peak_rss_mb();

/// Restarts the peak at the current resident size (Linux clear_refs), so
/// the next peak_rss_mb() covers only what ran since; false if refused.
bool reset_peak_rss();

}  // namespace perfbench
