// Thread-safe JSONL metrics sink.
//
// Benches historically reported only stdout tables; once sweep points run
// concurrently, per-task observability (which point, which seed, how
// long, what series) needs a machine-readable channel that tolerates
// interleaved writers. MetricsSink appends one self-contained JSON object
// per record() call — the JSON Lines convention — using util::JsonWriter
// for escaping/number formatting, serialized by a mutex so lines are
// never torn. Analysis side: `jq`, pandas.read_json(lines=True), etc.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fap::runtime {

/// One observation, typically a completed sweep task.
struct MetricsRecord {
  std::string run_id;  ///< experiment identity (e.g. "fig6_scaling")
  std::string task;    ///< task label within the run (e.g. "N=12")
  std::size_t task_index = 0;
  std::uint64_t seed = 0;        ///< RNG seed the task ran with
  double wall_ms = 0.0;          ///< task wall-clock, milliseconds
  /// Named scalar parameters/results of the task, in insertion order.
  std::vector<std::pair<std::string, double>> values;
  /// Optional series (e.g. per-iteration cost); emitted as a JSON array.
  std::vector<double> series;
};

class MetricsSink {
 public:
  /// Opens (truncating) the JSONL file. Throws std::runtime_error if the
  /// path cannot be opened for writing.
  explicit MetricsSink(const std::string& path);

  MetricsSink(const MetricsSink&) = delete;
  MetricsSink& operator=(const MetricsSink&) = delete;

  /// Appends one JSON line. Safe to call from any thread; lines are
  /// written atomically with respect to each other and flushed, so a
  /// crashed or interrupted run keeps every completed record.
  void record(const MetricsRecord& record);

  std::size_t records_written() const;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::ofstream out_;
  std::size_t records_ = 0;
};

/// Renders a record as its single JSON line (no trailing newline).
/// Exposed for tests; record() is equivalent to writing this + '\n'.
std::string to_json_line(const MetricsRecord& record);

/// Accumulates a named scalar into the calling thread's *current sweep
/// task*: run_sweep clears the accumulator before each task body and
/// drains it into the task's MetricsRecord::values afterwards (a no-op
/// without an attached sink). Repeated calls with the same name sum, so
/// instrumented lower layers (e.g. batch_sweep) can count events without
/// coordinating: `add_task_metric("batch_size", items)`.
/// Calls outside a sweep task accumulate harmlessly into thread-local
/// state that the next task on the thread discards.
void add_task_metric(const std::string& name, double value);

namespace detail {
/// Clears the calling thread's pending task metrics (run_sweep, at task
/// start).
void reset_task_metrics();
/// Moves the calling thread's pending task metrics out (run_sweep, at
/// task end), leaving the accumulator empty.
std::vector<std::pair<std::string, double>> take_task_metrics();
}  // namespace detail

}  // namespace fap::runtime
