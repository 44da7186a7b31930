// Reference discrete-event engine, kept as the equivalence oracle for
// DesSystem (the same pattern as core's active_set_reference).
//
// This is the pre-rewrite engine verbatim — fat Event structs through
// std::priority_queue, a std::deque FIFO and a per-job unordered_map at
// every server — with one normalization: active (in-service) jobs are
// iterated in ascending job-id order wherever their busy-time
// contributions are summed. The original engine iterated in
// unordered_map bucket order, which is observable only in the last bits
// of multi-server busy-time/utilization sums; the rewritten engine and
// this reference both use the canonical ascending order, so their traces
// can be compared bit for bit.
//
// Not used on any hot path: its only callers are the golden-trace
// equivalence tests, which drive both engines through identical
// scenario scripts and require every statistic, log entry and clock
// value to match exactly.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/des_system.hpp"

namespace fap::sim {

/// Mirror of the DesSystem API backed by the reference event engine.
/// Behavior contract: for any sequence of calls, every observable —
/// now(), window() statistics, logs, completion counts — is bit-identical
/// to DesSystem's under the same DesConfig. WindowStats::sums is left
/// empty: it is a fold of the log, which the reference does record.
class DesReferenceSystem {
 public:
  explicit DesReferenceSystem(DesConfig config);
  ~DesReferenceSystem();
  DesReferenceSystem(DesReferenceSystem&&) noexcept;
  DesReferenceSystem& operator=(DesReferenceSystem&&) noexcept;

  double now() const noexcept { return now_; }
  void set_routing(const std::vector<std::vector<double>>& routing);
  void set_node_failed(std::size_t node, bool failed);
  void advance_until(double time);
  std::size_t advance_completions(std::size_t count);
  void reset_window();
  const WindowStats& window();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  double now_ = 0.0;
  WindowStats window_;

  void process_one_event();
};

}  // namespace fap::sim
