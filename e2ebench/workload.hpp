#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase: wall seconds on sockets, seconds of
  /// virtual time (one window each) on the simulator.
  double seconds = 10;
  /// Traced run: spans around every call into a layer, timed layer
  /// batches, per-layer metrics instead of end-to-end ones.
  bool trace = false;
  std::string trace_out;  ///< Chrome trace file written by a traced run
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Human-readable facts about the run: make-up, sample counts, the
  /// percentile each tail figure rests on, first correctness failures.
  std::vector<std::string> notes;
  /// Virtual-time results of a simulated run (staleness samples, update
  /// and byte counts, root values seen) — identical for identical seeds.
  std::string virtual_digest;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds the workload's deployment(s), measures, checks every output
/// against the benchmark's own oracle and returns the metrics. Throws
/// std::runtime_error when the run cannot be carried out (e.g. the ring
/// does not converge); wrong outputs are reported through `correct`.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace e2ebench
