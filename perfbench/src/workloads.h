// The benchmark's three workloads: each runs whole rounds (build a
// cluster, warm it up, measure a window, drain, check the outputs) and
// folds the rounds into the end-to-end or per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;     ///< rounds continue until this much wall time has passed
  std::uint32_t rounds = 0;  ///< fixed round count instead (0 = use `seconds`)
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  double window_wall_s = 0;  ///< summed over rounds (the tracing-overhead base)
  double window_cpu_ms_per_kreq = 0;
  std::string digest;        ///< client request traces of every round (sim workloads)
  std::uint32_t rounds = 0;
};

/// Runs `options.workload`; the traced binary reports per-layer metrics,
/// the untraced one end-to-end metrics. Throws std::invalid_argument on an
/// unknown workload name.
[[nodiscard]] RunResult run_workload(const Options& options);

/// Runs the correctness checks on a small clean run, then on four
/// corrupted copies of its ledgers; returns 0 iff the clean copy passes
/// and each corruption is caught.
[[nodiscard]] int run_selftest();

}  // namespace perfbench
