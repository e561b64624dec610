// perfbench: one workload per process; prints one JSON line last.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--rounds <k>]
//   perfbench --selftest
//
// The untraced binary reports end-to-end metrics; perfbench_traced (same
// sources plus interpose.cpp) reports per-layer metrics. perfbench/run.py
// builds both and wraps them in the benchmark's command-line contract.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "probe.h"
#include "workloads.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> [--rounds <k>]\n"
               "       perfbench --selftest\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena for every thread. Cluster::run_for starts fresh TCP
  // driver threads on every call; with per-thread arenas, memory freed by
  // one round stayed resident in arenas the next round's threads did not
  // reuse, and the resident set climbed from 15 to 32 MB over five
  // identical rounds. The simulator is single-threaded and unaffected.
  mallopt(M_ARENA_MAX, 1);
  perfbench::Options options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--rounds" && has_value) {
      options.rounds = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      return usage();
    }
  }
  if (perfbench::probe::check_bindings() != 0) {
    std::fprintf(stderr, "perfbench: interposed entry points missing from the library\n");
    return 3;
  }
  if (selftest) return perfbench::run_selftest();
  if (options.workload.empty()) return usage();

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& e : result.errors) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());

  std::string metrics;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"rounds\": %u, "
      "\"window_wall_s\": %.17g, \"window_cpu_ms_per_kreq\": %.17g, \"digest\": \"%s\", "
      "\"errors\": %zu, \"first_error\": \"%s\", \"metrics\": {%s}}\n",
      result.correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed), result.rounds, result.window_wall_s,
      result.window_cpu_ms_per_kreq, result.digest.c_str(), result.errors.size(),
      result.errors.empty() ? "" : json_escape(result.errors.front()).c_str(), metrics.c_str());
  return result.correct ? 0 : 1;
}
