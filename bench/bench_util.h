// Shared helpers for the SysTest paper-artifact benches (table2_*,
// ablations, metrics_overhead): runs a harness under a scheduler with the
// paper's 100,000-execution budget and prints Table 2-style rows (BF?,
// time-to-bug in seconds, #NDC — the number of nondeterministic choices in
// the first execution that found the bug).
//
// Every bench built on these helpers accepts a `--json` flag (see
// ParseArgs): instead of the human-readable table it then emits one JSON
// object per row of the form
//   {"bench":..., "executions_per_sec":..., "steps_per_sec":..., "config":...}
// the line format of the frozen BENCH_pr*.json files. Throughput is measured
// by the repository benchmark, perfbench/.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/systest.h"

namespace bench {

/// Global output mode toggled by --json on any bench command line.
inline bool& JsonMode() {
  static bool json = false;
  return json;
}

/// Scans argv for --json; leaves positional arguments alone so existing
/// benches keep their ad-hoc argument parsing.
inline void ParseArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json") {
      JsonMode() = true;
    }
  }
}

/// Hardware context for every JSON config line: the machine's hardware
/// thread count plus the cores actually AVAILABLE to this process (cgroup /
/// affinity limited — CI containers routinely expose 1 of many). Numbers
/// from differently-sized boxes are not comparable; this makes the mismatch
/// visible in the committed baselines instead of a mystery regression.
inline std::string HardwareDescription() {
  unsigned available = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    available = static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return "hw_conc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cores=" + std::to_string(available);
}

/// Emits one machine-readable result line (see header comment).
inline void EmitJson(const std::string& name, double executions_per_sec,
                     double steps_per_sec, const std::string& config) {
  std::printf(
      "{\"bench\":\"%s\",\"executions_per_sec\":%.1f,"
      "\"steps_per_sec\":%.1f,\"config\":\"%s %s\"}\n",
      name.c_str(), executions_per_sec, steps_per_sec, config.c_str(),
      HardwareDescription().c_str());
  std::fflush(stdout);
}

/// One-line description of the engine configuration for the JSON output.
inline std::string DescribeConfig(const systest::TestConfig& config) {
  return config.strategy.str() +
         " iters=" + std::to_string(config.iterations) +
         " max_steps=" + std::to_string(config.max_steps) +
         " seed=" + std::to_string(config.seed);
}

/// Runs `harness` under `config` and prints one Table 2-style row (or one
/// JSON line in --json mode). Returns whether the row found its bug.
inline bool RunRow(const std::string& label, const systest::TestConfig& config,
                   const systest::Harness& harness) {
  systest::TestingEngine engine(config, harness);
  const systest::TestReport report = engine.Run();
  if (JsonMode()) {
    const double seconds = report.total_seconds;
    EmitJson(label,
             seconds > 0 ? static_cast<double>(report.executions) / seconds
                         : 0.0,
             seconds > 0 ? static_cast<double>(report.total_steps) / seconds
                         : 0.0,
             DescribeConfig(config) +
                 (report.bug_found ? " bug_found=1" : " bug_found=0"));
    return report.bug_found;
  }
  if (report.bug_found) {
    std::printf("  %-42s  %-3s  %10.3f  %8llu   (iteration %llu)\n",
                label.c_str(), "yes", report.seconds_to_bug,
                static_cast<unsigned long long>(report.ndc),
                static_cast<unsigned long long>(report.bug_iteration));
  } else {
    std::printf("  %-42s  %-3s  %10s  %8s   (%llu executions)\n",
                label.c_str(), "no", "-", "-",
                static_cast<unsigned long long>(report.executions));
  }
  std::fflush(stdout);
  return report.bug_found;
}

inline void PrintHeader(const std::string& title) {
  if (JsonMode()) {
    return;
  }
  std::printf("\n%s\n", title.c_str());
  std::printf("  %-42s  %-3s  %10s  %8s\n", "Bug Identifier", "BF?",
              "TimeToBug(s)", "#NDC");
  std::printf(
      "  ------------------------------------------  ---  ----------  "
      "--------\n");
  std::fflush(stdout);
}

}  // namespace bench
