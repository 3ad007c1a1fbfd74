// Shared helpers for the SysTest paper-artifact benches (ablations,
// metrics_overhead).
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

}  // namespace bench
