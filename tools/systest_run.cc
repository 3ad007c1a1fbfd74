// systest_run — command-line driver for the SysTest scenario registry.
//
// Entirely registry-driven: scenarios self-register from their domains
// (SYSTEST_REGISTER_SCENARIO) and strategies from StrategyRegistry, so this
// file carries no per-domain includes and no hardcoded harness table. Every
// run goes through the TestSession facade (serial, sharded-parallel,
// portfolio or replay alike).
//
// Examples:
//   systest_run --list
//   systest_run --list --tag buggy --json
//   systest_run --scenario samplerepl-safety --threads 4 --iterations 20000
//   systest_run --scenario race --strategy portfolio --trace-out bug.trace
//   systest_run --scenario race --replay bug.trace
//   systest_run --scenario chaintable-lost-update --param writers=3 --param ops=2
//   systest_run --all --iterations 50 --json        # CI smoke sweep
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "api/reporters.h"
#include "api/scenario_registry.h"
#include "api/session.h"
#include "api/strategy_registry.h"

namespace {

using systest::StrategyRegistry;
using systest::api::JsonEscape;
using systest::api::ParamMap;
using systest::api::ParamSpec;
using systest::api::Scenario;
using systest::api::ScenarioRegistry;
using systest::api::SessionConfig;
using systest::api::SessionReport;
using systest::api::TestSession;

// ---------------------------------------------------------------------------
// Argument parsing.

struct Options {
  std::string scenario;
  std::string tag;        // with --list: filter; without: run all matching
  bool all = false;       // run every registered scenario
  std::string strategy;   // empty = scenario default
  int threads = 0;        // 0 = serial (portfolio auto-fields workers)
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::uint64_t iterations = 0;  // 0 = scenario default
  std::uint64_t max_steps = 0;   // 0 = scenario default
  int budget = -1;               // <0 = scenario default
  double time_budget = -1;       // <0 = scenario default
  std::vector<std::string> params;
  std::string trace_out;
  std::string replay;
  // Coverage-guided exploration: persist/load the trace corpus here. With
  // --all / --tag the path is a per-scenario SUBDIRECTORY (corpora from
  // different scenarios must never mix — their traces replay different
  // machines).
  std::string corpus_dir;
  long long corpus_max = -1;  // <0 = library default
  bool verbose = false;
  bool list = false;
  bool json = false;
  bool stateful = false;
  bool fingerprint_stats = false;  // implies --stateful
  // Tiered visited set (core/fingerprint.h). Each implies --stateful.
  long long max_visited = -1;      // total distinct-state budget; <0 = default
  long long max_visited_hot = -1;  // hot-level capacity; <0 = default
  std::string visited_spill_dir;   // spill compacted runs here; "" = RAM
  // Fault plane. Each budget flag overrides exactly the field it names and
  // implies --faults; bare --faults arms crash/restart 1/1 only when the
  // resolved config would otherwise have no faults. Replay needs NONE of
  // these: the failure schedule is read from the trace.
  bool faults = false;
  long long max_crashes = -1;   // <0 = not set
  long long max_restarts = -1;
  long long drop_den = -1;
  long long max_dups = -1;
  // Network partitions ride the same plane: bare --partitions arms a budget
  // of 1 only when the resolved config has none; the budget/odds flags
  // override exactly the field they name and imply --partitions.
  bool partitions = false;
  long long max_partitions = -1;
  long long heal_den = -1;
  long long fault_points = -1;  // pre-sampled fault placement points
  // Observability (README "Observability"). Any of these arms the metrics
  // plane for the session; replay runs never observe.
  bool progress = false;               // live one-line telemetry on stderr
  std::string metrics_out;             // JSONL time-series path
  std::uint64_t metrics_interval = 0;  // ms; 0 = session default
  bool coverage = false;               // end-of-run coverage heatmaps
};

void PrintUsage(const char* argv0) {
  std::printf(
      "usage: %s --scenario <name> [options]\n"
      "       %s --tag <tag> | --all [options]     run every matching scenario\n"
      "       %s --list [--tag <tag>] [--json]\n"
      "\n"
      "options:\n"
      "  --scenario <name>  registered scenario (--harness is a deprecated\n"
      "                     alias); see --list\n"
      "  --param k=v        scenario parameter (repeatable; see --list)\n"
      "  --strategy <s>     registered strategy (budget suffix allowed, e.g.\n"
      "                     pct(5)), or portfolio to race the rotation\n"
      "  --threads <n>      worker threads (default: serial engine;\n"
      "                     portfolio defaults to max(6, hardware threads))\n"
      "  --seed <n>         base seed (default: scenario default). Execution\n"
      "                     i of base seed s runs SplitMix64(s + i), so base\n"
      "                     seeds s and s+k share all but k executions; for\n"
      "                     independent runs, derive the base seeds through\n"
      "                     SplitMix64 instead of counting up\n"
      "  --iterations <n>   total execution budget, sharded across workers\n"
      "  --max-steps <n>    per-execution scheduling step bound\n"
      "  --budget <n>       PCT priority change points / delay budget\n"
      "  --time-budget <s>  wall-clock budget in seconds\n"
      "  --trace-out <f>    write the winning bug trace to <f> (with --all /\n"
      "                     --tag: one file per scenario, name suffixed)\n"
      "  --replay <f>       replay a saved trace instead of exploring\n"
      "  --faults           enable scheduler-controlled fault injection;\n"
      "                     arms crash/restart 1/1 only if neither the\n"
      "                     scenario nor a flag below configures any fault\n"
      "  --max-crashes <n>  per-execution machine-crash budget (implies\n"
      "                     --faults)\n"
      "  --max-restarts <n> per-execution restart budget (implies --faults)\n"
      "  --drop-den <n>     drop each delivery with probability 1/n\n"
      "                     (implies --faults)\n"
      "  --max-dups <n>     per-execution message-duplication budget\n"
      "                     (implies --faults)\n"
      "  --partitions       enable scheduler-controlled network partitions;\n"
      "                     arms a budget of 1 only if neither the scenario\n"
      "                     nor --max-partitions configures one\n"
      "  --max-partitions <n>  per-execution partition budget (implies\n"
      "                     --partitions)\n"
      "  --heal-den <n>     heal each active partition with probability 1/n\n"
      "                     per step; 0 = partitions never heal (implies\n"
      "                     --partitions)\n"
      "  --fault-points <n> pre-sample <n> destructive-fault placement points\n"
      "                     from the step budget (PCT-style) instead of\n"
      "                     geometric per-step odds\n"
      "  --stateful         fingerprint visited program states and prune\n"
      "                     executions that reconverge to them\n"
      "  --max-visited <n>  total distinct-state budget across both levels\n"
      "                     of the tiered visited set (default 1M; implies\n"
      "                     --stateful)\n"
      "  --max-visited-hot <n>  exact hot-level capacity; reaching it\n"
      "                     compacts the hot front into a sorted run behind\n"
      "                     the back-level bloom filter (default 1M; implies\n"
      "                     --stateful)\n"
      "  --visited-spill-dir <d>  write compacted runs to <d> as mmap-able\n"
      "                     files instead of keeping them in RAM (implies\n"
      "                     --stateful)\n"
      "  --corpus-dir <d>   persist the trace corpus of interesting schedules\n"
      "                     to <d> and reload it next run; arms the corpus\n"
      "                     and implies --stateful (with --all / --tag: one\n"
      "                     subdirectory per scenario). Pair with\n"
      "                     --strategy mutate (or portfolio) to exploit it\n"
      "  --corpus-max <n>   cap on stored corpus entries (default 1024)\n"
      "  --progress         live one-line progress telemetry on stderr\n"
      "                     (exec/s, distinct states, prune %%, faults, ETA,\n"
      "                     per-worker rates)\n"
      "  --metrics-out <f>  append a JSONL metrics sample to <f> every\n"
      "                     interval (with --all / --tag: one file per\n"
      "                     scenario, name suffixed)\n"
      "  --metrics-interval <ms>  sampling interval (default 250)\n"
      "  --coverage         print/emit the end-of-run coverage heatmap\n"
      "                     (state visits, unvisited declared states, event\n"
      "                     deliveries, fault placements)\n"
      "  --fingerprint-stats  print the detailed dedup breakdown after the\n"
      "                     run (implies --stateful)\n"
      "  --json             machine-readable output (one JSON line per run)\n"
      "  --verbose          include the readable execution log on a bug\n",
      argv0, argv0, argv0);
}

bool ParseArgs(int argc, char** argv, Options& options) {
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: %s requires a value\n", argv[i]);
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--all") {
      options.all = true;
    } else if (arg == "--json") {
      options.json = true;
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--stateful") {
      options.stateful = true;
    } else if (arg == "--max-visited") {
      if (!(value = need_value(i))) return false;
      options.max_visited = std::atoll(value);
      options.stateful = true;
    } else if (arg == "--max-visited-hot") {
      if (!(value = need_value(i))) return false;
      options.max_visited_hot = std::atoll(value);
      options.stateful = true;
    } else if (arg == "--visited-spill-dir") {
      if (!(value = need_value(i))) return false;
      options.visited_spill_dir = value;
      options.stateful = true;
    } else if (arg == "--faults") {
      options.faults = true;
    } else if (arg == "--max-crashes") {
      if (!(value = need_value(i))) return false;
      options.max_crashes = std::atoll(value);
      options.faults = true;
    } else if (arg == "--max-restarts") {
      if (!(value = need_value(i))) return false;
      options.max_restarts = std::atoll(value);
      options.faults = true;
    } else if (arg == "--drop-den") {
      if (!(value = need_value(i))) return false;
      options.drop_den = std::atoll(value);
      options.faults = true;
    } else if (arg == "--max-dups") {
      if (!(value = need_value(i))) return false;
      options.max_dups = std::atoll(value);
      options.faults = true;
    } else if (arg == "--partitions") {
      options.partitions = true;
    } else if (arg == "--max-partitions") {
      if (!(value = need_value(i))) return false;
      options.max_partitions = std::atoll(value);
      options.partitions = true;
    } else if (arg == "--heal-den") {
      if (!(value = need_value(i))) return false;
      options.heal_den = std::atoll(value);
      options.partitions = true;
    } else if (arg == "--corpus-dir") {
      if (!(value = need_value(i))) return false;
      options.corpus_dir = value;
    } else if (arg == "--corpus-max") {
      if (!(value = need_value(i))) return false;
      options.corpus_max = std::atoll(value);
    } else if (arg == "--fault-points") {
      if (!(value = need_value(i))) return false;
      options.fault_points = std::atoll(value);
    } else if (arg == "--progress") {
      options.progress = true;
    } else if (arg == "--coverage") {
      options.coverage = true;
    } else if (arg == "--metrics-out") {
      if (!(value = need_value(i))) return false;
      options.metrics_out = value;
    } else if (arg == "--metrics-interval") {
      if (!(value = need_value(i))) return false;
      options.metrics_interval = std::strtoull(value, nullptr, 10);
    } else if (arg == "--fingerprint-stats") {
      options.fingerprint_stats = true;
      options.stateful = true;
    } else if (arg == "--scenario" || arg == "--harness") {
      if (!(value = need_value(i))) return false;
      options.scenario = value;
    } else if (arg == "--tag") {
      if (!(value = need_value(i))) return false;
      options.tag = value;
    } else if (arg == "--param") {
      if (!(value = need_value(i))) return false;
      options.params.emplace_back(value);
    } else if (arg == "--strategy") {
      if (!(value = need_value(i))) return false;
      options.strategy = value;
    } else if (arg == "--threads") {
      if (!(value = need_value(i))) return false;
      options.threads = std::atoi(value);
    } else if (arg == "--seed") {
      if (!(value = need_value(i))) return false;
      options.seed = std::strtoull(value, nullptr, 10);
      options.seed_set = true;
    } else if (arg == "--iterations") {
      if (!(value = need_value(i))) return false;
      options.iterations = std::strtoull(value, nullptr, 10);
    } else if (arg == "--max-steps") {
      if (!(value = need_value(i))) return false;
      options.max_steps = std::strtoull(value, nullptr, 10);
    } else if (arg == "--budget") {
      if (!(value = need_value(i))) return false;
      options.budget = std::atoi(value);
    } else if (arg == "--time-budget") {
      if (!(value = need_value(i))) return false;
      options.time_budget = std::atof(value);
    } else if (arg == "--trace-out") {
      if (!(value = need_value(i))) return false;
      options.trace_out = value;
    } else if (arg == "--replay") {
      if (!(value = need_value(i))) return false;
      options.replay = value;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// --list: produced entirely from the registries.

std::string JoinTags(const Scenario& scenario) {
  std::string out;
  for (const std::string& tag : scenario.tags) {
    if (!out.empty()) out += ',';
    out += tag;
  }
  return out;
}

void PrintList(const Options& options) {
  const auto scenarios = options.tag.empty()
                             ? ScenarioRegistry::Instance().All()
                             : ScenarioRegistry::Instance().WithTag(options.tag);
  if (options.json) {
    std::string json = "{\"scenarios\":[";
    bool first = true;
    for (const Scenario* s : scenarios) {
      if (!first) json += ',';
      first = false;
      json += "{\"name\":\"" + JsonEscape(s->name) + "\",\"description\":\"" +
              JsonEscape(s->description) + "\",\"tags\":[";
      for (std::size_t i = 0; i < s->tags.size(); ++i) {
        if (i > 0) json += ',';
        json += '"' + JsonEscape(s->tags[i]) + '"';
      }
      json += "],\"params\":[";
      for (std::size_t i = 0; i < s->params.size(); ++i) {
        if (i > 0) json += ',';
        json += "{\"name\":\"" + JsonEscape(s->params[i].name) +
                "\",\"help\":\"" + JsonEscape(s->params[i].help) + "\"}";
      }
      json += "]}";
    }
    json += "],\"strategies\":[";
    bool sfirst = true;
    for (const auto& entry : StrategyRegistry::Instance().All()) {
      if (!sfirst) json += ',';
      sfirst = false;
      json += "{\"name\":\"" + JsonEscape(entry.name) + "\",\"description\":\"" +
              JsonEscape(entry.description) + "\"}";
    }
    json += "]}";
    std::printf("%s\n", json.c_str());
    return;
  }
  std::printf("registered scenarios%s:\n",
              options.tag.empty() ? "" : (" [tag=" + options.tag + "]").c_str());
  for (const Scenario* s : scenarios) {
    std::printf("  %-26s %s\n", s->name.c_str(), s->description.c_str());
    std::printf("  %-26s   tags: %s\n", "", JoinTags(*s).c_str());
    for (const ParamSpec& p : s->params) {
      std::printf("  %-26s   --param %s=...  %s\n", "", p.name.c_str(),
                  p.help.c_str());
    }
  }
  std::printf("\nregistered strategies (plus 'portfolio' to race them):\n");
  for (const auto& entry : StrategyRegistry::Instance().All()) {
    std::printf("  %-26s %s\n", entry.name.c_str(), entry.description.c_str());
  }
}

// ---------------------------------------------------------------------------
// Running one scenario through the TestSession facade.

SessionConfig BuildSessionConfig(const std::string& scenario,
                                 const Options& options) {
  SessionConfig config;
  config.scenario = scenario;
  config.strategy = options.strategy;
  config.threads = options.threads;
  for (const std::string& assign : options.params) {
    config.params.ParseAssign(assign);
  }
  if (options.seed_set) config.seed = options.seed;
  if (options.iterations > 0) config.iterations = options.iterations;
  if (options.max_steps > 0) config.max_steps = options.max_steps;
  if (options.budget >= 0) config.strategy_budget = options.budget;
  if (options.time_budget >= 0) config.time_budget_seconds = options.time_budget;
  if (options.stateful) config.stateful = true;
  if (options.max_visited >= 0) {
    config.max_visited = static_cast<std::uint64_t>(options.max_visited);
  }
  if (options.max_visited_hot >= 0) {
    config.max_visited_hot =
        static_cast<std::uint64_t>(options.max_visited_hot);
  }
  if (!options.visited_spill_dir.empty()) {
    config.visited_spill_dir = options.visited_spill_dir;
  }
  if (options.faults && options.replay.empty()) {
    // Each flag overrides exactly the budget it names; scenarios that carry
    // their own fault defaults keep everything untouched. Bare --faults only
    // arms crash/restart 1/1 when the RESOLVED config would otherwise have
    // no faults at all (SessionConfig::faults). Replay mode needs none of
    // this — the trace is the schedule.
    config.faults = true;
    if (options.max_crashes >= 0) {
      config.max_crashes = static_cast<std::uint64_t>(options.max_crashes);
    }
    if (options.max_restarts >= 0) {
      config.max_restarts = static_cast<std::uint64_t>(options.max_restarts);
    }
    if (options.drop_den >= 0) {
      config.drop_probability_den =
          static_cast<std::uint64_t>(options.drop_den);
    }
    if (options.max_dups >= 0) {
      config.max_duplications = static_cast<std::uint64_t>(options.max_dups);
    }
  }
  if (options.partitions && options.replay.empty()) {
    // Same shape as the crash-plane flags: bare --partitions only arms a
    // budget when the resolved config has none; replay derives the whole
    // partition schedule from the trace.
    config.partitions = true;
    if (options.max_partitions >= 0) {
      config.max_partitions =
          static_cast<std::uint64_t>(options.max_partitions);
    }
    if (options.heal_den >= 0) {
      config.partition_heal_den = static_cast<std::uint64_t>(options.heal_den);
    }
  }
  if (options.fault_points >= 0 && options.replay.empty()) {
    config.fault_placement_points = static_cast<int>(options.fault_points);
  }
  if (options.replay.empty()) {
    config.corpus_dir = options.corpus_dir;
    if (options.corpus_max >= 0) {
      config.corpus_max = static_cast<std::uint64_t>(options.corpus_max);
    }
  }
  config.readable_trace_on_bug = options.verbose;
  config.replay_file = options.replay;
  config.progress = options.progress;
  config.metrics_out = options.metrics_out;
  if (options.metrics_interval > 0) {
    config.metrics_interval_ms = options.metrics_interval;
  }
  config.coverage = options.coverage;
  return config;
}

/// With --all / --tag sweeps, "m.jsonl" becomes "m.<scenario>.jsonl" so each
/// scenario's time-series survives instead of the last run clobbering all.
std::string PerScenarioPath(const std::string& path,
                            const std::string& scenario) {
  const std::size_t dot = path.rfind('.');
  if (dot == std::string::npos || path.find('/', dot) != std::string::npos) {
    return path + "." + scenario;
  }
  return path.substr(0, dot) + "." + scenario + path.substr(dot);
}

int RunOne(const std::string& scenario, const Options& options,
           bool multi_scenario) {
  SessionConfig config = BuildSessionConfig(scenario, options);
  if (multi_scenario && !config.metrics_out.empty()) {
    config.metrics_out = PerScenarioPath(config.metrics_out, scenario);
  }
  if (multi_scenario && !config.corpus_dir.empty()) {
    // A subdirectory, not a name suffix: the corpus path is a directory, and
    // corpora from different scenarios must never mix (their traces replay
    // different machines).
    config.corpus_dir += "/" + scenario;
  }
  std::string trace_out = options.trace_out;
  if (multi_scenario && !trace_out.empty()) {
    // Same fan-out as metrics: "bug.trace" becomes "bug.<scenario>.trace" so
    // each scenario's witness survives the sweep.
    trace_out = PerScenarioPath(trace_out, scenario);
  }
  TestSession session(std::move(config));
  systest::api::HumanReporter human(stdout, options.verbose);
  systest::api::JsonReporter json(stdout);
  if (options.json) {
    session.AddObserver(&json);
  } else {
    session.AddObserver(&human);
  }

  const SessionReport report = session.Run();

  // Gated on the REPORT's stateful flag, not the requested one: replay mode
  // never dedups, so printing zeros there would read as a measurement.
  if (options.fingerprint_stats && !options.json && report.report.stateful) {
    const systest::TestReport& r = report.report;
    std::printf(
        "fingerprint stats:\n"
        "  distinct states     %llu\n"
        "  pruned executions   %llu of %llu\n"
        "  fingerprint hits    %llu\n"
        "  fingerprint misses  %llu\n"
        "  hit rate            %.2f%%\n",
        static_cast<unsigned long long>(r.distinct_states),
        static_cast<unsigned long long>(r.pruned_executions),
        static_cast<unsigned long long>(r.executions),
        static_cast<unsigned long long>(r.fingerprint_hits),
        static_cast<unsigned long long>(r.fingerprint_misses),
        r.FingerprintHitRate() * 100.0);
    std::printf(
        "  hot entries         %llu\n"
        "  run entries         %llu in %llu runs\n"
        "  compactions         %llu (%llu merges)\n"
        "  spilled             %llu runs, %llu bytes\n"
        "  bloom probes        %llu true-positive, %llu false-positive\n",
        static_cast<unsigned long long>(r.visited.hot_entries),
        static_cast<unsigned long long>(r.visited.run_entries),
        static_cast<unsigned long long>(r.visited.runs),
        static_cast<unsigned long long>(r.visited.compactions),
        static_cast<unsigned long long>(r.visited.merges),
        static_cast<unsigned long long>(r.visited.spilled_runs),
        static_cast<unsigned long long>(r.visited.spilled_bytes),
        static_cast<unsigned long long>(r.visited.bloom_true_positives),
        static_cast<unsigned long long>(r.visited.bloom_false_positives));
  }

  if (!options.replay.empty()) {
    if (!report.replay_verified) return 1;  // reporter already explained
    return 0;
  }

  if (!trace_out.empty()) {
    // Status goes to stderr in --json mode so stdout stays one JSON line
    // per run.
    std::FILE* status = options.json ? stderr : stdout;
    if (report.report.bug_found) {
      report.report.bug_trace.SaveFile(trace_out);
      std::fprintf(status, "bug trace written to %s (replay with --replay)\n",
                   trace_out.c_str());
    } else {
      std::fprintf(status, "no bug found; %s not written\n",
                   trace_out.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, options)) {
    PrintUsage(argv[0]);
    return 2;
  }
  if (options.list) {
    PrintList(options);
    return 0;
  }

  std::vector<std::string> targets;
  if (!options.scenario.empty()) {
    targets.push_back(options.scenario);
  } else if (options.all || !options.tag.empty()) {
    const auto scenarios =
        options.all ? ScenarioRegistry::Instance().All()
                    : ScenarioRegistry::Instance().WithTag(options.tag);
    for (const Scenario* s : scenarios) targets.push_back(s->name);
    if (targets.empty()) {
      std::fprintf(stderr, "error: no scenario carries tag '%s'\n",
                   options.tag.c_str());
      return 2;
    }
  } else {
    PrintUsage(argv[0]);
    return 2;
  }
  int exit_code = 0;
  for (const std::string& target : targets) {
    if (targets.size() > 1 && !options.json) {
      std::printf("=== %s ===\n", target.c_str());
    }
    try {
      const int code = RunOne(target, options, targets.size() > 1);
      if (code != 0) exit_code = code;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      exit_code = 2;
    }
    if (targets.size() > 1 && !options.json) std::printf("\n");
  }
  return exit_code;
}
