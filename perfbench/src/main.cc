// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>] [--force]
//
// --trace 0 runs every job of the workload once through api::TestSession,
// then repeats its fixed-budget jobs in measured rounds, interleaved with
// set-up probes, for the rest of about --seconds, and reports the
// end-to-end metrics. --trace 1 runs one untraced pass, then one traced
// pass through the layers' own entry points, and reports the per-layer
// metrics plus the tracing overhead. Both check the outputs: every witness
// replays, every clean job stays clean, and every seed-determined count
// repeats exactly across rounds and between the traced and untraced runs.
//
// Human-readable tables go to stdout; the last stdout line is
// "PERFBENCH_REPORT <json>" with every metric, its unit and its base.
// Exit status: 0 when every check passed, 1 when one failed, 2 on a usage
// or build error.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "driver.h"
#include "reference.h"
#include "spans.h"
#include "stats.h"
#include "timed.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Measured rounds of the fixed-budget jobs after pass 1, at the least.
constexpr int kMinRounds = 3;
/// Set-up probe rounds, at the least.
constexpr int kMinSetupRounds = 9;
/// Share of the measured rounds' time spent probing set-up.
constexpr double kSetupShare = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string commit = "unknown";
  bool force = false;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>] [--force]\n",
               why.c_str());
  std::exit(2);
}

Options Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--force") {
      o.force = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        o.workload = value;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
      } else if (arg == "--trace") {
        o.trace = std::stoi(value) != 0;
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else if (arg == "--commit") {
        o.commit = value;
      } else {
        Usage("unknown argument " + arg);
      }
    } catch (const std::exception&) {
      Usage("bad value '" + value + "' for " + arg);
    }
  }
  if (o.workload.empty()) Usage("--workload is required");
  return o;
}

int AvailableCores() {
#if defined(__linux__)
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
#endif
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (const double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string base;  ///< what the value was computed from
};

using Results = std::vector<JobResult>;

bool IsParallel(const Job& job) { return job.cfg.threads > 1; }

// ---------------------------------------------------------------------------
// End-to-end metrics of the untraced run.

struct Measured {
  double exec_per_s = 0.0;
  double steps_per_s = 0.0;
  double states_per_s = 0.0;
  std::uint64_t distinct_states = 0;
  std::vector<TrialOutcome> trials;
  RatioWithBase false_alarm;
};

/// `first` is the first pass (every job); `walls[i]` holds job i's wall
/// time in each measured round. Throughput uses each fixed-budget job's
/// median over the rounds; the stop-on-first-bug trials, whose work
/// depends on when a seed happens to hit the bug, only feed the time-to-bug
/// metrics.
Measured Measure(const Workload& w, const Results& first,
                 const std::vector<std::vector<double>>& walls) {
  Measured m;
  double execs = 0.0;
  double steps = 0.0;
  double wall = 0.0;
  double stateful_wall = 0.0;
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const Job& job = w.jobs[i];
    const JobResult& r = first[i];
    if (job.kind == JobKind::kBugTrial) {
      TrialOutcome t;
      t.found = r.bug_found;
      // Session wall time: per-trial set-up plus search, as a user waits it.
      t.seconds = r.wall_s;
      t.execs_to_bug = r.bug_iteration;
      t.cap = job.cfg.iterations.value_or(0);
      m.trials.push_back(t);
      continue;
    }
    const double job_wall = Median(walls[i]);
    execs += static_cast<double>(r.executions);
    steps += static_cast<double>(r.steps);
    wall += job_wall;
    if (r.stateful) {
      m.distinct_states += r.distinct_states;
      stateful_wall += job_wall;
    }
    if (job.kind == JobKind::kControl) {
      m.false_alarm.den += 1;
      if (r.bug_found) m.false_alarm.num += 1;
    }
  }
  m.exec_per_s = wall > 0 ? execs / wall : 0.0;
  m.steps_per_s = wall > 0 ? steps / wall : 0.0;
  m.states_per_s =
      stateful_wall > 0 ? static_cast<double>(m.distinct_states) / stateful_wall
                        : 0.0;
  return m;
}

// ---------------------------------------------------------------------------
// Output checks.

struct Checks {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  RatioWithBase replay_fail;

  void Fail(const std::string& what) {
    failures.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
};

/// Clean-job, witness and budget checks on one pass; also feeds the
/// core.trace layer figures when a recorder is given.
void CheckPass(const Workload& w, const Results& results, Checks& checks,
               SpanRecorder* rec, LayerStats* stats) {
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const Job& job = w.jobs[i];
    const JobResult& r = results[i];
    const std::uint64_t budget = job.cfg.iterations.value_or(0);
    if (job.kind == JobKind::kSweep && r.executions != budget) {
      checks.Fail(job.label + " ran " + std::to_string(r.executions) +
                  " of its " + std::to_string(budget) + " executions");
    }
    if (job.kind != JobKind::kBugTrial && job.kind != JobKind::kSweep) {
      if (r.bug_found) {
        checks.Fail(job.label + " must stay clean but reported: " +
                    r.bug_message);
      }
      if (!r.bug_found && r.executions != budget) {
        checks.Fail(job.label + " ran " + std::to_string(r.executions) +
                    " of its " + std::to_string(budget) + " executions");
      }
      continue;
    }
    if (!r.bug_found) continue;
    checks.replay_fail.den += 1;
    const std::uint32_t trial = static_cast<std::uint32_t>(i);
    const ReplayOutcome outcome = CheckWitness(job, r, rec, 0, trial);
    if (stats != nullptr) {
      stats->serialize_ns.push_back(static_cast<double>(outcome.serialize_ns));
      stats->deserialize_ns.push_back(
          static_cast<double>(outcome.deserialize_ns));
      stats->replay_ns.push_back(static_cast<double>(outcome.replay_ns));
      stats->ndc.push_back(static_cast<double>(r.witness.Size()));
    }
    if (!outcome.ok) {
      checks.replay_fail.num += 1;
      checks.Fail(job.label + " witness: " + outcome.why);
    }
  }
}

void CheckSame(const Workload& w, const Results& a, const Results& b,
               const std::string& what, Checks& checks) {
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    const bool parallel = IsParallel(w.jobs[i]);
    const std::string sa = a[i].Signature(parallel);
    const std::string sb = b[i].Signature(parallel);
    if (sa != sb) {
      checks.Fail(w.jobs[i].label + ": " + what + " differ (" + sa + " vs " +
                  sb + ")");
    }
  }
}

// ---------------------------------------------------------------------------
// Set-up time.

/// Probes every set-up shape of a workload once per round; setup_s is the
/// median of the round totals, each scaled to the reference host speed
/// measured just before it. Rounds are interleaved with the measured
/// throughput rounds so that both sample the whole run.
class SetupProbe {
 public:
  SetupProbe(const Workload& w, std::string work_dir)
      : work_dir_(std::move(work_dir)) {
    std::map<std::string, bool> seen;
    for (const Job& job : w.jobs) {
      if (seen.emplace(job.shape, true).second) shapes_.push_back(&job);
    }
  }

  void Round() {
    const auto round = static_cast<std::uint64_t>(raw_.size());
    const double reference = ReferenceSeconds(1, ReferenceRuns(last_round_s_));
    const std::int64_t t0 = NowNs();
    double total = 0.0;
    for (const Job* job : shapes_) {
      // A resumed shape reloads the corpus its own campaign saved.
      total += ProbeSetup(*job, round,
                          job->fresh_corpus_dir ? "" : job->cfg.corpus_dir,
                          work_dir_ + "/probe-corpus");
    }
    last_round_s_ = static_cast<double>(NowNs() - t0) / 1e9;
    raw_.push_back(total);
    scaled_.push_back(total * kReferenceSeconds / reference);
  }

  [[nodiscard]] std::size_t Rounds() const { return raw_.size(); }
  [[nodiscard]] const std::vector<double>& Raw() const { return raw_; }
  [[nodiscard]] const std::vector<double>& Scaled() const { return scaled_; }

 private:
  std::string work_dir_;
  std::vector<const Job*> shapes_;
  double last_round_s_ = 0.0;
  std::vector<double> raw_;
  std::vector<double> scaled_;
};

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced pass.

/// Runner time per step net of every timed child and of the timers.
double StepNs(const LayerStats& s, const TimerCost& timer) {
  if (s.serial_steps == 0) {
    // Parallel jobs expose no child timings: undecomposed time per step.
    double total = 0.0;
    for (const double ns : s.exec_ns) total += ns;
    return s.steps == 0 ? 0.0 : total / static_cast<double>(s.steps);
  }
  const double children = static_cast<double>(s.decide_ns + s.prepare_ns +
                                              s.insert_ns + s.harness_ns);
  const double child_calls = static_cast<double>(
      s.decisions + s.prepares + s.timed_inserts + s.harness_calls);
  const double self = static_cast<double>(s.runner_ns) - children -
                      child_calls * timer.outside_ns;
  return std::max(0.0, self) / static_cast<double>(s.serial_steps);
}

double NetPerCall(std::int64_t ns, std::uint64_t calls,
                  const TimerCost& timer) {
  if (calls == 0) return 0.0;
  return std::max(0.0, static_cast<double>(ns) / static_cast<double>(calls) -
                           timer.inside_ns);
}

std::string Count(double n) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "n=%.0f", n);
  return buf;
}

std::vector<Metric> LayerMetrics(const LayerStats& s, const LayerStats& twin_main,
                                 const LayerStats& twin, const TimerCost& timer,
                                 double untraced_exec_per_s,
                                 double traced_exec_per_s) {
  std::vector<Metric> m;
  auto add = [&m](std::string name, std::string unit, double value,
                  std::string base) {
    m.push_back({std::move(name), std::move(unit), value, std::move(base)});
  };
  auto ratio = [&add](std::string name, double num, double den) {
    const RatioWithBase r{num, den};
    add(std::move(name), "ratio", r.Value(), r.Format());
  };
  const double execs = static_cast<double>(s.executions);
  const double steps = static_cast<double>(s.steps);

  add("api.resolve_ms", "ms", Mean(s.resolve_ns) / 1e6,
      Count(static_cast<double>(s.resolve_ns.size())) + " sessions");
  add("harness.build_ms", "ms",
      NetPerCall(s.harness_ns, s.harness_calls, timer) / 1e6,
      Count(static_cast<double>(s.harness_calls)) + " harness calls");
  ratio("harness.calls_per_exec", static_cast<double>(s.harness_calls), execs);
  add("runner.first_exec_ms", "ms", Mean(s.first_exec_ns) / 1e6,
      Count(static_cast<double>(s.first_exec_ns.size())) + " runners");
  add("runner.exec_us_p50", "us", Percentile(s.exec_ns, 50) / 1e3,
      Count(static_cast<double>(s.exec_ns.size())) + " executions");
  add("runner.exec_us_p99", "us", Percentile(s.exec_ns, 99) / 1e3,
      Count(static_cast<double>(s.exec_ns.size())) + " executions");
  ratio("runner.recycled_ratio", static_cast<double>(s.recycled),
        static_cast<double>(s.serial_executions));
  add("runtime.step_ns", "ns", StepNs(s, timer),
      Count(steps) + " steps");
  ratio("runtime.steps_per_exec", steps, execs);
  ratio("faults.per_exec", static_cast<double>(s.faults), execs);
  add("strategy.decide_ns", "ns", NetPerCall(s.decide_ns, s.decisions, timer),
      Count(static_cast<double>(s.decisions)) + " decisions");
  ratio("strategy.decisions_per_step", static_cast<double>(s.decisions),
        static_cast<double>(s.serial_steps));
  add("strategy.prepare_us", "us",
      NetPerCall(s.prepare_ns, s.prepares, timer) / 1e3,
      Count(static_cast<double>(s.prepares)) + " iterations");
  add("visited.insert_ns", "ns",
      NetPerCall(s.insert_ns, s.timed_inserts, timer),
      Count(static_cast<double>(s.timed_inserts)) + " timed inserts");
  ratio("visited.inserts_per_step", static_cast<double>(s.inserts), steps);
  ratio("visited.hit_ratio", static_cast<double>(s.insert_hits),
        static_cast<double>(s.inserts));
  ratio("visited.prune_ratio", static_cast<double>(s.pruned),
        static_cast<double>(s.stateful_executions));
  add("visited.compactions", "count", static_cast<double>(s.compactions),
      "hot-level flushes");
  ratio("visited.bloom_fp_ratio", static_cast<double>(s.bloom_fp),
        static_cast<double>(s.run_probes));
  const double refresh = twin.serial_steps == 0
                             ? 0.0
                             : std::max(0.0, StepNs(twin_main, timer) -
                                                 StepNs(twin, timer));
  add("fingerprint.refresh_ns", "ns", refresh,
      twin.serial_steps == 0
          ? std::string("n/a (no stateless twin)")
          : Count(static_cast<double>(twin_main.serial_steps)) +
                " stateful steps vs " +
                Count(static_cast<double>(twin.serial_steps)) +
                " stateless steps");
  add("trace.serialize_us", "us", Mean(s.serialize_ns) / 1e3,
      Count(static_cast<double>(s.serialize_ns.size())) + " witnesses");
  add("trace.deserialize_us", "us", Mean(s.deserialize_ns) / 1e3,
      Count(static_cast<double>(s.deserialize_ns.size())) + " witnesses");
  add("trace.replay_ms", "ms", Mean(s.replay_ns) / 1e6,
      Count(static_cast<double>(s.replay_ns.size())) + " witnesses");
  add("trace.ndc_p50", "count", Median(s.ndc),
      Count(static_cast<double>(s.ndc.size())) + " witnesses");
  add("corpus.add_us", "us",
      NetPerCall(s.corpus_add_ns, s.corpus_adds, timer) / 1e3,
      Count(static_cast<double>(s.corpus_adds)) + " adds");
  ratio("corpus.accept_ratio", static_cast<double>(s.corpus_accepted),
        static_cast<double>(s.corpus_adds));
  add("corpus.entries", "count", static_cast<double>(s.corpus_entries),
      "saved corpus size");
  add("corpus.save_ms", "ms", Mean(s.corpus_save_ns) / 1e6,
      Count(static_cast<double>(s.corpus_save_ns.size())) + " saves");
  add("corpus.load_ms", "ms", Mean(s.corpus_load_ns) / 1e6,
      Count(static_cast<double>(s.corpus_load_ns.size())) + " loads");
  const double par_rate =
      s.parallel_wall_s > 0 ? s.parallel_execs / s.parallel_wall_s : 0.0;
  const double one_rate =
      s.single_wall_s > 0 ? s.single_execs / s.single_wall_s : 0.0;
  {
    const RatioWithBase r{par_rate, one_rate};
    char base[128];
    std::snprintf(base, sizeof(base), "%.0f exec/s at N workers / %.0f at 1",
                  par_rate, one_rate);
    add("explore.scaling", "ratio", r.Value(), base);
  }
  {
    const RatioWithBase r{s.worker_busy_s, s.worker_capacity_s};
    add("explore.busy_ratio", "ratio", r.Value(),
        r.den == 0 ? r.Format() : "worker-seconds / (workers x wall)");
  }
  add("explore.imbalance", "ratio", s.imbalance,
      "max / min worker exec/s, worst job");
  add("explore.shard_compactions", "count",
      static_cast<double>(s.shard_compactions), "sharded hot-level flushes");
  add("obs.overhead_ratio", "ratio",
      s.obs_ratio.empty() ? 0.0 : Median(s.obs_ratio) - 1.0,
      Count(static_cast<double>(s.obs_ratio.size())) +
          " paired slices, median on/off - 1");
  {
    char base[128];
    std::snprintf(base, sizeof(base),
                  "untraced %.0f exec/s vs traced %.0f exec/s",
                  untraced_exec_per_s, traced_exec_per_s);
    add("bench.trace_overhead", "ratio",
        traced_exec_per_s > 0 ? untraced_exec_per_s / traced_exec_per_s - 1.0
                              : 0.0,
        base);
  }
  return m;
}

void PrintMetrics(const std::string& title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title.c_str());
  for (const Metric& m : ms) {
    std::printf("  %-28s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

void PrintLayerTable(const SpanRecorder& rec) {
  const auto layers = rec.ByLayer();
  std::int64_t total = 0;
  for (const auto& [layer, t] : layers) total += t.self_ns;
  std::printf("\nself time by layer (span minus child spans)\n");
  std::printf("  %-18s %14s %12s %7s\n", "layer", "calls", "self ms", "share");
  for (const auto& [layer, t] : layers) {
    std::printf("  %-18s %14llu %12.3f %6.1f%%\n", layer.c_str(),
                static_cast<unsigned long long>(t.calls),
                static_cast<double>(t.self_ns) / 1e6,
                total > 0 ? 100.0 * static_cast<double>(t.self_ns) /
                                static_cast<double>(total)
                          : 0.0);
  }
  std::printf("  (core.runner self time is the runtime's step loop, reset "
              "and obs flush; bench is the benchmark's own bookkeeping)\n");
}

int Run(const Options& opt) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && !opt.force) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build (use --force)\n",
                 build_type.c_str());
    return 2;
  }
  const int cores = AvailableCores();
  const int workers = std::max(1, std::min(4, cores));
  const std::string work_dir = opt.out_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed);
  fs::create_directories(work_dir);
  Workload w;
  try {
    w = MakeWorkload(opt.workload, opt.seed, work_dir, workers);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("  why: %s\n", w.why.c_str());
  std::printf("  hw: nproc=%u cores=%d compiler=\"%s\" build=%s commit=%s "
              "parallel-workers=%d\n",
              std::thread::hardware_concurrency(), cores, __VERSION__,
              build_type.c_str(), opt.commit.c_str(), workers);
  std::fflush(stdout);

  Checks checks;
  // Pass 1 runs every job: it feeds the output checks and the time-to-bug
  // figures, and warms caches and allocators. Untraced, the rest of
  // --seconds alternates measured rounds, which repeat only the
  // fixed-budget jobs (their counts must repeat pass 1's exactly), with
  // set-up probe rounds, which get kSetupShare of the time. Both run at
  // least their minimum number of rounds.
  Results first;
  std::vector<std::vector<double>> walls(w.jobs.size());
  std::vector<std::vector<double>> scaled_walls(w.jobs.size());
  std::vector<double> factors;  ///< per measured round
  const std::int64_t start = NowNs();
  for (const Job& job : w.jobs) {
    first.push_back(RunUntraced(job));
    ++checks.attempted;
  }
  SetupProbe setup(w, work_dir);
  int rounds = 0;
  double round_s = 0.0;
  double setup_s = 0.0;
  auto elapsed = [start] { return static_cast<double>(NowNs() - start) / 1e9; };
  while (!opt.trace &&
         (rounds < kMinRounds ||
          static_cast<int>(setup.Rounds()) < kMinSetupRounds ||
          elapsed() < opt.seconds)) {
    const std::int64_t t0 = NowNs();
    if (rounds >= kMinRounds &&
        setup_s < kSetupShare * (setup_s + round_s)) {
      setup.Round();
      setup_s += static_cast<double>(NowNs() - t0) / 1e9;
      continue;
    }
    ++rounds;
    // Each job is bracketed by kernel readings, taken with its thread count
    // and more runs for longer jobs; the reading after one job serves as
    // the reading before the next when both take it alike.
    double before = 0.0;
    std::pair<int, int> before_shape{0, 0};  ///< threads, runs
    double factor_sum = 0.0;
    int jobs = 0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      if (w.jobs[i].kind == JobKind::kBugTrial) continue;
      const std::pair<int, int> shape{w.jobs[i].cfg.threads,
                                      ReferenceRuns(first[i].wall_s)};
      if (shape != before_shape) {
        before = ReferenceSeconds(shape.first, shape.second);
      }
      const JobResult r = RunUntraced(w.jobs[i]);
      const double after = ReferenceSeconds(shape.first, shape.second);
      const double factor = kReferenceSeconds / ((before + after) / 2.0);
      before = after;
      before_shape = shape;
      factor_sum += factor;
      ++jobs;
      ++checks.attempted;
      walls[i].push_back(r.wall_s);
      scaled_walls[i].push_back(r.wall_s * factor);
      const bool parallel = IsParallel(w.jobs[i]);
      if (r.Signature(parallel) != first[i].Signature(parallel)) {
        checks.Fail(w.jobs[i].label + ": counts of pass 1 and round " +
                    std::to_string(rounds) + " differ (" +
                    first[i].Signature(parallel) + " vs " +
                    r.Signature(parallel) + ")");
      }
    }
    factors.push_back(factor_sum / jobs);
    round_s += static_cast<double>(NowNs() - t0) / 1e9;
  }
  if (opt.trace) {
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      walls[i].push_back(first[i].wall_s);
    }
    scaled_walls = walls;
    std::printf("  untraced pass 1 in %.2fs\n", elapsed());
  } else {
    std::printf("  pass 1, %d measured round(s) and %zu set-up round(s) in "
                "%.2fs; host speed factor %.3f (median over rounds)\n",
                rounds, setup.Rounds(), elapsed(), Median(factors));
  }
  CheckPass(w, first, checks, nullptr, nullptr);
  const Measured measured = Measure(w, first, scaled_walls);
  const Measured raw = Measure(w, first, walls);

  std::vector<Metric> metrics;
  auto add = [&metrics](std::string name, std::string unit, double value,
                        std::string base) {
    metrics.push_back(
        {std::move(name), std::move(unit), value, std::move(base)});
  };
  const std::string rounds_base =
      "fixed-budget jobs, median wall of " + std::to_string(rounds) +
      " measured round(s)";
  const std::string scaled = ", at reference host speed";
  const std::string unscaled = ", unscaled wall time";

  if (!opt.trace) {
    const std::string base = "median of " + std::to_string(setup.Rounds()) +
                             " rounds, summed over set-up shapes";
    add("setup_s", "s", Median(setup.Scaled()), base + scaled);
    add("raw_setup_s", "s", Median(setup.Raw()), base + unscaled);
  }
  add("exec_per_s", "1/s", measured.exec_per_s, rounds_base + scaled);
  add("steps_per_s", "1/s", measured.steps_per_s, rounds_base + scaled);
  if (!opt.trace) {
    add("raw_exec_per_s", "1/s", raw.exec_per_s, rounds_base + unscaled);
    add("raw_steps_per_s", "1/s", raw.steps_per_s, rounds_base + unscaled);
  }
  if (w.stateful) {
    add("states_per_s", "1/s", measured.states_per_s, rounds_base + scaled);
    add("distinct_states", "count",
        static_cast<double>(measured.distinct_states),
        IsParallel(w.jobs[0]) ? "sum over jobs (parallel: not exact)"
                              : "sum over jobs (exact, serial)");
  }
  if (w.bug_hunting) {
    std::vector<double> ttb;
    std::vector<double> execs;
    double misses = 0.0;
    for (const TrialOutcome& t : measured.trials) {
      ttb.push_back(t.seconds);
      execs.push_back(static_cast<double>(ChargedExecutions(t)));
      if (!t.found) misses += 1;
    }
    const std::size_t n = execs.size();
    add("ttb_p50_s", "s", Percentile(ttb, 50),
        Count(static_cast<double>(n)) + " trials, misses charged their cap");
    if (HighestSupportedPercentile(n) >= 90.0) {
      char base[96];
      std::snprintf(base, sizeof(base), "%s trials; %.0f samples beyond p90",
                    Count(static_cast<double>(n)).c_str(),
                    std::floor(static_cast<double>(n) * 0.1));
      add("ttb_p90_s", "s", Percentile(ttb, 90), base);
    }
    add("execs_to_bug_p50", "count", Percentile(execs, 50),
        Count(static_cast<double>(n)) + " trials (exact for the seed)");
    const RatioWithBase miss{misses, static_cast<double>(n)};
    add("miss_ratio", "ratio", miss.Value(), miss.Format());
    if (measured.false_alarm.den > 0) {
      add("false_alarm_ratio", "ratio", measured.false_alarm.Value(),
          measured.false_alarm.Format());
    }
    add("replay_fail_ratio", "ratio", checks.replay_fail.Value(),
        checks.replay_fail.Format());
  }

  SpanRecorder rec(w.name);
  if (opt.trace) {
    const TimerCost timer = CalibrateTimer();
    LayerStats stats;
    LayerStats twin_main;
    LayerStats twin;
    TracedContext ctx{rec, stats, twin_main, twin};
    Results traced;
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    double execs = 0.0;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      traced.push_back(
          RunTraced(w.jobs[i], static_cast<std::uint32_t>(i), ctx));
      ++checks.attempted;
      untraced_wall += first[i].wall_s;
      traced_wall += traced.back().wall_s;
      execs += static_cast<double>(first[i].executions);
    }
    CheckSame(w, first, traced, "untraced and traced counts", checks);
    Checks traced_checks;
    CheckPass(w, traced, traced_checks, &rec, &stats);
    for (const std::string& f : traced_checks.failures) {
      checks.failures.push_back("traced: " + f);
    }
    metrics.clear();
    // Same jobs, same executions: the exec/s ratio is the wall-time ratio.
    metrics = LayerMetrics(stats, twin_main, twin, timer,
                           untraced_wall > 0 ? execs / untraced_wall : 0.0,
                           traced_wall > 0 ? execs / traced_wall : 0.0);
    PrintLayerTable(rec);
    std::printf("  timer cost: %.1f ns inside / %.1f ns outside each timed "
                "call (subtracted from per-call figures)\n",
                timer.inside_ns, timer.outside_ns);
  }
  add("peak_rss_mb", "MB", PeakRssMb(), "getrusage ru_maxrss of this process");
  PrintMetrics(opt.trace ? "per-layer metrics (traced run)"
                         : "end-to-end metrics (untraced run)",
               metrics);

  const std::string spans_path = opt.out_dir + "/spans-" + w.name + "-seed" +
                                 std::to_string(opt.seed) + ".jsonl";
  if (opt.trace && !rec.WriteJsonLines(spans_path)) {
    checks.Fail("cannot write spans to " + spans_path);
  }

  const bool correct = checks.failures.empty();
  std::string json = "{\"workload\":\"" + JsonEscape(w.name) + "\"";
  json += ",\"seed\":" + std::to_string(opt.seed);
  json += ",\"trace\":" + std::string(opt.trace ? "1" : "0");
  json += ",\"correct\":" + std::string(correct ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(checks.attempted);
  json += ",\"failed\":" + std::to_string(checks.failures.size());
  json += ",\"measured_rounds\":" + std::to_string(rounds);
  json += ",\"provenance\":{\"nproc\":" +
          std::to_string(std::thread::hardware_concurrency()) +
          ",\"cores\":" + std::to_string(cores) + ",\"compiler\":\"" +
          JsonEscape(__VERSION__) + "\",\"build_type\":\"" +
          JsonEscape(build_type) + "\",\"commit\":\"" +
          JsonEscape(opt.commit) +
          "\",\"parallel_workers\":" + std::to_string(workers) + "}";
  json += ",\"trial_seeds\":[";
  for (std::size_t i = 0; i < w.trial_seeds.size(); ++i) {
    if (i > 0) json += ",";
    json += std::to_string(w.trial_seeds[i]);
  }
  json += "]";
  {
    // Interference within the run: the spread of the scaled round times,
    // wall time of each measured round, and each set-up round's total.
    auto list = [](const std::vector<double>& xs) {
      std::string out = "[";
      for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i > 0) out += ',';
        out += Num(xs[i]);
      }
      return out + "]";
    };
    std::vector<double> totals;
    std::vector<double> scaled_totals;
    for (int r = 0; r < rounds; ++r) {
      double total = 0.0;
      double scaled_total = 0.0;
      for (std::size_t i = 0; i < w.jobs.size(); ++i) {
        if (w.jobs[i].kind == JobKind::kBugTrial) continue;
        total += walls[i][r];
        scaled_total += scaled_walls[i][r];
      }
      totals.push_back(total);
      scaled_totals.push_back(scaled_total);
    }
    const Quartiles q = QuartilesOf(scaled_totals);
    json += ",\"scaled_round_iqr_over_median\":" +
            Num(q.q2 > 0 ? (q.q3 - q.q1) / q.q2 : 0.0);
    json += ",\"round_seconds\":" + list(totals);
    json += ",\"round_host_speed_factors\":" + list(factors);
    json += ",\"setup_round_seconds\":" + list(setup.Raw());
    json += ",\"fixed_budget_jobs\":[";
    bool any = false;
    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      if (w.jobs[i].kind == JobKind::kBugTrial) continue;
      json += std::string(any ? "," : "") + "{\"label\":\"" +
              JsonEscape(w.jobs[i].label) +
              "\",\"executions\":" + std::to_string(first[i].executions) +
              ",\"steps\":" + std::to_string(first[i].steps) +
              ",\"round_seconds\":" + list(walls[i]) + "}";
      any = true;
    }
    json += "]";
  }
  json += ",\"failures\":[";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    json += i > 0 ? ",\"" : "\"";
    json += JsonEscape(checks.failures[i]);
    json += '"';
  }
  json += "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ",";
    const Metric& m = metrics[i];
    json += "\"" + m.name + "\":{\"value\":" + Num(m.value) + ",\"unit\":\"" +
            m.unit + "\",\"base\":\"" + JsonEscape(m.base) + "\"}";
  }
  json += "}}";
  std::printf("PERFBENCH_REPORT %s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::Parse(argc, argv);
  try {
    return perfbench::Run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
