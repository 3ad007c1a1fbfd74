#include "core/engine.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "api/strategy_registry.h"
#include "core/event_arena.h"
#include "corpus/trace_corpus.h"
#include "obs/campaign.h"

namespace systest {

namespace {
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

std::string TestReport::Summary() const {
  std::string out;
  if (bug_found) {
    out += "BUG[" + std::string(ToString(bug_kind)) + "] iter=" +
           std::to_string(bug_iteration) + " time=" +
           std::to_string(seconds_to_bug) + "s ndc=" + std::to_string(ndc) +
           " :: " + bug_message;
  } else {
    out += "no bug in " + std::to_string(executions) + " executions (" +
           std::to_string(total_seconds) + "s)";
  }
  if (stateful) {
    char stats[96];
    std::snprintf(stats, sizeof(stats),
                  " [stateful: distinct=%llu pruned=%llu hit-rate=%.1f%%]",
                  static_cast<unsigned long long>(distinct_states),
                  static_cast<unsigned long long>(pruned_executions),
                  FingerprintHitRate() * 100.0);
    out += stats;
  }
  if (faults) {
    char stats[192];
    std::snprintf(
        stats, sizeof(stats),
        " [faults: crashes=%llu restarts=%llu drops=%llu dups=%llu "
        "partitions=%llu heals=%llu]",
        static_cast<unsigned long long>(injected_faults.crashes),
        static_cast<unsigned long long>(injected_faults.restarts),
        static_cast<unsigned long long>(injected_faults.drops),
        static_cast<unsigned long long>(injected_faults.duplications),
        static_cast<unsigned long long>(injected_faults.partitions),
        static_cast<unsigned long long>(injected_faults.heals));
    out += stats;
  }
  return out;
}

void TestConfig::Validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("invalid TestConfig: " + what);
  };
  if (iterations == 0) {
    fail("iterations == 0 (the engine would explore nothing)");
  }
  if (max_steps == 0) {
    fail("max_steps == 0 (every execution would stop before its first step)");
  }
  if (strategy.empty()) {
    fail("strategy name is empty");
  }
  if (time_budget_seconds < 0) {
    fail("time_budget_seconds is negative (use 0 for unlimited)");
  }
  if (liveness_temperature_threshold > max_steps) {
    fail("liveness_temperature_threshold (" +
         std::to_string(liveness_temperature_threshold) +
         ") exceeds max_steps (" + std::to_string(max_steps) +
         "): no execution could ever get hot enough to report");
  }
  if (fingerprint_payloads && !stateful) {
    fail("fingerprint_payloads without stateful (payload hashing only "
         "happens inside stateful exploration)");
  }
  if (stateful && max_visited == 0) {
    fail("stateful with max_visited == 0 (a frozen-empty visited set could "
         "never record a state, making stateful a silent no-op)");
  }
  if (stateful && max_visited_hot == 0) {
    fail("stateful with max_visited_hot == 0 (the hot level is where every "
         "novel state lands first; a zero-sized front could never accept "
         "one)");
  }
  if (!visited_spill_dir.empty() && !stateful) {
    fail("visited_spill_dir without stateful (there is no visited set to "
         "spill; the directory would silently never be used)");
  }
  if (stateful && prune_run == 0) {
    fail("stateful with prune_run == 0 (every execution would be pruned at "
         "its first revisited state — including the initial state every "
         "iteration shares)");
  }
  if (max_restarts > 0 && max_crashes == 0) {
    fail("max_restarts > 0 with max_crashes == 0 (nothing can ever crash, "
         "so no restart could ever fire)");
  }
  if (drop_probability_den == 1) {
    fail("drop_probability_den == 1 (every message would be dropped and no "
         "protocol could make progress; use 0 to disable drops)");
  }
  if (partition_heal_den == 1) {
    fail("partition_heal_den == 1 (every partition would heal on the very "
         "next step, making partitions one-step blips; use 0 to disable "
         "heals or >= 2 for a real outage window)");
  }
  if (FaultsEnabled() && fault_odds_den < 2) {
    fail("fault_odds_den < 2 with faults enabled (budgeted faults would all "
         "fire at the first eligible point, exploring a single failure "
         "schedule)");
  }
  if (fault_placement_points < 0) {
    fail("fault_placement_points is negative (use 0 for geometric placement)");
  }
  if (fault_placement_points > 0 && max_crashes == 0 && max_partitions == 0) {
    fail("fault_placement_points > 0 with no crash or partition budget "
         "(pre-sampled placement governs destructive faults only, so "
         "nothing could ever fire at the sampled points)");
  }
  if (corpus_mutation && !stateful) {
    fail("corpus_mutation without stateful (the corpus's interest signal is "
         "the fingerprint-miss count, which only exists under stateful "
         "exploration)");
  }
}

RuntimeOptions MakeRuntimeOptions(const TestConfig& config, bool logging) {
  RuntimeOptions options;
  options.max_steps = config.max_steps;
  options.liveness_temperature_threshold =
      config.liveness_temperature_threshold;
  options.report_deadlock = config.report_deadlock;
  options.logging = logging;
  options.stateful = config.stateful;
  options.fingerprint_payloads = config.fingerprint_payloads;
  options.record_fingerprint_trail = config.record_fingerprint_trail;
  options.max_crashes = config.max_crashes;
  options.max_restarts = config.max_restarts;
  options.drop_probability_den = config.drop_probability_den;
  options.max_duplications = config.max_duplications;
  options.max_partitions = config.max_partitions;
  options.partition_heal_den = config.partition_heal_den;
  options.fault_odds_den = config.fault_odds_den;
  return options;
}

TieredOptions MakeVisitedOptions(const TestConfig& config) {
  TieredOptions options;
  options.max_entries = static_cast<std::size_t>(config.max_visited);
  options.hot_entries = static_cast<std::size_t>(config.max_visited_hot);
  options.spill_dir = config.visited_spill_dir;
  if (!options.spill_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options.spill_dir, ec);
  }
  return options;
}

namespace {

/// The scheduling loop, entered AFTER the world is set up: by the harness on
/// a fresh Runtime, or by ResetForNextExecution on a recycled one. Every
/// entry point runs this one loop, so recycling cannot change semantics.
/// Returns true if the step bound was hit.
///
/// A null `visited` means stateless. Otherwise the post-setup and every
/// post-step fingerprint is recorded in `visited` (counted in `result`);
/// once the execution has spent `prune_run` consecutive steps in
/// already-visited states it is pruned (result.pruned): the schedule has
/// reconverged to territory a prior execution already explored. Pruned
/// executions skip the quiescence / bounded-liveness property checks: they
/// did not actually terminate.
bool StepFromSetup(Runtime& runtime, std::uint64_t max_steps,
                   VisitedSet* visited, std::uint64_t prune_run,
                   std::uint64_t prune_holdoff, ExecutionResult& result) {
  // The post-setup initial state counts as visited too (every execution of a
  // deterministic harness revisits it), but never prunes by itself: the
  // known-run counter only accumulates across scheduling steps.
  if (visited != nullptr) {
    if (visited->Insert(runtime.ExecutionFingerprint())) {
      ++result.fingerprint_misses;
    } else {
      ++result.fingerprint_hits;
    }
  }
  std::uint64_t known_run = 0;
  while (runtime.Steps() < max_steps) {
    if (!runtime.Step()) {
      runtime.CheckTermination(/*hit_bound=*/false);
      return false;
    }
    if (visited == nullptr) {
      continue;
    }
    if (visited->Insert(runtime.ExecutionFingerprint())) {
      ++result.fingerprint_misses;
      known_run = 0;
    } else {
      ++result.fingerprint_hits;
      // Below the strategy's holdoff (a corpus prefix deliberately replaying
      // known territory) revisits never accumulate toward pruning.
      if (runtime.Steps() <= prune_holdoff) {
        known_run = 0;
      } else if (++known_run >= prune_run) {
        result.pruned = true;
        return false;
      }
    }
  }
  runtime.CheckTermination(/*hit_bound=*/true);
  return true;
}

}  // namespace

bool StepToCompletion(Runtime& runtime, const Harness& harness,
                      std::uint64_t max_steps) {
  harness(runtime);
  ExecutionResult unused;
  return StepFromSetup(runtime, max_steps, /*visited=*/nullptr,
                       /*prune_run=*/0, /*prune_holdoff=*/0, unused);
}

ExecutionResult RunOneExecution(const TestConfig& config,
                                const Harness& harness,
                                SchedulingStrategy& strategy,
                                std::uint64_t iteration,
                                VisitedSet* visited, obs::WorkerObs* obs) {
  ExecutionResult result;
  if (config.fault_placement_points > 0) {
    // Arm pre-sampled fault placement before PrepareIteration samples the
    // points (an int store per execution; strategies that don't sample stay
    // on geometric placement).
    strategy.SetFaultPlacementPoints(config.fault_placement_points);
  }
  strategy.PrepareIteration(iteration, config.max_steps);
  RuntimeOptions options = MakeRuntimeOptions(config, false);
  if (obs != nullptr) {
    obs->BeginExecution();
    options.probe = &obs->probe;
  }
  Runtime runtime(strategy, options);
  try {
    harness(runtime);
    result.hit_step_bound = StepFromSetup(
        runtime, config.max_steps, config.stateful ? visited : nullptr,
        config.prune_run, strategy.PruneHoldoffSteps(), result);
  } catch (const BugFound& bug) {
    result.bug_found = true;
    result.bug_kind = bug.Kind();
    result.bug_message = bug.what();
  }
  result.steps = runtime.Steps();
  result.faults = runtime.GetFaultStats();
  if (obs != nullptr) {
    // Flush while the runtime is still alive: coverage walks its machines.
    obs->FlushExecution(runtime, result, visited);
  }
  result.trace = runtime.TakeTrace();  // O(1): the runtime dies right here
  if (config.stateful && config.record_fingerprint_trail) {
    result.fingerprint_trail = runtime.TakeFingerprintTrail();
  }
  return result;
}

ExecutionRunner::ExecutionRunner(const TestConfig& config,
                                 const Harness& harness,
                                 SchedulingStrategy& strategy,
                                 obs::WorkerObs* obs)
    : ExecutionRunner(config, harness, strategy,
                      MakeRuntimeOptions(config, /*logging=*/false), obs) {}

ExecutionRunner::ExecutionRunner(const TestConfig& config,
                                 const Harness& harness,
                                 SchedulingStrategy& strategy,
                                 RuntimeOptions options, obs::WorkerObs* obs)
    : config_(config),
      harness_(harness),
      strategy_(strategy),
      obs_(obs),
      options_(std::move(options)),
      arena_(std::make_unique<detail::EventArena>()) {
  if (obs_ != nullptr) {
    options_.probe = &obs_->probe;
  }
}

ExecutionRunner::~ExecutionRunner() { DropRuntime(); }

void ExecutionRunner::DropRuntime() {
  if (runtime_ == nullptr) {
    return;
  }
  // The sealed setup prototypes are heap-backed and must see REAL deletes,
  // so they are extracted first and die after the disarm below. Everything
  // else the runtime still holds (queued events, coroutine-held events) is
  // arena-backed, so the runtime itself must die while the arena is armed —
  // those deletes have to no-op.
  std::vector<std::unique_ptr<const Event>> prototypes =
      runtime_->TakeSetupPrototypes();
  {
    const detail::ScopedEventArenaArm arm(arena_.get());
    runtime_.reset();
  }
  prototypes.clear();
  arena_->ResetEpoch();
}

void ExecutionRunner::RunBody(Runtime& runtime, bool run_harness,
                              bool try_seal, ExecutionResult& result,
                              VisitedSet* visited) {
  try {
    if (run_harness) {
      harness_(runtime);
    }
    if (try_seal) {
      // Seal AFTER the harness (the setup events to snapshot exist now) and
      // BEFORE the first step (ResetForNextExecution rebuilds exactly the
      // post-harness world). Logging runs keep per-execution "create" log
      // lines that a reset would not reproduce, so they never recycle.
      mode_ = (!options_.logging && runtime.SealForReuse()) ? Mode::kRecycling
                                                            : Mode::kFresh;
    }
    result.hit_step_bound = StepFromSetup(
        runtime, config_.max_steps, config_.stateful ? visited : nullptr,
        config_.prune_run, strategy_.PruneHoldoffSteps(), result);
  } catch (const BugFound& bug) {
    result.bug_found = true;
    result.bug_kind = bug.Kind();
    result.bug_message = bug.what();
  }
  result.steps = runtime.Steps();
  result.faults = runtime.GetFaultStats();
  if (obs_ != nullptr) {
    // Flush while the runtime is still alive: coverage walks its machines.
    obs_->FlushExecution(runtime, result, visited);
  }
  result.trace = runtime.TakeTrace();
  if (config_.stateful && config_.record_fingerprint_trail) {
    result.fingerprint_trail = runtime.TakeFingerprintTrail();
  }
  if (options_.logging) {
    result.log = runtime.Log();
  }
}

ExecutionResult ExecutionRunner::RunOne(std::uint64_t iteration,
                                        VisitedSet* visited) {
  ExecutionResult result;
  if (config_.fault_placement_points > 0) {
    strategy_.SetFaultPlacementPoints(config_.fault_placement_points);
  }
  strategy_.PrepareIteration(iteration, config_.max_steps);
  if (obs_ != nullptr) {
    obs_->BeginExecution();
  }
  if (mode_ == Mode::kRecycling) {
    const detail::ScopedEventArenaArm arm(arena_.get());
    runtime_->ResetForNextExecution(arena_.get());
    RunBody(*runtime_, /*run_harness=*/false, /*try_seal=*/false, result,
            visited);
    return result;
  }
  {
    // Probe or fresh execution: one arena epoch for a newly built Runtime.
    // The probe also tries the seal; if it succeeds this execution's live
    // events are already arena-backed, exactly like every later one.
    const detail::ScopedEventArenaArm arm(arena_.get());
    runtime_ = std::make_unique<Runtime>(strategy_, options_);
    RunBody(*runtime_, /*run_harness=*/true,
            /*try_seal=*/mode_ == Mode::kProbing, result, visited);
  }
  if (mode_ != Mode::kRecycling) {
    // Opted out (or the harness itself threw, leaving mode_ at kProbing to
    // retry the seal next time): the runtime dies and the epoch rewinds.
    DropRuntime();
  }
  return result;
}

TestingEngine::TestingEngine(TestConfig config, Harness harness)
    : config_(std::move(config)), harness_(std::move(harness)) {}

TestReport TestingEngine::Run() {
  TestReport report;
  const auto strategy = StrategyRegistry::Instance().Create(
      config_.strategy, config_.seed, config_.strategy_budget);
  report.strategy_name = strategy->Name();
  TieredFingerprintSet visited(MakeVisitedOptions(config_));
  VisitedSet* visited_ptr = config_.stateful ? &visited : nullptr;
  std::unique_ptr<obs::WorkerObs> worker_obs;
  if (metrics_ != nullptr) {
    worker_obs =
        std::make_unique<obs::WorkerObs>(*metrics_, /*worker_index=*/0,
                                         coverage_);
  }
  // One recycled Runtime serves the whole budget when the harness opted in
  // (kReusableRuntime); otherwise the runner transparently builds a fresh
  // Runtime per iteration. Declared after strategy / worker_obs: the runner
  // borrows both and must die first.
  ExecutionRunner runner(config_, harness_, *strategy, worker_obs.get());
  const auto start = Clock::now();

  for (std::uint64_t iteration = 0; iteration < config_.iterations;
       ++iteration) {
    if (config_.time_budget_seconds > 0 &&
        SecondsSince(start) >= config_.time_budget_seconds) {
      break;
    }
    ++report.executions;
    ExecutionResult result = runner.RunOne(iteration, visited_ptr);
    report.total_steps += result.steps;
    if (config_.stateful) {
      report.fingerprint_hits += result.fingerprint_hits;
      report.fingerprint_misses += result.fingerprint_misses;
      if (result.pruned) ++report.pruned_executions;
    }
    if (config_.FaultsEnabled()) {
      report.injected_faults += result.faults;
    }
    if (corpus_ != nullptr && config_.stateful &&
        (result.fingerprint_misses > 0 || result.bug_found)) {
      // Feed BEFORE the bug block below moves the trace out. Heat = heatmap
      // cells this execution visited first (0 without coverage collection).
      corpus_->Add(result.trace, result.fingerprint_misses,
                   worker_obs != nullptr ? worker_obs->LastNewStateCells()
                                         : 0);
    }
    if (on_iteration_) on_iteration_(iteration, result);
    if (result.bug_found) {
      if (!report.bug_found) {
        // Keep the FIRST violation; with stop_on_first_bug=false later
        // buggy executions only contribute to the execution count.
        report.bug_found = true;
        report.bug_kind = result.bug_kind;
        report.bug_message = result.bug_message;
        report.bug_iteration = iteration + 1;
        report.seconds_to_bug = SecondsSince(start);
        report.ndc = result.trace.Size();
        report.bug_steps = result.steps;
        report.bug_trace = std::move(result.trace);
        if (config_.readable_trace_on_bug) {
          report.execution_log = Replay(report.bug_trace).execution_log;
        }
      }
      if (config_.stop_on_first_bug) {
        break;
      }
    }
  }
  report.total_seconds = SecondsSince(start);
  if (config_.stateful) {
    report.stateful = true;
    report.distinct_states = visited.Size();
    report.visited_budget = config_.max_visited;
    report.visited = visited.Stats();
  }
  report.faults = config_.FaultsEnabled();
  if (worker_obs != nullptr && coverage_) {
    report.coverage =
        std::make_shared<obs::CoverageReport>(worker_obs->TakeCoverage());
  }
  return report;
}

TestReport TestingEngine::Replay(const Trace& trace) {
  TestReport report;
  ReplayStrategy strategy(trace);
  report.strategy_name = strategy.Name();
  RuntimeOptions options = MakeRuntimeOptions(config_, /*logging=*/true);
  // Replay reproduces one recorded witness; it never dedups or prunes, even
  // when the config that FOUND the bug was stateful.
  options.stateful = false;
  // The failure schedule comes from the trace itself — fault decisions are
  // recorded with the step / delivery ordinal they fired at — so replay
  // needs (and takes) no fault configuration: a fault-free trace replays
  // with zero fault queries matched, a fault trace re-applies every recorded
  // fault at its exact coordinate.
  options.replay_faults = true;
  ExecutionRunner runner(config_, harness_, strategy, std::move(options));
  ++report.executions;
  const auto start = Clock::now();
  ExecutionResult result = runner.RunOne(/*iteration=*/0, /*visited=*/nullptr);
  report.total_seconds = SecondsSince(start);
  report.total_steps = result.steps;
  report.execution_log = std::move(result.log);
  report.injected_faults = result.faults;
  report.faults = report.injected_faults.Total() > 0;
  if (result.bug_found) {
    report.bug_found = true;
    report.bug_kind = result.bug_kind;
    report.bug_message = std::move(result.bug_message);
    report.bug_iteration = 1;
    report.seconds_to_bug = report.total_seconds;
    report.ndc = result.trace.Size();
    report.bug_steps = result.steps;
  }
  // The re-recorded decision list, on clean replays too, so callers (corpus
  // tests, bit-for-bit verification) can compare it against the input trace
  // instead of inferring fidelity from the absence of a divergence report.
  report.bug_trace = std::move(result.trace);
  return report;
}

}  // namespace systest
