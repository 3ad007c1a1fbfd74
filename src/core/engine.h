// SysTest systematic-testing framework.
//
// The TestingEngine is the paper's "systematic testing engine" (§2): it
// repeatedly executes a harness from start to completion, each time exploring
// a potentially different set of nondeterministic choices, until it reaches a
// user-supplied bound (number of executions or time) or hits a safety or
// liveness violation. On a bug it produces a TestReport carrying the full
// decision trace, which can be replayed to reproduce the bug deterministically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/bug.h"
#include "core/fingerprint.h"
#include "core/runtime.h"
#include "core/strategy.h"
#include "core/trace.h"

namespace systest {

namespace obs {
class CampaignMetrics;   // obs/campaign.h
struct WorkerObs;        // obs/campaign.h
struct CoverageReport;   // obs/coverage.h
}  // namespace obs

namespace corpus {
class TraceCorpus;       // corpus/trace_corpus.h
}  // namespace corpus

/// A harness closes the system under test: it populates a fresh Runtime with
/// the wrapped real components, the modeled environment and the monitors
/// (the paper's three modeling artifacts, §1).
using Harness = std::function<void(Runtime&)>;

/// Engine configuration. Defaults mirror the paper's setup where applicable
/// (the evaluation used 100,000-execution budgets and a PCT budget of 2
/// priority change points).
struct TestConfig {
  std::uint64_t iterations = 10'000;
  std::uint64_t max_steps = 10'000;
  std::uint64_t seed = 0;
  /// Strategy name resolved through StrategyRegistry ("random", "pct",
  /// "round-robin", "delay-bounded", or any registered third-party name; a
  /// "(N)" suffix overrides strategy_budget).
  StrategyName strategy;
  int strategy_budget = 2;  ///< PCT priority change points / delay budget
  std::uint64_t liveness_temperature_threshold = 0;  ///< 0 = max_steps / 2
  bool report_deadlock = true;
  bool stop_on_first_bug = true;
  double time_budget_seconds = 0;  ///< 0 = unlimited
  /// When true, the buggy execution is re-run under replay with verbose
  /// logging to produce a human-readable trace in TestReport::execution_log.
  bool readable_trace_on_bug = false;

  /// Stateful exploration (core/fingerprint.h): fingerprint every visited
  /// program state and early-terminate executions that stay in
  /// already-visited territory for kFingerprintPruneRun consecutive steps.
  /// Opt-in: with the default false, scheduling, traces and reports are
  /// bit-for-bit what they always were. Pruned executions skip the
  /// end-of-execution quiescence/liveness checks (their continuations were
  /// covered by the execution that first explored those states), so safety
  /// bugs keep firing mid-step but stateful runs trade some
  /// liveness/deadlock sensitivity for budget.
  bool stateful = false;
  /// With stateful: mix Machine::FingerprintPayload into each contribution,
  /// separating states that differ only in domain data (default view is
  /// state id + queued event types).
  bool fingerprint_payloads = false;
  /// With stateful: TOTAL budget of distinct fingerprints tracked across
  /// both levels of the tiered visited set (memory/disk bound). Once the
  /// budget is exhausted the set freezes — known states still prune, unseen
  /// states pass through uncounted. (Parallel runs enforce it approximately:
  /// the sharded set's count is maintained without a global lock, so a race
  /// can overshoot by at most one entry per worker.)
  std::uint64_t max_visited = 1u << 20;
  /// With stateful: capacity of the exact in-memory HOT level. When the hot
  /// level fills, its fingerprints compact into an immutable sorted run
  /// behind the back level's bloom filter (core/fingerprint.h) and the hot
  /// level restarts.
  /// The default equals the max_visited default, so out of the box nothing
  /// ever compacts and behavior is identical to the historical flat set;
  /// raising max_visited into the hundreds of millions while keeping
  /// max_visited_hot modest is the intended big-state-space configuration.
  std::uint64_t max_visited_hot = 1u << 20;
  /// With stateful: when non-empty, compacted runs are written to this
  /// directory as raw 64-bit files and mapped back read-only, so the back
  /// level's RAM footprint is its bloom filter (1.5 to 2.25 bytes/state, as
  /// its capacity is grown in 1.5x steps) rather than the full runs. Files are private to the run and unlinked when the
  /// set is destroyed. Empty = runs stay in memory.
  std::string visited_spill_dir;
  /// With stateful: consecutive already-visited states after which an
  /// execution is pruned. The default is the tuning kFingerprintPruneRun
  /// shipped with; harnesses with long forced prefixes (deterministic setup
  /// cascades every execution replays) raise it so executions are not
  /// pruned before reaching fresh territory.
  std::uint64_t prune_run = kFingerprintPruneRun;
  /// With stateful: record each execution's per-step fingerprint sequence
  /// into ExecutionResult::fingerprint_trail. Test/debug instrumentation —
  /// off by default so production stateful runs pay nothing for trails.
  bool record_fingerprint_trail = false;

  // ---- Fault plane (README "Fault injection") ----
  // Scheduler-controlled machine crash/restart and per-delivery message
  // drop/duplication, decided by the active strategy at first-class choice
  // points and recorded in the trace (format v2), so failure schedules are
  // explored, budgeted and replayable exactly like scheduling decisions.
  // All defaults off: fault-free runs are bit-for-bit unchanged.

  /// Per-execution crash budget (machines opted in via
  /// Runtime::SetCrashable). 0 disables crashes.
  std::uint64_t max_crashes = 0;
  /// Per-execution restart budget for crashed machines. 0 disables restarts
  /// (crashes are then permanent for the execution).
  std::uint64_t max_restarts = 0;
  /// Per-delivery drop odds denominator: each machine-to-machine delivery
  /// is dropped with probability 1/den. 0 disables drops.
  std::uint64_t drop_probability_den = 0;
  /// Per-execution duplication budget (a delivery enqueued twice). 0
  /// disables duplication.
  std::uint64_t max_duplications = 0;
  /// Per-execution partition budget: the strategy may isolate a machine
  /// opted in via Runtime::SetPartitionable (deliveries between it and any
  /// other machine vanish) and heal it as a separate choice point. Recorded
  /// as trace v3 decisions; 0 disables partitions.
  std::uint64_t max_partitions = 0;
  /// Per-step heal odds denominator while a partition is installed. 0
  /// disables heals (partitions last the rest of the execution).
  std::uint64_t partition_heal_den = 4;
  /// Odds denominator for the budgeted rolls: while budget remains, a crash,
  /// restart or partition fires with probability 1/den per step and a
  /// duplication with 1/den per delivery. Shapes WHEN faults land, not how
  /// many.
  std::uint64_t fault_odds_den = 16;
  /// PCT-style pre-sampled fault placement: when > 0, each iteration
  /// samples this many fault points uniformly from the step budget up front
  /// (mirroring PCT's priority change points) and destructive faults
  /// (crash, partition) fire only at those points instead of geometric
  /// per-step odds — fault depth becomes bounded and systematic. Honored by
  /// the built-in random/PCT/delay-bounded strategies; others keep the
  /// geometric default. 0 = geometric placement.
  int fault_placement_points = 0;

  /// Coverage-guided exploration (corpus/trace_corpus.h): marks this run as
  /// corpus-fed. Portfolio plans convert some workers to the "mutate"
  /// strategy when set; requires stateful, because the corpus's interest
  /// signal IS the fingerprint-miss count. Arming is normally done by
  /// TestSession when a corpus dir or the mutate strategy is requested.
  bool corpus_mutation = false;

  /// Whether this config turns the fault plane on.
  [[nodiscard]] bool FaultsEnabled() const noexcept {
    return max_crashes > 0 || drop_probability_den > 0 ||
           max_duplications > 0 || max_partitions > 0;
  }

  /// Fails fast on configurations that would silently explore nothing:
  /// throws std::invalid_argument for zero iterations, zero max_steps, an
  /// empty strategy name, a negative time budget, a liveness temperature
  /// threshold above the step bound, fingerprint_payloads without stateful,
  /// stateful with max_visited == 0, max_visited_hot == 0 or prune_run == 0,
  /// a visited_spill_dir without stateful, restarts without
  /// crashes, a drop denominator of 1 (every message dropped), a heal
  /// denominator of 1 (every partition healed on the next step), fault
  /// odds below 2, or pre-sampled fault placement with no fault budgets.
  /// TestSession calls this before running.
  void Validate() const;
};

/// Outcome of a testing run.
struct TestReport {
  bool bug_found = false;
  BugKind bug_kind = BugKind::kSafety;
  std::string bug_message;
  std::uint64_t bug_iteration = 0;     ///< 1-based iteration that found the bug
  double seconds_to_bug = 0.0;
  std::uint64_t ndc = 0;               ///< nondet. choices in the buggy execution
  std::uint64_t bug_steps = 0;         ///< scheduling steps in the buggy execution
  Trace bug_trace;                     ///< replayable witness
  std::string execution_log;           ///< readable trace (optional)
  std::uint64_t executions = 0;        ///< executions actually performed
  std::uint64_t total_steps = 0;
  double total_seconds = 0.0;
  std::string strategy_name;

  // Stateful-exploration aggregates (meaningful when `stateful`).
  bool stateful = false;               ///< run used fingerprint dedup
  std::uint64_t distinct_states = 0;   ///< visited-set size (both levels)
  std::uint64_t pruned_executions = 0; ///< executions early-terminated
  std::uint64_t fingerprint_hits = 0;  ///< states seen that were known
  std::uint64_t fingerprint_misses = 0;///< states seen that were novel
  std::uint64_t visited_budget = 0;    ///< config max_visited (0 = stateless)
  /// Tiered visited-set telemetry: level occupancy and compaction/spill/
  /// bloom traffic (core/fingerprint.h). All-zero for stateless runs.
  VisitedStats visited;

  // Fault-plane aggregates (meaningful when `faults`): injected-fault
  // totals summed over every execution of the run.
  bool faults = false;                 ///< run had fault injection enabled
  Runtime::FaultStats injected_faults;

  /// Merged coverage heatmap (obs/coverage.h). nullptr unless the run
  /// collected coverage; shared so parallel aggregates and per-worker
  /// reports can alias without copying.
  std::shared_ptr<const obs::CoverageReport> coverage;

  /// A stateful campaign has saturated its visited set when the TOTAL
  /// distinct-state budget — hot level plus back-level runs — is exhausted:
  /// from then on novel states pass through uncounted and the reported hit
  /// rate goes dishonest. Hot-level compactions are NOT saturation; they
  /// are routine maintenance of the tiered set. Machine-detectable
  /// (JsonReporter emits it) so CI can flag under-provisioned budgets.
  [[nodiscard]] bool VisitedSetSaturated() const noexcept {
    return stateful && !bug_found && visited_budget > 0 &&
           distinct_states >= visited_budget;
  }

  /// Fraction of observed states that were already visited (0 when the run
  /// was not stateful or observed nothing).
  [[nodiscard]] double FingerprintHitRate() const noexcept {
    const std::uint64_t total = fingerprint_hits + fingerprint_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(fingerprint_hits) /
                            static_cast<double>(total);
  }

  /// One-line summary suitable for bench output.
  [[nodiscard]] std::string Summary() const;
};

/// Outcome of one serialized execution. Shared currency between the serial
/// TestingEngine and the parallel engines in src/explore/.
struct ExecutionResult {
  bool bug_found = false;
  BugKind bug_kind = BugKind::kSafety;
  std::string bug_message;
  std::uint64_t steps = 0;        ///< scheduling steps performed
  bool hit_step_bound = false;    ///< true when max_steps was reached
  /// Full decision trace of the execution (moved out of the Runtime, so
  /// always populated). On a bug it is the replayable witness.
  Trace trace;

  // Per-execution fingerprint stats (stateful runs only).
  bool pruned = false;                  ///< early-terminated on known states
  std::uint64_t fingerprint_hits = 0;   ///< already-visited states touched
  std::uint64_t fingerprint_misses = 0; ///< novel states discovered

  /// Faults injected into this execution (all-zero for fault-free runs).
  Runtime::FaultStats faults;
  /// Post-step fingerprint sequence (moved out of the Runtime; empty unless
  /// TestConfig::record_fingerprint_trail). Deterministic for a given seed —
  /// prunes only truncate it.
  std::vector<Fingerprint> fingerprint_trail;
  /// Readable execution log (Runtime::Log). Empty unless the runner's
  /// RuntimeOptions turned logging on, as TestingEngine::Replay does.
  std::string log;
};

/// Per-execution hook: (0-based iteration, completed result). Invoked after
/// every execution, bug or not, before the engine consumes the result.
using IterationCallback =
    std::function<void(std::uint64_t iteration, const ExecutionResult& result)>;

/// Builds the per-execution RuntimeOptions implied by `config`.
RuntimeOptions MakeRuntimeOptions(const TestConfig& config, bool logging);

/// Builds the visited-set options implied by `config` (max_visited,
/// max_visited_hot, visited_spill_dir) and creates the spill directory when
/// one is set. Creation failure is non-fatal: runs then stay in memory.
TieredOptions MakeVisitedOptions(const TestConfig& config);

/// Steps `runtime` (already populated via `harness`) to quiescence or the
/// step bound, running the end-of-execution property checks. Returns true if
/// the step bound was hit. Throws BugFound on a violation.
bool StepToCompletion(Runtime& runtime, const Harness& harness,
                      std::uint64_t max_steps);

/// Reference implementation of one execution on a fresh Runtime: prepares
/// `strategy` for the 0-based `iteration`, builds the Runtime, steps it to
/// completion and converts any BugFound into the returned result. No engine
/// calls it (engines run ExecutionRunner); tests/core_recycle_test.cc
/// compares the runner against it execution by execution. With
/// config.stateful and a non-null `visited`, the execution is pruned after
/// config.prune_run consecutive known states; a non-null `obs` flushes it
/// into the campaign instruments (obs/campaign.h). Scheduling is
/// bit-for-bit identical either way.
ExecutionResult RunOneExecution(const TestConfig& config,
                                const Harness& harness,
                                SchedulingStrategy& strategy,
                                std::uint64_t iteration,
                                VisitedSet* visited = nullptr,
                                obs::WorkerObs* obs = nullptr);

/// Thread-affine execution runner: the one code path that runs a production
/// execution (TestingEngine::Run and Replay, ParallelTestingEngine workers).
/// The first RunOne builds the Runtime and runs the harness as usual, then
/// tries Runtime::SealForReuse. If every harness machine/monitor opted in
/// (kReusableRuntime), the SAME Runtime serves every later execution via
/// ResetForNextExecution — no construction, no trace reallocation.
/// Otherwise the runner builds a fresh Runtime per execution. Either way
/// every execution's events are bump-allocated from an execution-scoped
/// arena that rewinds when the execution ends, so there are no per-event
/// frees. Results are identical on both paths: golden traces, fingerprints
/// and RNG streams do not depend on which path ran
/// (tests/core_recycle_test.cc pins this against RunOneExecution).
///
/// One runner per thread; it borrows config/harness/strategy/obs, which
/// must outlive it. Logging runs never recycle (a reset would not reproduce
/// the per-execution "create" log lines), which keeps TestingEngine::Replay
/// on a fresh Runtime.
class ExecutionRunner {
 public:
  /// Runtime options derived from `config` (MakeRuntimeOptions, logging off).
  ExecutionRunner(const TestConfig& config, const Harness& harness,
                  SchedulingStrategy& strategy, obs::WorkerObs* obs);
  /// Explicit runtime options, e.g. Replay's logging + replay_faults run.
  /// A non-null `obs` overrides options.probe with its own probe.
  ExecutionRunner(const TestConfig& config, const Harness& harness,
                  SchedulingStrategy& strategy, RuntimeOptions options,
                  obs::WorkerObs* obs = nullptr);
  ~ExecutionRunner();
  ExecutionRunner(const ExecutionRunner&) = delete;
  ExecutionRunner& operator=(const ExecutionRunner&) = delete;

  /// Runs one execution for the 0-based `iteration` — equivalent to
  /// RunOneExecution with this runner's bound config/harness/strategy/obs.
  ExecutionResult RunOne(std::uint64_t iteration, VisitedSet* visited);

  /// Whether the runner is currently recycling one sealed Runtime (false
  /// until the first RunOne, and permanently false after a fallback).
  [[nodiscard]] bool Recycling() const noexcept {
    return mode_ == Mode::kRecycling;
  }

 private:
  enum class Mode : std::uint8_t {
    kProbing,    ///< first execution: build, run, try to seal
    kRecycling,  ///< sealed: reset-and-reuse the same Runtime
    kFresh,      ///< opted out: fresh Runtime per execution
  };

  /// harness (optional) + seal attempt (optional) + step loop + result
  /// assembly, exactly mirroring RunOneExecution's order.
  void RunBody(Runtime& runtime, bool run_harness, bool try_seal,
               ExecutionResult& result, VisitedSet* visited);
  /// Destroys runtime_ while the arena is armed (arena-backed event deletes
  /// must no-op), freeing the heap-backed setup prototypes after disarming,
  /// then rewinds the arena.
  void DropRuntime();

  const TestConfig& config_;
  const Harness& harness_;
  SchedulingStrategy& strategy_;
  obs::WorkerObs* obs_;
  RuntimeOptions options_;  ///< built once; probe wired at construction
  std::unique_ptr<detail::EventArena> arena_;
  /// The recycled Runtime (kRecycling); otherwise set only inside RunOne.
  std::unique_ptr<Runtime> runtime_;
  Mode mode_ = Mode::kProbing;
};

/// Systematic testing engine. Thread-compatible; one engine per thread.
class TestingEngine {
 public:
  TestingEngine(TestConfig config, Harness harness);

  /// Runs up to config.iterations executions (or until the time budget or the
  /// first bug, per config). Returns the aggregate report.
  TestReport Run();

  /// Replays a recorded trace once through an ExecutionRunner, with
  /// readable logging enabled and the trace's fault decisions re-applied,
  /// and returns the resulting report (bug_found reflects whether the
  /// violation reproduced; bug_trace is the re-recorded decision list).
  TestReport Replay(const Trace& trace);

  [[nodiscard]] const TestConfig& Config() const noexcept { return config_; }

  /// Installs an optional per-execution observer hook (see IterationCallback).
  /// The callback runs outside the serialized execution, so it cannot perturb
  /// scheduling decisions.
  void SetIterationCallback(IterationCallback callback) {
    on_iteration_ = std::move(callback);
  }

  /// Attaches campaign observability: with a non-null `metrics` every
  /// execution flushes into its instruments; `coverage` additionally
  /// collects the state-visit/delivery/fault heatmaps into
  /// TestReport::coverage. Replay() never observes.
  void SetObservability(obs::CampaignMetrics* metrics, bool coverage) {
    metrics_ = metrics;
    coverage_ = coverage;
  }

  /// Attaches a trace corpus (borrowed): every stateful execution that
  /// discovered at least one new state (or found a bug) feeds its trace
  /// back in, closing the coverage-guided loop. Replay() never feeds.
  void SetCorpus(corpus::TraceCorpus* corpus) { corpus_ = corpus; }

 private:
  TestConfig config_;
  Harness harness_;
  IterationCallback on_iteration_;
  obs::CampaignMetrics* metrics_ = nullptr;
  bool coverage_ = false;
  corpus::TraceCorpus* corpus_ = nullptr;
};

}  // namespace systest
