#include "explore/parallel_engine.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "api/strategy_registry.h"
#include "corpus/trace_corpus.h"
#include "explore/sharded_fingerprint_set.h"
#include "obs/campaign.h"

namespace systest::explore {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Winning bug payload. Each slot is written only by the worker that claimed
/// the first-bug-wins race, and read only after the workers joined.
struct WorkerBug {
  ExecutionResult result;
  std::uint64_t iteration = 0;  ///< worker-local, 0-based
  double seconds = 0.0;         ///< from the run's start
};

}  // namespace

std::string BreakdownTable(const std::vector<WorkerReport>& workers) {
  std::string out =
      "  worker  strategy            seeds                 executions      "
      "steps  bug\n";
  char line[160];
  for (const WorkerReport& w : workers) {
    std::string seeds = "[";
    seeds += std::to_string(w.assignment.seed);
    seeds += ',';
    seeds += std::to_string(w.assignment.seed + w.assignment.iterations);
    seeds += ')';
    std::snprintf(line, sizeof(line),
                  "  w%-5d  %-18s  %-20s  %10llu  %9llu  %s",
                  w.assignment.worker, w.strategy_name.c_str(), seeds.c_str(),
                  static_cast<unsigned long long>(w.executions),
                  static_cast<unsigned long long>(w.steps),
                  w.won ? "WINNER" : (w.bug_found ? "yes" : "-"));
    out += line;
    if (w.assignment.FaultsEnabled()) {
      std::snprintf(line, sizeof(line), "  faults=%llu",
                    static_cast<unsigned long long>(w.injected_faults.Total()));
      out += line;
    }
    out += '\n';
  }
  return out;
}

std::string ParallelTestReport::BreakdownTable() const {
  return explore::BreakdownTable(workers);
}

ParallelTestingEngine::ParallelTestingEngine(TestConfig config,
                                             Harness harness,
                                             ParallelOptions options)
    : config_(std::move(config)),
      harness_(std::move(harness)),
      options_(options),
      threads_(ResolveThreads(options.threads)),
      plan_(options.portfolio ? ExplorationPlan::Portfolio(config_, threads_)
                              : ExplorationPlan::Shard(config_, threads_)) {}

ParallelTestReport ParallelTestingEngine::Run() {
  ParallelTestReport report;
  const std::vector<WorkerAssignment>& assignments = plan_.Workers();
  const int n = static_cast<int>(assignments.size());
  report.workers.resize(static_cast<std::size_t>(n));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> executions{0};  // lock-free progress counters
  std::atomic<std::uint64_t> steps{0};
  std::atomic<int> winner{-1};
  std::vector<WorkerBug> bugs(static_cast<std::size_t>(n));

  // Stateful exploration: ONE visited set for the whole fleet, so a state
  // any worker discovered prunes every other worker's reconverging
  // schedules (sharded + striped-locked; see sharded_fingerprint_set.h).
  std::unique_ptr<ShardedFingerprintSet> visited;
  if (config_.stateful) {
    visited =
        std::make_unique<ShardedFingerprintSet>(MakeVisitedOptions(config_));
  }

  const auto start = Clock::now();

  auto worker_fn = [&](int w) {
    const WorkerAssignment& assignment = assignments[static_cast<std::size_t>(w)];
    WorkerReport& wr = report.workers[static_cast<std::size_t>(w)];
    wr.assignment = assignment;

    // Each worker owns a private strategy seeded from its assignment, and
    // every Runtime it builds is thread-local: workers share nothing but the
    // atomics above (and, under stateful, the sharded visited set). All
    // seeding flows through the strategy.
    const auto strategy = StrategyRegistry::Instance().Create(
        assignment.strategy, assignment.seed, assignment.strategy_budget);
    wr.strategy_name = strategy->Name();

    // Per-worker observability handle on the worker's own stack: the probe
    // and coverage accumulator are private (lock-free), only the flush into
    // the shared sharded instruments crosses threads.
    std::unique_ptr<obs::WorkerObs> worker_obs;
    if (options_.metrics != nullptr) {
      worker_obs = std::make_unique<obs::WorkerObs>(
          *options_.metrics, static_cast<std::size_t>(w), options_.coverage);
    }

    // Thread-affine recycler: one sealed Runtime (and one event arena) per
    // worker for its whole assignment when the harness opted in. Plan shards
    // carry their own fault budgets (portfolio races fault-free workers
    // against fault-heavy ones), so each worker explores under the budgets
    // of ITS assignment, not the fleet config's. Declared after strategy and
    // worker_obs — it borrows both.
    ExecutionRunner runner(assignment, harness_, *strategy, worker_obs.get());

    const auto worker_start = Clock::now();
    for (std::uint64_t i = 0; i < assignment.iterations; ++i) {
      if (stop.load(std::memory_order_relaxed)) break;
      if (config_.time_budget_seconds > 0 &&
          SecondsSince(start) >= config_.time_budget_seconds) {
        break;
      }
      ExecutionResult result = runner.RunOne(i, visited.get());
      ++wr.executions;
      wr.steps += result.steps;
      if (config_.stateful) {
        wr.fingerprint_hits += result.fingerprint_hits;
        wr.fingerprint_misses += result.fingerprint_misses;
        if (result.pruned) ++wr.pruned_executions;
      }
      if (assignment.FaultsEnabled()) {
        wr.injected_faults += result.faults;
      }
      if (options_.corpus != nullptr && config_.stateful &&
          (result.fingerprint_misses > 0 || result.bug_found)) {
        // Every worker feeds the shared corpus — including blind portfolio
        // workers, whose discoveries seed the mutate workers racing them.
        // Before the first-bug CAS below moves the trace out.
        options_.corpus->Add(
            result.trace, result.fingerprint_misses,
            worker_obs != nullptr ? worker_obs->LastNewStateCells() : 0);
      }
      executions.fetch_add(1, std::memory_order_relaxed);
      steps.fetch_add(result.steps, std::memory_order_relaxed);
      if (options_.on_iteration) options_.on_iteration(w, i, result);
      if (result.bug_found) {
        wr.bug_found = true;
        int expected = -1;
        if (winner.compare_exchange_strong(expected, w,
                                           std::memory_order_acq_rel)) {
          wr.won = true;
          WorkerBug& slot = bugs[static_cast<std::size_t>(w)];
          slot.result = std::move(result);
          slot.iteration = i;
          slot.seconds = SecondsSince(start);
          if (config_.stop_on_first_bug) {
            stop.store(true, std::memory_order_release);
          }
        }
        if (config_.stop_on_first_bug) break;
      }
    }
    wr.seconds = SecondsSince(worker_start);
    if (worker_obs != nullptr && options_.coverage) {
      wr.coverage =
          std::make_shared<obs::CoverageReport>(worker_obs->TakeCoverage());
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) threads.emplace_back(worker_fn, w);
  for (std::thread& t : threads) t.join();

  TestReport& agg = report.aggregate;
  agg.executions = executions.load(std::memory_order_relaxed);
  agg.total_steps = steps.load(std::memory_order_relaxed);
  agg.total_seconds = SecondsSince(start);
  if (visited) {
    agg.stateful = true;
    agg.distinct_states = visited->Size();
    agg.visited_budget = config_.max_visited;
    agg.visited = visited->Stats();
    for (const WorkerReport& w : report.workers) {
      agg.pruned_executions += w.pruned_executions;
      agg.fingerprint_hits += w.fingerprint_hits;
      agg.fingerprint_misses += w.fingerprint_misses;
    }
  }
  if (config_.FaultsEnabled()) {
    agg.faults = true;
    for (const WorkerReport& w : report.workers) {
      agg.injected_faults += w.injected_faults;
    }
  }
  agg.strategy_name =
      (options_.portfolio ? std::string("portfolio") : config_.strategy.str()) +
      " x" + std::to_string(n);
  if (options_.coverage) {
    // The fleet heatmap is exactly the sum of the per-worker reports (Merge
    // is commutative/associative over named machines and events).
    auto merged = std::make_shared<obs::CoverageReport>();
    for (const WorkerReport& w : report.workers) {
      if (w.coverage != nullptr) merged->Merge(*w.coverage);
    }
    agg.coverage = std::move(merged);
  }

  const int won = winner.load(std::memory_order_acquire);
  report.winning_worker = won;
  if (won >= 0) {
    WorkerBug& bug = bugs[static_cast<std::size_t>(won)];
    agg.bug_found = true;
    agg.bug_kind = bug.result.bug_kind;
    agg.bug_message = bug.result.bug_message;
    agg.bug_iteration = bug.iteration + 1;  // winner-local numbering
    agg.seconds_to_bug = bug.seconds;
    agg.ndc = bug.result.trace.Size();
    agg.bug_steps = bug.result.steps;
    agg.bug_trace = std::move(bug.result.trace);
    agg.strategy_name =
        report.workers[static_cast<std::size_t>(won)].strategy_name;

    if (options_.verify_replay || config_.readable_trace_on_bug) {
      // One replay on THIS thread through the plain serial engine serves
      // both flags: it checks that the trace witnesses the bug anywhere, not
      // just inside the worker that recorded it, and it produces the
      // readable log.
      TestingEngine replayer(config_, harness_);
      TestReport replayed = replayer.Replay(agg.bug_trace);
      report.replay_verified = options_.verify_replay && replayed.bug_found &&
                               replayed.bug_kind == agg.bug_kind;
      if (config_.readable_trace_on_bug) {
        agg.execution_log = std::move(replayed.execution_log);
      }
    }
  }
  return report;
}

}  // namespace systest::explore
