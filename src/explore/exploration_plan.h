// SysTest exploration subsystem.
//
// An ExplorationPlan decomposes a TestConfig iteration budget into
// per-worker slices with disjoint, deterministic seed ranges. Every strategy
// derives its per-iteration randomness from SplitMix64(seed + iteration), so
// assigning worker w the base seed `config.seed + offset_w` together with
// `slice_w` iterations makes the workers explore pairwise-disjoint schedule
// spaces — the union over all workers is exactly the schedule space the
// serial TestingEngine would explore with the same total budget, which keeps
// parallel runs reproducible and free of duplicated work.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/strategy.h"

namespace systest::explore {

/// One worker's slice of the exploration budget: the run's TestConfig with
/// the worker's strategy, base seed and slice size. `seed` is the base of
/// the worker's range, which covers [seed, seed + iterations). Shard copies
/// the config's fault budgets to every worker; Portfolio additionally races
/// fault-free workers against fault-heavy ones when the config has faults
/// enabled, so the fleet covers both pure-ordering schedules and failure
/// interleavings in one run.
struct WorkerAssignment : TestConfig {
  int worker = 0;

  /// e.g. "w3 pct(5) seeds=[2032,2048) +faults" or "... +partitions".
  [[nodiscard]] std::string Describe() const;
};

/// Deterministic decomposition of a budget across workers. Construction is
/// pure: the same (config, workers) always yields the same plan.
class ExplorationPlan {
 public:
  /// Shards config.iterations as evenly as possible across `workers`
  /// threads, every worker running config.strategy/config.strategy_budget on
  /// its own disjoint seed range.
  static ExplorationPlan Shard(const TestConfig& config, int workers);

  /// Portfolio mode: workers race complementary strategies on disjoint seed
  /// ranges — uniform random plus PCT at several priority-change budgets
  /// (Burckhardt et al., the paper's citation [4]; §6.2 used budget 2) and
  /// delay-bounded scheduling at several delay budgets (Emmi et al.,
  /// citation [11]). First bug wins.
  static ExplorationPlan Portfolio(const TestConfig& config, int workers);

  [[nodiscard]] const std::vector<WorkerAssignment>& Workers() const noexcept {
    return workers_;
  }
  [[nodiscard]] std::size_t WorkerCount() const noexcept {
    return workers_.size();
  }

  /// Multi-line human-readable description of every assignment.
  [[nodiscard]] std::string Describe() const;

 private:
  std::vector<WorkerAssignment> workers_;
};

}  // namespace systest::explore
