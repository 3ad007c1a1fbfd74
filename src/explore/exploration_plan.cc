#include "explore/exploration_plan.h"

#include <algorithm>

#include "api/strategy_registry.h"

namespace systest::explore {

namespace {

/// The strategy rotation raced in portfolio mode. Worker w runs entry
/// w % size; worker 0 therefore always keeps the paper's random baseline.
struct PortfolioEntry {
  const char* strategy;
  int budget;
};

constexpr PortfolioEntry kPortfolio[] = {
    {"random", 0},       {"pct", 2}, {"delay-bounded", 2},
    {"pct", 5},          {"delay-bounded", 5}, {"pct", 10},
};

/// Evenly partitions config.iterations into `workers` contiguous slices of
/// the derived-seed line starting at config.seed.
std::vector<WorkerAssignment> PartitionBudget(const TestConfig& config,
                                              int workers) {
  workers = std::max(1, workers);
  const std::uint64_t total = config.iterations;
  const std::uint64_t base = total / static_cast<std::uint64_t>(workers);
  const std::uint64_t remainder = total % static_cast<std::uint64_t>(workers);

  std::vector<WorkerAssignment> assignments;
  assignments.reserve(static_cast<std::size_t>(workers));
  std::uint64_t offset = 0;
  for (int w = 0; w < workers; ++w) {
    WorkerAssignment a;
    a.worker = w;
    a.strategy = config.strategy;
    a.strategy_budget = config.strategy_budget;
    a.seed = config.seed + offset;
    a.iterations = base + (static_cast<std::uint64_t>(w) < remainder ? 1 : 0);
    a.max_crashes = config.max_crashes;
    a.max_restarts = config.max_restarts;
    a.drop_probability_den = config.drop_probability_den;
    a.max_duplications = config.max_duplications;
    a.max_partitions = config.max_partitions;
    a.partition_heal_den = config.partition_heal_den;
    a.fault_placement_points = config.fault_placement_points;
    offset += a.iterations;
    assignments.push_back(a);
  }
  return assignments;
}

}  // namespace

std::string WorkerAssignment::Describe() const {
  // Use the strategy's own display name so plan descriptions can never
  // drift from the names workers report.
  std::string out = "w";
  out += std::to_string(worker);
  out += ' ';
  out += StrategyRegistry::Instance()
             .Create(strategy, seed, strategy_budget)
             ->Name();
  out += " seeds=[";
  out += std::to_string(seed);
  out += ',';
  out += std::to_string(seed + iterations);
  out += ')';
  if (FaultsEnabled()) {
    out += max_partitions > 0 ? " +faults +partitions" : " +faults";
  }
  return out;
}

ExplorationPlan ExplorationPlan::Shard(const TestConfig& config, int workers) {
  ExplorationPlan plan;
  plan.workers_ = PartitionBudget(config, workers);
  return plan;
}

ExplorationPlan ExplorationPlan::Portfolio(const TestConfig& config,
                                           int workers) {
  ExplorationPlan plan;
  plan.workers_ = PartitionBudget(config, workers);
  constexpr std::size_t rotation = std::size(kPortfolio);
  const bool faults = config.FaultsEnabled();
  for (WorkerAssignment& a : plan.workers_) {
    const PortfolioEntry& entry =
        kPortfolio[static_cast<std::size_t>(a.worker) % rotation];
    a.strategy = entry.strategy;
    // Budget 0 means "keep the configured budget" only for strategies that
    // use one; random ignores it either way.
    a.strategy_budget = entry.budget > 0 ? entry.budget : config.strategy_budget;
    if (faults && a.worker % 2 == 1) {
      // With faults configured, odd workers race FAULT-FREE: half the fleet
      // hunts pure-ordering bugs at full schedule depth while the other half
      // explores failure interleavings — a bug of either class wins the
      // first-bug race.
      a.max_crashes = 0;
      a.max_restarts = 0;
      a.drop_probability_den = 0;
      a.max_duplications = 0;
      a.max_partitions = 0;
      a.fault_placement_points = 0;
    } else if (faults && config.max_partitions > 0 && a.worker % 4 == 2) {
      // When the config budgets partitions, every other faulted worker goes
      // PARTITION-HEAVY: crash/drop/dup budgets zeroed so its whole fault
      // budget drives partition-and-heal interleavings, the failure class
      // the other faulted workers dilute across four fault kinds.
      a.max_crashes = 0;
      a.max_restarts = 0;
      a.drop_probability_den = 0;
      a.max_duplications = 0;
    }
    if (config.corpus_mutation && a.worker % 3 == 2) {
      // Corpus-fed run: every third worker mutates the shared corpus instead
      // of searching blind — guided workers race the rotation above and are
      // seeded by what the blind workers (and each other) feed back. Worker
      // 0 keeps the random baseline, and the flag lives in the config, so
      // the plan stays a pure function of (config, workers).
      a.strategy = "mutate";
      a.strategy_budget = config.strategy_budget;
    }
  }
  return plan;
}

std::string ExplorationPlan::Describe() const {
  std::string out;
  for (const WorkerAssignment& a : workers_) {
    out += a.Describe();
    out += '\n';
  }
  return out;
}

}  // namespace systest::explore
