// Execution-recycling regression tests: ExecutionRunner's reset-and-reuse
// path (Runtime::SealForReuse / ResetForNextExecution + the event arena) is
// a pure performance optimization — every observable of every execution
// must be bit-for-bit identical to the fresh-Runtime-per-iteration path:
// decision traces, step counts, bug reports, fault schedules, fingerprint
// hit/miss streams, prune points. These tests run the same seeded budgets
// through both paths and compare execution by execution, across the plain,
// faulted, partitioned, stateful-pruned, and mid-execution-create regimes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "api/scenario_registry.h"
#include "api/strategy_registry.h"
#include "core/event_arena.h"
#include "core/systest.h"
#include "samplerepl/harness.h"

namespace {

using systest::BugKind;
using systest::Event;
using systest::ExecutionResult;
using systest::ExecutionRunner;
using systest::FingerprintSet;
using systest::Machine;
using systest::MachineId;
using systest::TestConfig;

TestConfig SmallConfig(std::uint64_t iterations) {
  TestConfig config;
  config.iterations = iterations;
  config.max_steps = 300;
  config.seed = 77;
  config.strategy = "random";
  return config;
}

struct BudgetOutcome {
  std::vector<ExecutionResult> results;
  bool recycled = false;  ///< runner: did the reuse path actually engage?
};

/// Runs `iterations` executions through an ExecutionRunner (the recycling
/// path under test).
BudgetOutcome RunRecycled(const TestConfig& config,
                          const systest::Harness& harness,
                          std::uint64_t iterations) {
  BudgetOutcome out;
  const auto strategy = systest::StrategyRegistry::Instance().Create(
      config.strategy, config.seed, config.strategy_budget);
  FingerprintSet visited(static_cast<std::size_t>(config.max_visited));
  systest::VisitedSet* visited_ptr = config.stateful ? &visited : nullptr;
  ExecutionRunner runner(config, harness, *strategy, nullptr);
  for (std::uint64_t i = 0; i < iterations; ++i) {
    out.results.push_back(runner.RunOne(i, visited_ptr));
  }
  out.recycled = runner.Recycling();
  return out;
}

/// Runs the same budget through the pre-existing fresh-Runtime path.
BudgetOutcome RunFresh(const TestConfig& config,
                       const systest::Harness& harness,
                       std::uint64_t iterations) {
  BudgetOutcome out;
  const auto strategy = systest::StrategyRegistry::Instance().Create(
      config.strategy, config.seed, config.strategy_budget);
  FingerprintSet visited(static_cast<std::size_t>(config.max_visited));
  systest::VisitedSet* visited_ptr = config.stateful ? &visited : nullptr;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    out.results.push_back(systest::RunOneExecution(config, harness, *strategy,
                                                   i, visited_ptr, nullptr));
  }
  return out;
}

/// Full per-execution comparison — the recycling contract.
void ExpectBitForBit(const BudgetOutcome& recycled,
                     const BudgetOutcome& fresh) {
  ASSERT_EQ(recycled.results.size(), fresh.results.size());
  for (std::size_t i = 0; i < recycled.results.size(); ++i) {
    const ExecutionResult& r = recycled.results[i];
    const ExecutionResult& f = fresh.results[i];
    EXPECT_EQ(r.trace, f.trace) << "iteration " << i;
    EXPECT_EQ(r.steps, f.steps) << "iteration " << i;
    EXPECT_EQ(r.hit_step_bound, f.hit_step_bound) << "iteration " << i;
    EXPECT_EQ(r.bug_found, f.bug_found) << "iteration " << i;
    EXPECT_EQ(r.bug_kind, f.bug_kind) << "iteration " << i;
    EXPECT_EQ(r.bug_message, f.bug_message) << "iteration " << i;
    EXPECT_EQ(r.pruned, f.pruned) << "iteration " << i;
    EXPECT_EQ(r.fingerprint_hits, f.fingerprint_hits) << "iteration " << i;
    EXPECT_EQ(r.fingerprint_misses, f.fingerprint_misses) << "iteration " << i;
    EXPECT_EQ(r.faults, f.faults) << "iteration " << i;
    EXPECT_EQ(r.fingerprint_trail, f.fingerprint_trail) << "iteration " << i;
  }
}

TEST(RecycleTest, SampleReplHarnessEngagesRecycling) {
  const TestConfig config = SmallConfig(3);
  const auto harness = samplerepl::MakeHarness(samplerepl::HarnessOptions{});
  const BudgetOutcome out = RunRecycled(config, harness, 3);
  EXPECT_TRUE(out.recycled)
      << "every samplerepl harness machine/monitor declares kReusableRuntime, "
         "so the seal must succeed";
}

TEST(RecycleTest, PlainBudgetIsBitForBit) {
  const TestConfig config = SmallConfig(200);
  const auto harness = samplerepl::MakeHarness(samplerepl::HarnessOptions{});
  const BudgetOutcome recycled = RunRecycled(config, harness, 200);
  ASSERT_TRUE(recycled.recycled);
  ExpectBitForBit(recycled, RunFresh(config, harness, 200));
}

TEST(RecycleTest, CrashRestartBudgetIsBitForBit) {
  // Reuse after a machine crashed (and possibly restarted) mid-execution:
  // the reset must restore crashed/restart state AND the sealed crashable
  // baseline, or the next execution's fault plane diverges.
  TestConfig config = SmallConfig(300);
  config.max_crashes = 2;
  config.max_restarts = 2;
  config.drop_probability_den = 16;
  config.max_duplications = 2;
  config.fault_odds_den = 8;
  samplerepl::HarnessOptions options;
  options.crashable_nodes = true;
  options.liveness_monitor = false;
  const auto harness = samplerepl::MakeHarness(options);
  const BudgetOutcome recycled = RunRecycled(config, harness, 300);
  ASSERT_TRUE(recycled.recycled);
  systest::Runtime::FaultStats total;
  bool crashed_at_end = false;
  for (const ExecutionResult& result : recycled.results) {
    total += result.faults;
    crashed_at_end |= result.faults.crashes > result.faults.restarts;
  }
  // The comparison only proves the crash path if crashes actually fired —
  // including executions that END with a machine still crashed.
  ASSERT_GT(total.crashes, 0u);
  ASSERT_GT(total.restarts, 0u);
  ASSERT_TRUE(crashed_at_end);
  ExpectBitForBit(recycled, RunFresh(config, harness, 300));
}

TEST(RecycleTest, PartitionBudgetIsBitForBit) {
  // Reuse after executions that end with a partition still installed: the
  // reset must clear partitioned_ flags and the partition counters.
  TestConfig config = SmallConfig(300);
  config.max_partitions = 2;
  config.partition_heal_den = 0;  // heals off: installed partitions persist
  config.fault_odds_den = 8;
  samplerepl::HarnessOptions options;
  options.partitionable_nodes = true;
  options.liveness_monitor = false;
  const auto harness = samplerepl::MakeHarness(options);
  const BudgetOutcome recycled = RunRecycled(config, harness, 300);
  ASSERT_TRUE(recycled.recycled);
  systest::Runtime::FaultStats total;
  bool partitioned_at_end = false;
  for (const ExecutionResult& result : recycled.results) {
    total += result.faults;
    partitioned_at_end |= result.faults.partitions > result.faults.heals;
  }
  ASSERT_GT(total.partitions, 0u);
  ASSERT_TRUE(partitioned_at_end);
  ExpectBitForBit(recycled, RunFresh(config, harness, 300));
}

TEST(RecycleTest, StatefulPrunedBudgetIsBitForBit) {
  // Stateful exploration recycles too: the world fingerprint after a reset
  // must equal the post-harness fingerprint of a fresh Runtime (same initial
  // visited-set insert), and mid-execution prunes must fire at the same
  // step with the same hit/miss stream.
  TestConfig config = SmallConfig(250);
  config.stateful = true;
  config.fingerprint_payloads = true;
  config.prune_run = 10;
  config.record_fingerprint_trail = true;
  const auto harness = samplerepl::MakeHarness(samplerepl::HarnessOptions{});
  const BudgetOutcome recycled = RunRecycled(config, harness, 250);
  ASSERT_TRUE(recycled.recycled);
  std::uint64_t pruned = 0;
  for (const ExecutionResult& result : recycled.results) {
    pruned += result.pruned ? 1 : 0;
  }
  ASSERT_GT(pruned, 0u) << "prune_run too large to exercise mid-execution "
                           "pruning under reuse";
  ExpectBitForBit(recycled, RunFresh(config, harness, 250));
}

TEST(RecycleTest, RecycledBugTraceReplays) {
  // A witness found on the recycled path must replay through the ordinary
  // (never-recycled, logging-on) replay engine.
  TestConfig config = SmallConfig(2'000);
  samplerepl::HarnessOptions options;
  options.bugs.non_unique_replica_count = true;  // §2.2 safety bug
  const auto harness = samplerepl::MakeHarness(options);
  const BudgetOutcome out = RunRecycled(config, harness, 2'000);
  ASSERT_TRUE(out.recycled);
  const ExecutionResult* bug = nullptr;
  for (const ExecutionResult& result : out.results) {
    if (result.bug_found) {
      bug = &result;
      break;
    }
  }
  ASSERT_NE(bug, nullptr) << "budget too small to find the seeded safety bug";
  EXPECT_EQ(bug->bug_kind, BugKind::kSafety);
  systest::TestingEngine replayer(config, harness);
  const systest::TestReport replayed = replayer.Replay(bug->trace);
  EXPECT_TRUE(replayed.bug_found);
  EXPECT_EQ(replayed.bug_kind, bug->bug_kind);
  EXPECT_EQ(replayed.bug_message, bug->bug_message);
}

TEST(RecycleTest, EveryRegisteredScenarioRecyclesBitForBit) {
  // Cross-domain sweep: every scenario in the catalog (samplerepl, vnext,
  // mtable, fabric, chaintable, race) must (a) engage the recycling path —
  // all of their harness-time machines/monitors opt in — and (b) stay
  // bit-for-bit against the fresh path under its own default config,
  // including the scenarios whose defaults budget fault-plane crashes.
  for (const systest::api::Scenario* scenario :
       systest::api::ScenarioRegistry::Instance().All()) {
    SCOPED_TRACE(scenario->name);
    const systest::Harness harness = scenario->make(systest::api::ParamMap{});
    TestConfig config = scenario->default_config();
    config.iterations = 10;
    const BudgetOutcome recycled = RunRecycled(config, harness, 10);
    EXPECT_TRUE(recycled.recycled)
        << scenario->name << ": a harness-time machine or monitor lost its "
        << "kReusableRuntime opt-in";
    ExpectBitForBit(recycled, RunFresh(config, harness, 10));
  }
}

// ---- opt-in contract ----

struct PokeEvent final : Event {};

/// Deliberately NOT kReusableRuntime: one such machine anywhere in the
/// harness must veto the seal for the whole Runtime.
class NonReusableMachine final : public Machine {
 public:
  NonReusableMachine() {
    State("Idle").OnEntry(&NonReusableMachine::OnStart).Ignore<PokeEvent>();
    SetStart("Idle");
  }

 private:
  void OnStart() { Send<PokeEvent>(Id()); }
};

TEST(RecycleTest, NonReusableMachineVetoesTheSeal) {
  const TestConfig config = SmallConfig(20);
  const systest::Harness harness = [](systest::Runtime& rt) {
    rt.CreateMachine<NonReusableMachine>("Legacy");
  };
  const BudgetOutcome recycled = RunRecycled(config, harness, 20);
  EXPECT_FALSE(recycled.recycled);
  ExpectBitForBit(recycled, RunFresh(config, harness, 20));

  // The vetoed runner still serves every fresh execution's events from its
  // arena (one epoch per Runtime), not from the global heap.
  const auto strategy = systest::StrategyRegistry::Instance().Create(
      config.strategy, config.seed, config.strategy_budget);
  ExecutionRunner runner(config, harness, *strategy, nullptr);
  (void)runner.RunOne(0, nullptr);  // the probe: seal vetoed
  ASSERT_FALSE(runner.Recycling());
  const std::uint64_t before =
      systest::detail::ThreadEventAllocStats().arena_allocations;
  for (std::uint64_t i = 1; i < 20; ++i) {
    (void)runner.RunOne(i, nullptr);
  }
  EXPECT_GE(systest::detail::ThreadEventAllocStats().arena_allocations,
            before + 19)
      << "each fresh execution sends at least one event";
}

/// Reusable machine that creates a fresh child machine mid-execution every
/// run — the reset must truncate the children so ids realign, and the next
/// execution's Create must observe the identical id sequence.
class SpawnerMachine final : public Machine {
 public:
  static constexpr bool kReusableRuntime = true;

  SpawnerMachine() {
    State("Run").OnEntry(&SpawnerMachine::OnStart).On<PokeEvent>(
        &SpawnerMachine::OnPoke);
    SetStart("Run");
  }

 private:
  void OnReset() override { spawned_ = 0; }

  void OnStart() { Send<PokeEvent>(Id()); }
  void OnPoke() {
    if (spawned_ < 2 && NondetBool()) {
      ++spawned_;
      const MachineId child =
          Create<NonReusableMachine>("Child");  // mid-execution: reusability
      Send<PokeEvent>(child);                   // of children is irrelevant
      Send<PokeEvent>(Id());
    }
  }

  int spawned_ = 0;
};

TEST(RecycleTest, MidExecutionMachinesAreTruncatedAndIdsRealign) {
  const TestConfig config = SmallConfig(100);
  const systest::Harness harness = [](systest::Runtime& rt) {
    rt.CreateMachine<SpawnerMachine>("Spawner");
  };
  const BudgetOutcome recycled = RunRecycled(config, harness, 100);
  ASSERT_TRUE(recycled.recycled)
      << "only HARNESS-time machines participate in the seal; mid-execution "
         "creates must not veto it";
  ExpectBitForBit(recycled, RunFresh(config, harness, 100));
}

}  // namespace
