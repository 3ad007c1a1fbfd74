// Partition-plane tests (fault plane v2): trace format v3 (partition
// install/heal decisions) with full backward compatibility to v1/v2,
// partition semantics in the runtime (isolation drops traffic both ways,
// self-sends stay exempt, heal restores connectivity), budget enforcement,
// PCT-style pre-sampled fault placement, fingerprint integration, the
// TestConfig::Validate partition rules, and bit-for-bit replay of partition
// schedules WITHOUT any fault configuration — including the acceptance
// criterion: a saved trace from the samplerepl partition scenario replays
// on the main thread with no fault flags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/systest.h"
#include "samplerepl/harness.h"

namespace {

using systest::Decision;
using systest::DeliveryFault;
using systest::DeliveryFaultContext;
using systest::Event;
using systest::FaultContext;
using systest::FaultDecision;
using systest::Machine;
using systest::MachineId;
using systest::RandomStrategy;
using systest::RoundRobinStrategy;
using systest::Runtime;
using systest::RuntimeOptions;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using systest::Trace;

// ---------------------------------------------------------------------------
// Trace format v3

Trace FaultFreeTrace() {
  Trace t;
  t.RecordSchedule(1);
  t.RecordBool(true);
  t.RecordInt(2, 5);
  t.RecordSchedule(3);
  return t;
}

Trace FaultTrace() {
  Trace t = FaultFreeTrace();
  t.RecordCrash(2, 7);
  t.RecordRestart(2, 11);
  t.RecordDrop(4, 3);
  t.RecordDuplicate(6, 1);
  t.RecordSchedule(2);
  return t;
}

Trace PartitionTrace() {
  Trace t = FaultFreeTrace();
  t.RecordPartition(2, 7);
  t.RecordHeal(2, 11);
  t.RecordSchedule(2);
  return t;
}

TEST(TraceV3, PartitionTraceSerializesAsV3AndRoundTrips) {
  const Trace original = PartitionTrace();
  ASSERT_TRUE(original.HasPartitionDecisions());
  ASSERT_TRUE(original.HasFaultDecisions());
  const std::string serialized = original.Serialize();
  EXPECT_EQ(serialized, "systest-trace v3 7\ns1;b1;i2/5;s3;p2/7;h2/11;s2\n");
  const Trace reloaded = Trace::Deserialize(serialized);
  EXPECT_EQ(reloaded, original);
  EXPECT_TRUE(reloaded.HasPartitionDecisions());
}

TEST(TraceV3, PartitionTagsParseAndPrint) {
  const Trace t = PartitionTrace();
  const std::string text = t.ToString();
  EXPECT_EQ(text, "s1;b1;i2/5;s3;p2/7;h2/11;s2");
  EXPECT_EQ(Trace::Parse(text), t);
  EXPECT_EQ(t.DescribeFaults(), "part m2@s7; heal m2@s11");
}

TEST(TraceV3, PartitionFreeFaultTraceStaysV2Bytes) {
  // The version floor: a fault trace WITHOUT partitions must keep producing
  // the exact v2 bytes the pre-partition writer produced, so fault-on but
  // partition-off runs are indistinguishable from before.
  const Trace t = FaultTrace();
  ASSERT_TRUE(t.HasFaultDecisions());
  ASSERT_FALSE(t.HasPartitionDecisions());
  EXPECT_EQ(t.Serialize(),
            "systest-trace v2 9\ns1;b1;i2/5;s3;c2/7;r2/11;d4/3;u6/1;s2\n");
}

TEST(TraceV3, HandWrittenV1AndV2FilesStillLoad) {
  const Trace v1 = Trace::Deserialize("systest-trace v1 4\ns1;b1;i2/5;s3\n");
  EXPECT_EQ(v1, FaultFreeTrace());
  const Trace v2 = Trace::Deserialize(
      "systest-trace v2 9\ns1;b1;i2/5;s3;c2/7;r2/11;d4/3;u6/1;s2\n");
  EXPECT_EQ(v2, FaultTrace());
  EXPECT_FALSE(v2.HasPartitionDecisions());
}

TEST(TraceV3, RejectsPartitionTagsUnderOldHeaders) {
  // No v1 or v2 writer ever produced partition tags; such files are corrupt.
  EXPECT_THROW(Trace::Deserialize("systest-trace v1 1\np2/7\n"),
               std::invalid_argument);
  EXPECT_THROW(Trace::Deserialize("systest-trace v2 1\np2/7\n"),
               std::invalid_argument);
  EXPECT_THROW(Trace::Deserialize("systest-trace v1 1\nh2/11\n"),
               std::invalid_argument);
  EXPECT_THROW(Trace::Deserialize("systest-trace v2 1\nh2/11\n"),
               std::invalid_argument);
  // The tags themselves still need well-formed coordinates.
  EXPECT_THROW(Trace::Parse("p2"), std::invalid_argument);
  EXPECT_THROW(Trace::Parse("h"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Partition semantics in the runtime
//
// Micro system: a Pacer machine sends one Ping per step to a Counter
// (pacing itself with self-sent Ticks, which are exempt from the partition
// like the rest of the delivery fault plane), so the isolation window maps
// directly onto a contiguous run of lost pings.

struct Ping final : Event {
  explicit Ping(int n) : n(n) {}
  int n;
};
struct Tick final : Event {};

class Counter final : public Machine {
 public:
  Counter() {
    State("Run").On<Ping>(&Counter::OnPing);
    SetStart("Run");
  }
  int pings = 0;

 private:
  void OnPing(const Ping&) { ++pings; }
};

class Pacer final : public Machine {
 public:
  Pacer(MachineId to, int total) : to_(to), total_(total) {
    State("Run").OnEntry(&Pacer::Kick).On<Tick>(&Pacer::OnTick);
    SetStart("Run");
  }
  int sent = 0;

 private:
  void Kick() { Step(); }
  void OnTick(const Tick&) { Step(); }
  void Step() {
    if (sent >= total_) return;
    Send<Ping>(to_, sent);
    ++sent;
    if (sent < total_) Send<Tick>(Id());
  }
  MachineId to_;
  int total_;
};

/// Deterministic partition script layered over round-robin scheduling.
class ScriptedPartitionStrategy final : public systest::SchedulingStrategy {
 public:
  struct StepFault {
    std::uint64_t step;
    FaultDecision::Kind kind;
    MachineId machine;
  };

  void PrepareIteration(std::uint64_t iteration,
                        std::uint64_t max_steps) override {
    rr_.PrepareIteration(iteration, max_steps);
  }
  MachineId Next(std::span<const MachineId> enabled,
                 std::uint64_t step) override {
    return rr_.Next(enabled, step);
  }
  bool NextBool() override { return rr_.NextBool(); }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return rr_.NextInt(bound);
  }
  FaultDecision NextFault(const FaultContext& ctx) override {
    for (const StepFault& f : step_faults) {
      if (f.step == ctx.step) return {f.kind, f.machine};
    }
    return {};
  }
  [[nodiscard]] std::string Name() const override { return "scripted-part"; }

  // Takes the script by value and moves it in: g++ 12 -Wnonnull misfires
  // on std::vector copy-assignment from an initializer list.
  void SetStepFaults(std::vector<StepFault> faults) {
    step_faults = std::move(faults);
  }

  std::vector<StepFault> step_faults;

 private:
  RoundRobinStrategy rr_;
};

/// Counter is machine 1 (partitionable), Pacer is machine 2.
systest::Harness PacedPair(int pings, bool partitionable = true) {
  return [pings, partitionable](Runtime& rt) {
    const MachineId counter = rt.CreateMachine<Counter>("Counter");
    rt.CreateMachine<Pacer>("Pacer", counter, pings);
    if (partitionable) rt.SetPartitionable(counter);
  };
}

Counter& CounterAt(Runtime& rt) {
  return *static_cast<Counter*>(rt.FindMachine(MachineId{1}));
}
Pacer& PacerAt(Runtime& rt) {
  return *static_cast<Pacer*>(rt.FindMachine(MachineId{2}));
}

TEST(PartitionPlane, UnhealedPartitionDropsAllTrafficButMachineKeepsRunning) {
  ScriptedPartitionStrategy strategy;
  strategy.SetStepFaults({{0, FaultDecision::Kind::kPartition, MachineId{1}}});
  RuntimeOptions options;
  options.max_partitions = 1;
  Runtime rt(strategy, options);
  PacedPair(4)(rt);
  while (rt.Step()) {
  }
  // Every ping vanished at the partition; the pacer's self-sent Ticks were
  // exempt, so it still paced its whole send loop.
  EXPECT_EQ(CounterAt(rt).pings, 0);
  EXPECT_EQ(PacerAt(rt).sent, 4);
  EXPECT_TRUE(rt.FindMachine(MachineId{1})->Partitioned());
  EXPECT_FALSE(rt.FindMachine(MachineId{1})->Crashed());
  EXPECT_EQ(rt.GetFaultStats().partitions, 1u);
  EXPECT_EQ(rt.GetFaultStats().heals, 0u);
  EXPECT_TRUE(rt.GetTrace().HasPartitionDecisions());
}

TEST(PartitionPlane, HealRestoresDeliveryAfterTheIsolationWindow) {
  ScriptedPartitionStrategy strategy;
  strategy.SetStepFaults({{0, FaultDecision::Kind::kPartition, MachineId{1}},
                          {3, FaultDecision::Kind::kHeal, MachineId{1}}});
  RuntimeOptions options;
  options.max_partitions = 1;
  Runtime rt(strategy, options);
  PacedPair(6)(rt);
  while (rt.Step()) {
  }
  // Pings sent while the partition was installed are lost forever; pings
  // sent after the heal arrive. The window is steps [0, 3), so at least one
  // ping was lost and at least one got through.
  const int delivered = CounterAt(rt).pings;
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, 6);
  EXPECT_FALSE(rt.FindMachine(MachineId{1})->Partitioned());
  EXPECT_EQ(rt.GetFaultStats().partitions, 1u);
  EXPECT_EQ(rt.GetFaultStats().heals, 1u);
  const std::string faults = rt.GetTrace().DescribeFaults();
  EXPECT_NE(faults.find("part m1@"), std::string::npos) << faults;
  EXPECT_NE(faults.find("heal m1@"), std::string::npos) << faults;
}

TEST(PartitionPlane, PartitionBudgetIsEnforcedPerExecution) {
  const TestConfig config = [] {
    TestConfig c;
    c.iterations = 50;
    c.max_steps = 200;
    c.strategy = "random";
    c.seed = 13;
    c.max_partitions = 1;
    c.fault_odds_den = 2;  // aggressive odds: partitions fire almost always
    return c;
  }();
  config.Validate();
  std::uint64_t max_partitions_seen = 0;
  TestingEngine engine(config, PacedPair(5));
  engine.SetIterationCallback(
      [&](std::uint64_t, const systest::ExecutionResult& result) {
        max_partitions_seen =
            std::max(max_partitions_seen, result.faults.partitions);
        EXPECT_LE(result.faults.partitions, 1u);
        // A heal can only follow an install.
        EXPECT_LE(result.faults.heals, result.faults.partitions);
      });
  const TestReport report = engine.Run();
  EXPECT_TRUE(report.faults);
  EXPECT_EQ(max_partitions_seen, 1u);
  EXPECT_GT(report.injected_faults.partitions, 0u);
}

TEST(PartitionPlane, NoPartitionableMachinesMeansNoFaultQueries) {
  // Budget set but nothing opted in: behavior (and the RNG stream) must be
  // bit-for-bit identical to a partition-free run.
  TestConfig config;
  config.iterations = 4;
  config.max_steps = 200;
  config.strategy = "random";
  config.seed = 3;
  std::vector<std::string> plain_traces;
  {
    TestingEngine engine(config, PacedPair(3, /*partitionable=*/false));
    engine.SetIterationCallback(
        [&](std::uint64_t, const systest::ExecutionResult& result) {
          plain_traces.push_back(result.trace.ToString());
        });
    (void)engine.Run();
  }
  config.max_partitions = 2;
  std::vector<std::string> partition_traces;
  {
    TestingEngine engine(config, PacedPair(3, /*partitionable=*/false));
    engine.SetIterationCallback(
        [&](std::uint64_t, const systest::ExecutionResult& result) {
          partition_traces.push_back(result.trace.ToString());
        });
    (void)engine.Run();
  }
  EXPECT_EQ(plain_traces, partition_traces);
}

// ---------------------------------------------------------------------------
// Fingerprint integration

TEST(PartitionPlane, PartitionChangesExecutionFingerprint) {
  auto run_to = [](bool partition, std::uint64_t steps) {
    ScriptedPartitionStrategy strategy;
    if (partition) {
      strategy.SetStepFaults({
          {1, FaultDecision::Kind::kPartition, MachineId{1}}});
    }
    RuntimeOptions options;
    options.max_partitions = 1;  // SAME options both runs: budgets aligned
    options.stateful = true;
    auto rt = std::make_unique<Runtime>(strategy, options);
    PacedPair(2)(*rt);
    for (std::uint64_t i = 0; i < steps && rt->Step(); ++i) {
    }
    return rt->ExecutionFingerprint();
  };
  EXPECT_NE(run_to(true, 4), run_to(false, 4));
}

TEST(PartitionPlane, IncrementalFingerprintMatchesRecomputeUnderPartitions) {
  ScriptedPartitionStrategy strategy;
  strategy.SetStepFaults({{1, FaultDecision::Kind::kPartition, MachineId{1}},
                          {4, FaultDecision::Kind::kHeal, MachineId{1}}});
  RuntimeOptions options;
  options.max_partitions = 1;
  options.stateful = true;
  options.fingerprint_payloads = true;
  Runtime rt(strategy, options);
  PacedPair(4)(rt);
  do {
    ASSERT_EQ(rt.ExecutionFingerprint(), rt.RecomputeExecutionFingerprint())
        << "at step " << rt.Steps();
  } while (rt.Step());
}

// ---------------------------------------------------------------------------
// Pre-sampled fault placement (PCT-style)

TEST(FaultPlacement, SamplingIsSortedSeedStableAndSized) {
  auto sample = [](std::uint64_t seed) {
    RandomStrategy strategy(seed);
    strategy.SetFaultPlacementPoints(3);
    strategy.PrepareIteration(0, 500);
    const auto span = strategy.PlacedFaultPoints();
    return std::vector<std::uint64_t>(span.begin(), span.end());
  };
  const std::vector<std::uint64_t> a = sample(7);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (const std::uint64_t p : a) EXPECT_LT(p, 500u);
  EXPECT_EQ(a, sample(7));  // same seed, same placement
  EXPECT_NE(a, sample(8));  // different seed, (almost surely) different
}

TEST(FaultPlacement, DestructiveFaultsFireOnlyAtSampledPoints) {
  // With placement armed the geometric per-step roll is off: every crash or
  // partition in the execution must land exactly on a sampled point.
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    RandomStrategy strategy(seed);
    strategy.SetFaultPlacementPoints(2);
    // Sample from a window the execution is guaranteed to cover: the
    // pacer's self-driven loop alone runs 12 pings deep regardless of what
    // the partition suppresses.
    strategy.PrepareIteration(0, 12);
    const auto span = strategy.PlacedFaultPoints();
    const std::vector<std::uint64_t> points(span.begin(), span.end());
    RuntimeOptions options;
    options.max_crashes = 1;
    options.max_partitions = 1;
    options.fault_odds_den = 2;  // would fire nearly every step if geometric
    Runtime rt(strategy, options);
    PacedPair(12)(rt);
    rt.SetCrashable(MachineId{1});
    while (rt.Step()) {
    }
    std::vector<std::uint64_t> fired;
    for (const Decision& d : rt.GetTrace().Decisions()) {
      if (d.kind == Decision::Kind::kCrash ||
          d.kind == Decision::Kind::kPartition) {
        fired.push_back(d.bound);
      }
    }
    // Placement bounds fault depth: never more destructive faults than
    // sampled points. A point pends while no candidate is eligible (e.g.
    // the lone machine is already isolated), so a fault fires AT its point
    // or later — and the first one, with a candidate eligible from step 0,
    // fires exactly on the first point.
    ASSERT_FALSE(fired.empty()) << "seed " << seed;
    ASSERT_LE(fired.size(), points.size()) << "seed " << seed;
    EXPECT_EQ(fired.front(), points.front()) << "seed " << seed;
    for (std::size_t i = 0; i < fired.size(); ++i) {
      EXPECT_GE(fired[i], points[i]) << "seed " << seed;
    }
  }
}

TEST(FaultPlacement, UnarmedStrategyKeepsGeometricPlacement) {
  // A strategy that never samples (placement points configured but
  // PrepareIteration never called SampleFaultPlacement — here: the scripted
  // strategy) keeps its own NextFault behavior untouched.
  ScriptedPartitionStrategy strategy;
  strategy.SetFaultPlacementPoints(4);
  strategy.SetStepFaults({{0, FaultDecision::Kind::kPartition, MachineId{1}}});
  RuntimeOptions options;
  options.max_partitions = 1;
  Runtime rt(strategy, options);
  PacedPair(3)(rt);
  while (rt.Step()) {
  }
  EXPECT_EQ(rt.GetFaultStats().partitions, 1u);
  EXPECT_TRUE(strategy.PlacedFaultPoints().empty());
}

// ---------------------------------------------------------------------------
// Validate rules

TEST(PartitionPlane, ValidateRejectsBrokenPartitionConfigs) {
  TestConfig config;
  config.strategy = "random";
  config.Validate();

  TestConfig heal_every_step = config;
  heal_every_step.max_partitions = 1;
  heal_every_step.partition_heal_den = 1;
  EXPECT_THROW(heal_every_step.Validate(), std::invalid_argument);

  TestConfig placement_without_faults = config;
  placement_without_faults.fault_placement_points = 2;
  EXPECT_THROW(placement_without_faults.Validate(), std::invalid_argument);

  TestConfig ok = config;
  ok.max_partitions = 2;
  ok.partition_heal_den = 4;
  ok.fault_placement_points = 2;
  ok.Validate();  // no throw

  TestConfig heals_off = config;
  heals_off.max_partitions = 1;
  heals_off.partition_heal_den = 0;  // partitions last the whole execution
  heals_off.Validate();              // no throw
}

// ---------------------------------------------------------------------------
// Replay: the trace alone defines the partition schedule

TEST(PartitionPlane, PartitionScheduleReplaysFromTheTraceAlone) {
  Trace recorded;
  int recorded_pings = 0;
  {
    ScriptedPartitionStrategy strategy;
    strategy.SetStepFaults({{0, FaultDecision::Kind::kPartition, MachineId{1}},
                            {3, FaultDecision::Kind::kHeal, MachineId{1}}});
    RuntimeOptions options;
    options.max_partitions = 1;
    Runtime rt(strategy, options);
    PacedPair(6)(rt);
    while (rt.Step()) {
    }
    recorded = rt.GetTrace();
    recorded_pings = CounterAt(rt).pings;
    ASSERT_EQ(rt.GetFaultStats().partitions, 1u);
    ASSERT_EQ(rt.GetFaultStats().heals, 1u);
  }
  {
    systest::ReplayStrategy strategy(recorded);
    strategy.PrepareIteration(0, 10'000);
    RuntimeOptions options;  // NO partition budget, NO heal odds
    options.replay_faults = true;
    Runtime rt(strategy, options);
    PacedPair(6)(rt);
    while (rt.Step()) {
    }
    EXPECT_EQ(CounterAt(rt).pings, recorded_pings);
    EXPECT_EQ(rt.GetFaultStats().partitions, 1u);
    EXPECT_EQ(rt.GetFaultStats().heals, 1u);
    EXPECT_EQ(rt.GetTrace(), recorded);  // bit-for-bit re-record
  }
}

TEST(PartitionPlane, SavedSampleReplTraceReplaysWithoutFaultFlags) {
  // The acceptance criterion: explore the samplerepl partition scenario,
  // save a partition-carrying witness trace to disk, reload it and replay
  // on the main thread with NO fault configuration — the re-recorded trace
  // must be bit-for-bit identical.
  samplerepl::HarnessOptions hopts;
  hopts.partitionable_nodes = true;
  hopts.liveness_monitor = false;
  const systest::Harness harness = samplerepl::MakeHarness(hopts);

  TestConfig explore = samplerepl::DefaultConfig();
  explore.iterations = 20;
  explore.max_partitions = 1;
  Trace witness;
  TestingEngine engine(explore, harness);
  engine.SetIterationCallback(
      [&](std::uint64_t, const systest::ExecutionResult& result) {
        if (witness.Empty() && result.trace.HasPartitionDecisions()) {
          witness = result.trace;
        }
      });
  (void)engine.Run();
  ASSERT_TRUE(witness.HasPartitionDecisions())
      << "no execution drew a partition in the budget";

  // Through the on-disk v3 format, like `systest_run --trace-out/--replay`.
  const std::string path =
      (std::filesystem::temp_directory_path() / "systest_partition.trace")
          .string();
  witness.SaveFile(path);
  const Trace loaded = Trace::LoadFile(path);
  std::filesystem::remove(path);
  ASSERT_EQ(loaded, witness);
  EXPECT_EQ(loaded.Serialize().rfind("systest-trace v3 ", 0), 0u);

  systest::ReplayStrategy strategy(loaded);
  strategy.PrepareIteration(0, explore.max_steps);
  RuntimeOptions options;  // NO fault flags of any kind
  options.replay_faults = true;
  options.max_steps = explore.max_steps;
  Runtime rt(strategy, options);
  systest::StepToCompletion(rt, harness, explore.max_steps);
  EXPECT_GT(rt.GetFaultStats().partitions, 0u);
  EXPECT_EQ(rt.GetTrace(), loaded);  // bit-for-bit
}

}  // namespace
