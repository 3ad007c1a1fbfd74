// Unit tests for the TestingEngine, scheduling strategies, trace recording
// and deterministic replay.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <set>
#include <string>

#include "core/systest.h"
#include "samplerepl/harness.h"

namespace {

using systest::BugKind;
using systest::Event;
using systest::Machine;
using systest::MachineId;
using systest::PctStrategy;
using systest::RandomStrategy;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;
using systest::Trace;

struct Go final : Event {};

// Two racers each send Go to a referee; the referee asserts that racer A
// arrives first. Under any exploring scheduler, the opposite order must be
// found quickly — a minimal "ordering bug".
struct ArrivalEvent final : Event {
  explicit ArrivalEvent(int who) : who(who) {}
  int who;
};

class Referee final : public Machine {
 public:
  Referee() {
    State("Run").On<ArrivalEvent>(&Referee::OnArrival);
    SetStart("Run");
  }

 private:
  void OnArrival(const ArrivalEvent& arrival) {
    if (first_ == 0) {
      first_ = arrival.who;
      Assert(first_ == 1, "racer 2 arrived first");
    }
  }
  int first_ = 0;
};

class Racer final : public Machine {
 public:
  Racer(MachineId referee, int who) : referee_(referee), who_(who) {
    State("Run").OnEntry(&Racer::OnStart);
    SetStart("Run");
  }

 private:
  void OnStart() { Send<ArrivalEvent>(referee_, who_); }
  MachineId referee_;
  int who_;
};

systest::Harness RaceHarness() {
  return [](systest::Runtime& rt) {
    auto referee = rt.CreateMachine<Referee>("Referee");
    rt.CreateMachine<Racer>("Racer1", referee, 1);
    rt.CreateMachine<Racer>("Racer2", referee, 2);
  };
}

TEST(TestingEngine, RandomSchedulerFindsOrderingBug) {
  TestConfig config;
  config.iterations = 1'000;
  config.seed = 1;
  config.strategy = "random";
  TestingEngine engine(config, RaceHarness());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);
  EXPECT_EQ(report.bug_kind, BugKind::kSafety);
  EXPECT_GT(report.ndc, 0u);
  EXPECT_GE(report.bug_iteration, 1u);
}

TEST(TestingEngine, PctSchedulerFindsOrderingBug) {
  TestConfig config;
  config.iterations = 1'000;
  config.seed = 1;
  config.strategy = "pct";
  config.strategy_budget = 2;
  TestingEngine engine(config, RaceHarness());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);
  EXPECT_EQ(report.bug_kind, BugKind::kSafety);
}

TEST(TestingEngine, ReplayReproducesTheSameBug) {
  TestConfig config;
  config.iterations = 1'000;
  config.seed = 7;
  TestingEngine engine(config, RaceHarness());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);

  const TestReport replayed = engine.Replay(report.bug_trace);
  ASSERT_TRUE(replayed.bug_found);
  EXPECT_EQ(replayed.bug_kind, report.bug_kind);
  EXPECT_EQ(replayed.bug_message, report.bug_message);
  EXPECT_EQ(replayed.ndc, report.ndc);
  // The replay runs with readable logging; the log must mention the racers.
  EXPECT_NE(replayed.execution_log.find("Racer2"), std::string::npos);
}

TEST(TestingEngine, TraceRoundTripsThroughText) {
  TestConfig config;
  config.iterations = 1'000;
  config.seed = 7;
  TestingEngine engine(config, RaceHarness());
  const TestReport report = engine.Run();
  ASSERT_TRUE(report.bug_found);

  const Trace parsed = Trace::Parse(report.bug_trace.ToString());
  EXPECT_EQ(parsed, report.bug_trace);
  const TestReport replayed = engine.Replay(parsed);
  EXPECT_TRUE(replayed.bug_found);
}

TEST(TestingEngine, SameSeedIsDeterministic) {
  TestConfig config;
  config.iterations = 200;
  config.seed = 42;
  const TestReport a = TestingEngine(config, RaceHarness()).Run();
  const TestReport b = TestingEngine(config, RaceHarness()).Run();
  ASSERT_EQ(a.bug_found, b.bug_found);
  EXPECT_EQ(a.bug_iteration, b.bug_iteration);
  EXPECT_EQ(a.bug_trace, b.bug_trace);
}

TEST(TestingEngine, CleanProgramReportsNoBug) {
  TestConfig config;
  config.iterations = 200;
  config.seed = 3;
  TestingEngine engine(config, [](systest::Runtime& rt) {
    auto referee = rt.CreateMachine<Referee>("Referee");
    rt.CreateMachine<Racer>("Racer1", referee, 1);  // only racer 1: no race
  });
  const TestReport report = engine.Run();
  EXPECT_FALSE(report.bug_found);
  EXPECT_EQ(report.executions, 200u);
  EXPECT_GT(report.total_steps, 0u);
}

// ---------------------------------------------------------------------------
// Replay equivalence: TestingEngine::Replay runs through ExecutionRunner and
// must be byte-for-byte what a hand-built logging Runtime with replay_faults
// on produces when stepped with StepToCompletion — the log, the re-recorded
// trace, the step count, the fault stats and the bug verdict.

struct ReferenceReplay {
  bool bug_found = false;
  BugKind bug_kind = BugKind::kSafety;
  std::string bug_message;
  std::string log;
  Trace trace;
  std::uint64_t steps = 0;
  systest::Runtime::FaultStats faults;
};

ReferenceReplay ReplayByHand(std::uint64_t max_steps,
                             const systest::Harness& harness,
                             const Trace& trace) {
  ReferenceReplay out;
  systest::ReplayStrategy strategy(trace);
  strategy.PrepareIteration(0, max_steps);
  systest::RuntimeOptions options;
  options.max_steps = max_steps;
  options.logging = true;
  options.replay_faults = true;
  systest::Runtime rt(strategy, options);
  try {
    systest::StepToCompletion(rt, harness, max_steps);
  } catch (const systest::BugFound& bug) {
    out.bug_found = true;
    out.bug_kind = bug.Kind();
    out.bug_message = bug.what();
  }
  out.log = rt.Log();
  out.trace = rt.GetTrace();
  out.steps = rt.Steps();
  out.faults = rt.GetFaultStats();
  return out;
}

/// Replays `trace` with a fault-free config and compares every observable
/// against the hand-built reference.
void ExpectReplayMatchesReference(std::uint64_t max_steps,
                                  const systest::Harness& harness,
                                  const Trace& trace) {
  const ReferenceReplay want = ReplayByHand(max_steps, harness, trace);
  TestConfig config;
  config.max_steps = max_steps;
  const TestReport got = TestingEngine(config, harness).Replay(trace);
  EXPECT_EQ(got.bug_found, want.bug_found);
  EXPECT_EQ(got.bug_kind, want.bug_kind);
  EXPECT_EQ(got.bug_message, want.bug_message);
  EXPECT_FALSE(got.execution_log.empty());
  EXPECT_EQ(got.execution_log, want.log);
  EXPECT_EQ(got.bug_trace, want.trace);
  EXPECT_EQ(got.total_steps, want.steps);
  EXPECT_EQ(got.injected_faults, want.faults);
  EXPECT_EQ(got.faults, want.faults.Total() > 0);
  if (want.bug_found) {
    EXPECT_EQ(got.bug_steps, want.steps);
    EXPECT_EQ(got.ndc, want.trace.Size());
  }
}

/// First execution trace (bug or not) of a `config` run that `accept`s.
Trace FirstTrace(const TestConfig& config, const systest::Harness& harness,
                 const std::function<bool(const Trace&)>& accept) {
  Trace found;
  TestingEngine engine(config, harness);
  engine.SetIterationCallback(
      [&](std::uint64_t, const systest::ExecutionResult& result) {
        if (found.Empty() && accept(result.trace)) {
          found = result.trace;
        }
      });
  (void)engine.Run();
  return found;
}

TEST(ReplayEquivalence, CleanTraceMatchesHandBuiltRuntime) {
  const systest::Harness clean = [](systest::Runtime& rt) {
    auto referee = rt.CreateMachine<Referee>("Referee");
    rt.CreateMachine<Racer>("Racer1", referee, 1);
  };
  TestConfig config;
  config.iterations = 1;
  config.seed = 3;
  const Trace trace =
      FirstTrace(config, clean, [](const Trace& t) { return !t.Empty(); });
  ASSERT_FALSE(trace.Empty());
  ExpectReplayMatchesReference(config.max_steps, clean, trace);
}

TEST(ReplayEquivalence, SafetyBugTraceMatchesHandBuiltRuntime) {
  TestConfig config;
  config.iterations = 1'000;
  config.seed = 7;
  const TestReport report = TestingEngine(config, RaceHarness()).Run();
  ASSERT_TRUE(report.bug_found);
  ASSERT_EQ(report.bug_kind, BugKind::kSafety);
  ExpectReplayMatchesReference(config.max_steps, RaceHarness(),
                               report.bug_trace);
}

TEST(ReplayEquivalence, CrashAndPartitionTraceMatchesHandBuiltRuntime) {
  samplerepl::HarnessOptions hopts;
  hopts.crashable_nodes = true;
  hopts.partitionable_nodes = true;
  hopts.liveness_monitor = false;
  const systest::Harness harness = samplerepl::MakeHarness(hopts);
  TestConfig config = samplerepl::DefaultConfig();
  config.iterations = 200;
  config.stop_on_first_bug = false;
  config.max_crashes = 1;
  config.max_restarts = 1;
  config.max_partitions = 1;
  const Trace trace = FirstTrace(config, harness, [](const Trace& t) {
    bool crashed = false;
    for (const systest::Decision& d : t.Decisions()) {
      crashed = crashed || d.kind == systest::Decision::Kind::kCrash;
    }
    return crashed && t.HasPartitionDecisions();
  });
  ASSERT_FALSE(trace.Empty()) << "no execution drew a crash and a partition";
  EXPECT_EQ(trace.Serialize().rfind("systest-trace v3 ", 0), 0u);
  ExpectReplayMatchesReference(config.max_steps, harness, trace);
}

// ---------------------------------------------------------------------------
// Nondet choice coverage: the engine must explore both branches of a
// controlled boolean choice and all values of an integer choice.

struct Mark final : Event {};

std::set<std::uint64_t>* g_seen = nullptr;

class Chooser final : public Machine {
 public:
  Chooser() {
    State("Run").OnEntry(&Chooser::OnStart);
    SetStart("Run");
  }

 private:
  void OnStart() { g_seen->insert(NondetInt(5)); }
};

TEST(TestingEngine, NondetIntExploresAllValues) {
  std::set<std::uint64_t> seen;
  g_seen = &seen;
  TestConfig config;
  config.iterations = 200;
  config.seed = 11;
  TestingEngine engine(config, [](systest::Runtime& rt) {
    rt.CreateMachine<Chooser>("Chooser");
  });
  const TestReport report = engine.Run();
  g_seen = nullptr;
  EXPECT_FALSE(report.bug_found);
  EXPECT_EQ(seen.size(), 5u) << "all 5 values of NondetInt(5) explored";
}

// ---------------------------------------------------------------------------
// Strategy unit behavior.

TEST(Strategies, RandomIsSeedDeterministic) {
  RandomStrategy a(99), b(99);
  a.PrepareIteration(4, 100);
  b.PrepareIteration(4, 100);
  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3}};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.Next(ids, i).value, b.Next(ids, i).value);
    EXPECT_EQ(a.NextInt(7), b.NextInt(7));
  }
}

TEST(Strategies, PctPrefersOneMachineBetweenChangePoints) {
  PctStrategy strategy(5, 0);  // no change points: pure priority
  strategy.PrepareIteration(0, 100);
  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3}};
  const MachineId first = strategy.Next(ids, 0);
  for (int i = 1; i < 20; ++i) {
    EXPECT_EQ(strategy.Next(ids, i).value, first.value)
        << "without change points PCT must keep scheduling the highest "
           "priority machine";
  }
}

TEST(Strategies, PctChangePointChangesSchedule) {
  // With a demotion budget, the preferred machine must change at some step.
  PctStrategy strategy(5, 3);
  strategy.PrepareIteration(0, 50);
  const MachineId ids[] = {MachineId{1}, MachineId{2}, MachineId{3}};
  std::set<std::uint64_t> scheduled;
  for (int i = 0; i < 50; ++i) {
    scheduled.insert(strategy.Next(ids, i).value);
  }
  EXPECT_GT(scheduled.size(), 1u);
}

TEST(Strategies, TraceParseRejectsGarbage) {
  EXPECT_THROW(Trace::Parse("x1"), std::invalid_argument);
  EXPECT_THROW(Trace::Parse("i3"), std::invalid_argument);   // missing bound
  EXPECT_THROW(Trace::Parse("s;b1"), std::invalid_argument); // empty number
}

}  // namespace
