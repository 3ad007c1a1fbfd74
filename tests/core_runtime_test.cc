// Unit tests for the SysTest core runtime: machine semantics (send, raise,
// goto, defer, ignore, halt, receive), monitor semantics, end-of-execution
// property checks, the incrementally maintained enabled set against a
// from-scratch scan, and the rejection of strategies that schedule outside
// the enabled set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "api/scenario_registry.h"
#include "api/strategy_registry.h"
#include "core/systest.h"

namespace {

using systest::BugFound;
using systest::BugKind;
using systest::Event;
using systest::Harness;
using systest::Machine;
using systest::MachineId;
using systest::Monitor;
using systest::RoundRobinStrategy;
using systest::Runtime;
using systest::RuntimeOptions;
using systest::Task;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;

// ---------------------------------------------------------------------------
// Events shared by the test machines.

struct Ping final : Event {
  explicit Ping(int n) : n(n) {}
  int n;
};
struct Pong final : Event {
  explicit Pong(int n) : n(n) {}
  int n;
};
struct Kick final : Event {};
struct Stop final : Event {};
struct Probe final : Event {};

// Shared observation channel for assertions. Reset per test.
struct Observations {
  std::vector<std::string> log;
  int counter = 0;
};
Observations* g_obs = nullptr;

class ObservationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    obs_ = std::make_unique<Observations>();
    g_obs = obs_.get();
  }
  void TearDown() override { g_obs = nullptr; }
  std::unique_ptr<Observations> obs_;
};

/// Runs one deterministic (round-robin) execution of `harness` until
/// quiescence or `max_steps`. Returns steps taken.
std::uint64_t RunDeterministic(const Harness& harness,
                               std::uint64_t max_steps = 10'000) {
  RoundRobinStrategy strategy;
  strategy.PrepareIteration(0, max_steps);
  RuntimeOptions options;
  options.max_steps = max_steps;
  Runtime rt(strategy, options);
  harness(rt);
  while (rt.Steps() < max_steps && rt.Step()) {
  }
  rt.CheckTermination(rt.Steps() >= max_steps);
  return rt.Steps();
}

// ---------------------------------------------------------------------------
// Ping-pong: basic send/handle across two machines.

class Ponger final : public Machine {
 public:
  Ponger() {
    State("Run").On<Ping>(&Ponger::OnPing);
    SetStart("Run");
  }

 private:
  void OnPing(const Ping& ping) {
    g_obs->log.push_back("ping" + std::to_string(ping.n));
    Send<Pong>(pinger_, ping.n);
  }

 public:
  MachineId pinger_;
};

class Pinger final : public Machine {
 public:
  explicit Pinger(int rounds) : rounds_(rounds) {
    State("Run").OnEntry(&Pinger::OnStart).On<Pong>(&Pinger::OnPong);
    SetStart("Run");
  }
  MachineId ponger_;

 private:
  void OnStart() { Send<Ping>(ponger_, 0); }
  void OnPong(const Pong& pong) {
    g_obs->log.push_back("pong" + std::to_string(pong.n));
    if (pong.n + 1 < rounds_) {
      Send<Ping>(ponger_, pong.n + 1);
    }
  }
  int rounds_;
};

TEST_F(ObservationFixture, PingPongDeliversInOrder) {
  RunDeterministic([](Runtime& rt) {
    // Two-phase wiring: create both, then fix up ids via direct access.
    auto ponger_id = rt.CreateMachine<Ponger>("Ponger");
    auto pinger_id = rt.CreateMachine<Pinger>("Pinger", 3);
    static_cast<Ponger*>(rt.FindMachine(ponger_id))->pinger_ = pinger_id;
    static_cast<Pinger*>(rt.FindMachine(pinger_id))->ponger_ = ponger_id;
  });
  ASSERT_EQ(g_obs->log.size(), 6u);
  EXPECT_EQ(g_obs->log[0], "ping0");
  EXPECT_EQ(g_obs->log[1], "pong0");
  EXPECT_EQ(g_obs->log[4], "ping2");
  EXPECT_EQ(g_obs->log[5], "pong2");
}

// ---------------------------------------------------------------------------
// Raise: handled before queued events, in the same step.

class Raiser final : public Machine {
 public:
  Raiser() {
    State("Run")
        .On<Kick>(&Raiser::OnKick)
        .On<Probe>(&Raiser::OnProbe)
        .On<Stop>(&Raiser::OnStop);
    SetStart("Run");
  }

 private:
  void OnKick(const Kick&) {
    Send<Stop>(Id());  // queued
    Raise<Probe>();    // must run before Stop
  }
  void OnProbe(const Probe&) { g_obs->log.push_back("probe"); }
  void OnStop(const Stop&) { g_obs->log.push_back("stop"); }
};

TEST_F(ObservationFixture, RaisedEventBeatsQueuedEvent) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<Raiser>("Raiser");
    rt.SendEvent<Kick>(id);
  });
  ASSERT_EQ(g_obs->log.size(), 2u);
  EXPECT_EQ(g_obs->log[0], "probe");
  EXPECT_EQ(g_obs->log[1], "stop");
}

// ---------------------------------------------------------------------------
// Goto: exit and entry actions run in order; OnGoto transitions directly.

class Walker final : public Machine {
 public:
  Walker() {
    State("A")
        .OnEntry(&Walker::EnterA)
        .OnExit(&Walker::ExitA)
        .On<Kick>(&Walker::OnKickA)
        .OnGoto<Probe>("C");
    State("B").OnEntry(&Walker::EnterB).On<Stop>(&Walker::OnStopB);
    State("C").OnEntry(&Walker::EnterC);
    SetStart("A");
  }

 private:
  void EnterA() { g_obs->log.push_back("enterA"); }
  void ExitA() { g_obs->log.push_back("exitA"); }
  void OnKickA(const Kick&) { Goto("B"); }
  void EnterB() { g_obs->log.push_back("enterB"); }
  void OnStopB(const Stop&) { g_obs->log.push_back("stopB"); }
  void EnterC() { g_obs->log.push_back("enterC"); }
};

TEST_F(ObservationFixture, GotoRunsExitThenEntry) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<Walker>("Walker");
    rt.SendEvent<Kick>(id);
    rt.SendEvent<Stop>(id);
  });
  ASSERT_EQ(g_obs->log.size(), 4u);
  EXPECT_EQ(g_obs->log[0], "enterA");
  EXPECT_EQ(g_obs->log[1], "exitA");
  EXPECT_EQ(g_obs->log[2], "enterB");
  EXPECT_EQ(g_obs->log[3], "stopB");
}

TEST_F(ObservationFixture, DeclaredGotoTransitionsWithoutHandler) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<Walker>("Walker");
    rt.SendEvent<Probe>(id);  // OnGoto<Probe>("C")
  });
  ASSERT_EQ(g_obs->log.size(), 3u);
  EXPECT_EQ(g_obs->log[1], "exitA");
  EXPECT_EQ(g_obs->log[2], "enterC");
}

// ---------------------------------------------------------------------------
// Defer and Ignore.

class Deferrer final : public Machine {
 public:
  Deferrer() {
    State("First")
        .Defer<Probe>()
        .Ignore<Stop>()
        .On<Kick>(&Deferrer::OnKick);
    State("Second").OnEntry(&Deferrer::EnterSecond).On<Probe>(&Deferrer::OnProbe);
    SetStart("First");
  }

 private:
  void OnKick(const Kick&) { Goto("Second"); }
  void EnterSecond() { g_obs->log.push_back("second"); }
  void OnProbe(const Probe&) { g_obs->log.push_back("probe"); }
};

TEST_F(ObservationFixture, DeferredEventIsHandledAfterTransition) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<Deferrer>("Deferrer");
    rt.SendEvent<Probe>(id);  // deferred in First
    rt.SendEvent<Stop>(id);   // ignored in First
    rt.SendEvent<Kick>(id);   // transitions to Second
  });
  ASSERT_EQ(g_obs->log.size(), 2u);
  EXPECT_EQ(g_obs->log[0], "second");
  EXPECT_EQ(g_obs->log[1], "probe");
}

// ---------------------------------------------------------------------------
// Unhandled events are a bug.

class NoHandler final : public Machine {
 public:
  NoHandler() {
    State("Run");
    SetStart("Run");
  }
};

TEST_F(ObservationFixture, UnhandledEventIsReported) {
  try {
    RunDeterministic([](Runtime& rt) {
      auto id = rt.CreateMachine<NoHandler>("NoHandler");
      rt.SendEvent<Kick>(id);
    });
    FAIL() << "expected BugFound";
  } catch (const BugFound& bug) {
    EXPECT_EQ(bug.Kind(), BugKind::kUnhandledEvent);
    EXPECT_NE(std::string(bug.what()).find("Kick"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Halt: events to halted machines are dropped silently.

class Halter final : public Machine {
 public:
  Halter() {
    State("Run").On<Kick>(&Halter::OnKick).On<Probe>(&Halter::OnProbe);
    SetStart("Run");
  }

 private:
  void OnKick(const Kick&) {
    g_obs->log.push_back("kick");
    Halt();
  }
  void OnProbe(const Probe&) { g_obs->log.push_back("probe"); }
};

TEST_F(ObservationFixture, HaltedMachineDropsSubsequentEvents) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<Halter>("Halter");
    rt.SendEvent<Kick>(id);
    rt.SendEvent<Probe>(id);  // must be dropped, not unhandled
  });
  ASSERT_EQ(g_obs->log.size(), 1u);
  EXPECT_EQ(g_obs->log[0], "kick");
}

TEST_F(ObservationFixture, HaltEventHaltsMachine) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<Halter>("Halter");
    rt.SendEvent(id, systest::MakeEvent<systest::HaltEvent>());
    rt.SendEvent<Probe>(id);
  });
  EXPECT_TRUE(g_obs->log.empty());
}

// ---------------------------------------------------------------------------
// Receive: coroutine handlers block for specific events; others stay queued.

class Receiver final : public Machine {
 public:
  Receiver() {
    State("Run").OnEntry(&Receiver::Protocol).On<Stop>(&Receiver::OnStop);
    SetStart("Run");
  }

 private:
  Task Protocol() {
    auto ping = co_await Receive<Ping>();
    g_obs->log.push_back("got-ping" + std::to_string(ping->n));
    auto pong = co_await Receive<Pong>();
    g_obs->log.push_back("got-pong" + std::to_string(pong->n));
  }
  void OnStop(const Stop&) { g_obs->log.push_back("stop"); }
};

TEST_F(ObservationFixture, ReceiveDequeuesOnlyMatchingEvents) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<Receiver>("Receiver");
    // Pong arrives before Ping, but the protocol waits for Ping first: the
    // Pong must stay queued and be delivered to the second Receive.
    rt.SendEvent<Pong>(id, 7);
    rt.SendEvent<Ping>(id, 3);
    rt.SendEvent<Stop>(id);
  });
  ASSERT_EQ(g_obs->log.size(), 3u);
  EXPECT_EQ(g_obs->log[0], "got-ping3");
  EXPECT_EQ(g_obs->log[1], "got-pong7");
  EXPECT_EQ(g_obs->log[2], "stop");  // handled after the coroutine finished
}

// Nested coroutines: a handler co_awaits a sub-task that itself receives.
class NestedReceiver final : public Machine {
 public:
  NestedReceiver() {
    State("Run").OnEntry(&NestedReceiver::Protocol);
    SetStart("Run");
  }

 private:
  systest::TaskOf<int> ReceiveTwo() {
    auto a = co_await Receive<Ping>();
    auto b = co_await Receive<Ping>();
    co_return a->n + b->n;
  }
  Task Protocol() {
    const int sum = co_await ReceiveTwo();
    g_obs->counter = sum;
  }
};

TEST_F(ObservationFixture, NestedTasksPropagateValues) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<NestedReceiver>("NestedReceiver");
    rt.SendEvent<Ping>(id, 20);
    rt.SendEvent<Ping>(id, 22);
  });
  EXPECT_EQ(g_obs->counter, 42);
}

class AnyReceiver final : public Machine {
 public:
  AnyReceiver() {
    State("Run").OnEntry(&AnyReceiver::Protocol).Ignore<Pong>();
    SetStart("Run");
  }

 private:
  Task Protocol() {
    auto ev = co_await ReceiveAny<Ping, Stop>();
    g_obs->log.push_back(ev->Name());
  }
};

TEST_F(ObservationFixture, ReceiveAnyTakesFirstMatching) {
  RunDeterministic([](Runtime& rt) {
    auto id = rt.CreateMachine<AnyReceiver>("AnyReceiver");
    rt.SendEvent<Pong>(id, 1);  // not in the wait set — stays queued
    rt.SendEvent<Stop>(id);
  });
  ASSERT_EQ(g_obs->log.size(), 1u);
  EXPECT_EQ(g_obs->log[0], "Stop");
}

// ---------------------------------------------------------------------------
// Deadlock: a machine blocked in Receive at quiescence.

class Starver final : public Machine {
 public:
  Starver() {
    State("Run").OnEntry(&Starver::Protocol);
    SetStart("Run");
  }

 private:
  Task Protocol() {
    (void)co_await Receive<Ping>();  // never sent
  }
};

TEST_F(ObservationFixture, BlockedReceiveAtQuiescenceIsDeadlock) {
  try {
    RunDeterministic(
        [](Runtime& rt) { rt.CreateMachine<Starver>("Starver"); });
    FAIL() << "expected BugFound";
  } catch (const BugFound& bug) {
    EXPECT_EQ(bug.Kind(), BugKind::kDeadlock);
  }
}

// ---------------------------------------------------------------------------
// Monitors: safety assertion and hot-at-quiescence liveness.

struct Observed final : Event {};
struct Progress final : Event {};

class CountingMonitor final : public Monitor {
 public:
  explicit CountingMonitor(int limit) : limit_(limit) {
    State("Run").On<Observed>(&CountingMonitor::OnObserved);
    SetStart("Run");
  }

 private:
  void OnObserved() {
    ++count_;
    Assert(count_ <= limit_, "observed too many notifications");
  }
  int limit_;
  int count_ = 0;
};

class Notifier final : public Machine {
 public:
  explicit Notifier(int times) : times_(times) {
    State("Run").OnEntry(&Notifier::OnStart);
    SetStart("Run");
  }

 private:
  void OnStart() {
    for (int i = 0; i < times_; ++i) {
      Notify<CountingMonitor, Observed>();
    }
  }
  int times_;
};

TEST_F(ObservationFixture, SafetyMonitorAssertFires) {
  try {
    RunDeterministic([](Runtime& rt) {
      rt.RegisterMonitor<CountingMonitor>("CountingMonitor", 2);
      rt.CreateMachine<Notifier>("Notifier", 3);
    });
    FAIL() << "expected BugFound";
  } catch (const BugFound& bug) {
    EXPECT_EQ(bug.Kind(), BugKind::kSafety);
    EXPECT_NE(std::string(bug.what()).find("too many"), std::string::npos);
  }
}

TEST_F(ObservationFixture, SafetyMonitorWithinLimitPasses) {
  EXPECT_NO_THROW(RunDeterministic([](Runtime& rt) {
    rt.RegisterMonitor<CountingMonitor>("CountingMonitor", 3);
    rt.CreateMachine<Notifier>("Notifier", 3);
  }));
}

class HotColdMonitor final : public Monitor {
 public:
  HotColdMonitor() {
    State("Cold").Cold().On<Observed>(&HotColdMonitor::ToHot).Ignore<Progress>();
    State("Hot").Hot().On<Progress>(&HotColdMonitor::ToCold).Ignore<Observed>();
    SetStart("Cold");
  }

 private:
  void ToHot() { Goto("Hot"); }
  void ToCold() { Goto("Cold"); }
};

class HotDriver final : public Machine {
 public:
  explicit HotDriver(bool make_progress) : make_progress_(make_progress) {
    State("Run").OnEntry(&HotDriver::OnStart);
    SetStart("Run");
  }

 private:
  void OnStart() {
    Notify<HotColdMonitor, Observed>();
    if (make_progress_) {
      Notify<HotColdMonitor, Progress>();
    }
  }
  bool make_progress_;
};

TEST_F(ObservationFixture, HotMonitorAtQuiescenceIsLivenessBug) {
  try {
    RunDeterministic([](Runtime& rt) {
      rt.RegisterMonitor<HotColdMonitor>("HotColdMonitor");
      rt.CreateMachine<HotDriver>("HotDriver", false);
    });
    FAIL() << "expected BugFound";
  } catch (const BugFound& bug) {
    EXPECT_EQ(bug.Kind(), BugKind::kLiveness);
  }
}

TEST_F(ObservationFixture, ColdMonitorAtQuiescencePasses) {
  EXPECT_NO_THROW(RunDeterministic([](Runtime& rt) {
    rt.RegisterMonitor<HotColdMonitor>("HotColdMonitor");
    rt.CreateMachine<HotDriver>("HotDriver", true);
  }));
}

// ---------------------------------------------------------------------------
// Machine-level Assert.

class SelfAsserter final : public Machine {
 public:
  SelfAsserter() {
    State("Run").OnEntry(&SelfAsserter::OnStart);
    SetStart("Run");
  }

 private:
  void OnStart() { Assert(false, "boom"); }
};

TEST_F(ObservationFixture, MachineAssertIsSafetyBug) {
  try {
    RunDeterministic(
        [](Runtime& rt) { rt.CreateMachine<SelfAsserter>("SelfAsserter"); });
    FAIL() << "expected BugFound";
  } catch (const BugFound& bug) {
    EXPECT_EQ(bug.Kind(), BugKind::kSafety);
    EXPECT_NE(std::string(bug.what()).find("boom"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Runtime stats (feeds the Table 1 bench).

TEST_F(ObservationFixture, StatsCountStatesAndHandlers) {
  RoundRobinStrategy strategy;
  strategy.PrepareIteration(0, 100);
  Runtime rt(strategy, {});
  rt.CreateMachine<Walker>("Walker");
  const auto stats = rt.GetStats();
  EXPECT_EQ(stats.machines, 1u);
  EXPECT_EQ(stats.states, 3u);
  EXPECT_GE(stats.action_handlers, 5u);
  EXPECT_EQ(stats.declared_transitions, 1u);  // OnGoto<Probe>
}

// ---------------------------------------------------------------------------
// The enabled set Runtime::Step maintains incrementally equals a from-scratch
// IsEnabled scan at every scheduling point.

/// Forwards every decision to `inner` and, at each scheduling point, checks
/// the span Runtime::Step hands over against Runtime::RecomputeEnabledSet.
class EnabledSetOracle final : public systest::SchedulingStrategy {
 public:
  explicit EnabledSetOracle(std::unique_ptr<SchedulingStrategy> inner)
      : inner_(std::move(inner)) {}

  /// The runtime being stepped; the harness wrapper rebinds it on every
  /// build (a recycled runtime is built once).
  void Bind(const Runtime* runtime) { runtime_ = runtime; }
  [[nodiscard]] const Runtime& Bound() const { return *runtime_; }

  void PrepareIteration(std::uint64_t iteration,
                        std::uint64_t max_steps) override {
    inner_->SetFaultPlacementPoints(FaultPlacementPoints());
    inner_->PrepareIteration(iteration, max_steps);
  }
  MachineId Next(std::span<const MachineId> enabled,
                 std::uint64_t step) override {
    ++checks;
    const std::vector<MachineId> expected = runtime_->RecomputeEnabledSet();
    if (step == 0) {
      machines_at_start_ = runtime_->MachineCount();
    } else if (runtime_->MachineCount() > machines_at_start_) {
      created_mid_execution = true;
    }
    if (std::equal(enabled.begin(), enabled.end(), expected.begin(),
                   expected.end())) {
      return inner_->Next(enabled, step);
    }
    if (mismatches++ == 0) {
      first_mismatch = "step " + std::to_string(step) + ": span " +
                       Ids(enabled) + ", scan " + Ids(expected);
    }
    // Keep a broken runtime on machines that exist and can run, so the
    // mismatch is reported instead of crashing the test.
    return inner_->Next(expected.empty() ? enabled : expected, step);
  }
  bool NextBool() override { return inner_->NextBool(); }
  std::uint64_t NextInt(std::uint64_t bound) override {
    return inner_->NextInt(bound);
  }
  systest::FaultDecision NextFault(const systest::FaultContext& ctx) override {
    return inner_->NextFault(ctx);
  }
  systest::DeliveryFault NextDeliveryFault(
      const systest::DeliveryFaultContext& ctx) override {
    return inner_->NextDeliveryFault(ctx);
  }
  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  [[nodiscard]] std::uint64_t PruneHoldoffSteps() const noexcept override {
    return inner_->PruneHoldoffSteps();
  }

  std::uint64_t checks = 0;
  std::uint64_t mismatches = 0;
  std::string first_mismatch;
  bool created_mid_execution = false;

 private:
  static std::string Ids(std::span<const MachineId> ids) {
    std::string out = "{";
    for (const MachineId id : ids) {
      out += ' ';
      out += std::to_string(id.value);
    }
    out += " }";
    return out;
  }

  std::unique_ptr<SchedulingStrategy> inner_;
  const Runtime* runtime_ = nullptr;
  std::size_t machines_at_start_ = 0;
};

/// Whether the execution ended because no machine was enabled.
bool EndedQuiescent(const systest::ExecutionResult& result) {
  return !result.hit_step_bound && !result.pruned &&
         (!result.bug_found || result.bug_kind == BugKind::kLiveness ||
          result.bug_kind == BugKind::kDeadlock);
}

struct OracleSweep {
  Runtime::FaultStats faults;
  bool created_mid_execution = false;
};

/// Runs every registered scenario through a recycled ExecutionRunner with
/// every fault kind armed, checking the enabled set at every step and, after
/// a quiescent end, that the scan agrees nothing is enabled.
void SweepEveryScenario(bool stateful, OracleSweep& sweep) {
  constexpr std::uint64_t kIterations = 40;
  for (const systest::api::Scenario* scenario :
       systest::api::ScenarioRegistry::Instance().All()) {
    SCOPED_TRACE(scenario->name);
    TestConfig config = scenario->default_config();
    config.stateful = stateful;
    config.max_crashes = 2;
    config.max_restarts = 2;
    config.max_partitions = 2;
    config.max_duplications = 2;
    config.drop_probability_den = 16;
    config.fault_odds_den = 8;
    EnabledSetOracle oracle(systest::StrategyRegistry::Instance().Create(
        config.strategy, config.seed, config.strategy_budget));
    const Harness inner = scenario->make(systest::api::ParamMap{});
    const Harness harness = [&oracle, &inner](Runtime& rt) {
      oracle.Bind(&rt);
      inner(rt);
    };
    systest::FingerprintSet visited(
        static_cast<std::size_t>(config.max_visited));
    systest::ExecutionRunner runner(config, harness, oracle, nullptr);
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      const systest::ExecutionResult result =
          runner.RunOne(i, stateful ? &visited : nullptr);
      sweep.faults += result.faults;
      ASSERT_TRUE(runner.Recycling()) << "iteration " << i;
      if (EndedQuiescent(result)) {
        EXPECT_TRUE(oracle.Bound().RecomputeEnabledSet().empty())
            << "iteration " << i << " ended quiescent with machines enabled";
      }
    }
    EXPECT_GT(oracle.checks, 0u);
    EXPECT_EQ(oracle.mismatches, 0u) << oracle.first_mismatch;
    sweep.created_mid_execution |= oracle.created_mid_execution;
  }
}

TEST(EnabledSetOracle, EveryScenarioStatelessUnderFaults) {
  OracleSweep sweep;
  SweepEveryScenario(/*stateful=*/false, sweep);
  // The sweep proves the crash/restart/partition/duplication and
  // mid-execution-create paths only if they actually ran.
  EXPECT_GT(sweep.faults.crashes, 0u);
  EXPECT_GT(sweep.faults.restarts, 0u);
  EXPECT_GT(sweep.faults.partitions, 0u);
  EXPECT_GT(sweep.faults.duplications, 0u);
  EXPECT_TRUE(sweep.created_mid_execution);
}

TEST(EnabledSetOracle, EveryScenarioStatefulUnderFaults) {
  OracleSweep sweep;
  SweepEveryScenario(/*stateful=*/true, sweep);
  EXPECT_GT(sweep.faults.crashes, 0u);
  EXPECT_GT(sweep.faults.restarts, 0u);
}

/// Blocks in Receive<Ping>; a queued Stop must not wake it.
class PickyReceiver final : public Machine {
 public:
  PickyReceiver() {
    State("Run").OnEntry(&PickyReceiver::Protocol).Ignore<Stop>();
    SetStart("Run");
  }

 private:
  Task Protocol() { (void)co_await Receive<Ping>(); }
};

/// Sends `receiver` a Stop, then one step later a Ping.
class StopThenPing final : public Machine {
 public:
  explicit StopThenPing(MachineId receiver) : receiver_(receiver) {
    State("Run")
        .OnEntry(&StopThenPing::OnStart)
        .On<Kick>(&StopThenPing::OnKick);
    SetStart("Run");
  }

 private:
  void OnStart() {
    Send<Stop>(receiver_);
    Send<Kick>(Id());
  }
  void OnKick() { Send<Ping>(receiver_, 0); }
  MachineId receiver_;
};

TEST(EnabledSetOracle, ReceiveWakesOnlyOnAWaitedType) {
  // No registered scenario delivers an unwaited type to a machine blocked in
  // Receive, so the sweep above cannot see that case.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    SCOPED_TRACE(seed);
    EnabledSetOracle oracle(std::make_unique<systest::RandomStrategy>(seed));
    oracle.PrepareIteration(0, 100);
    RuntimeOptions options;
    options.max_steps = 100;
    Runtime rt(oracle, options);
    oracle.Bind(&rt);
    const MachineId receiver = rt.CreateMachine<PickyReceiver>("Receiver");
    rt.CreateMachine<StopThenPing>("Sender", receiver);
    while (rt.Step()) {
    }
    EXPECT_TRUE(rt.RecomputeEnabledSet().empty());
    EXPECT_EQ(oracle.mismatches, 0u) << oracle.first_mismatch;
  }
}

// ---------------------------------------------------------------------------
// A strategy that schedules outside the enabled set is a harness error that
// names the strategy, never a crash or a false bug in the system under test.

/// Deliberately broken third-party strategy. Budget 0 schedules machine id
/// 0, budget 1 an id past every machine, budget 2 the lowest existing id
/// that is not enabled (the first enabled one while there is none).
class BadPickStrategy final : public systest::SchedulingStrategy {
 public:
  explicit BadPickStrategy(int mode) : mode_(mode) {}

  void PrepareIteration(std::uint64_t, std::uint64_t) override {}
  MachineId Next(std::span<const MachineId> enabled,
                 std::uint64_t /*step*/) override {
    if (mode_ == 0) return MachineId{0};
    if (mode_ == 1) return MachineId{enabled.back().value + 100};
    for (std::uint64_t id = 1; id <= enabled.back().value; ++id) {
      if (!std::binary_search(enabled.begin(), enabled.end(), MachineId{id})) {
        return MachineId{id};
      }
    }
    return enabled.front();
  }
  bool NextBool() override { return false; }
  std::uint64_t NextInt(std::uint64_t) override { return 0; }
  [[nodiscard]] std::string Name() const override {
    return "bad-pick(" + std::to_string(mode_) + ")";
  }

 private:
  int mode_;
};

SYSTEST_REGISTER_STRATEGY(bad_pick, "bad-pick",
                          "schedules outside the enabled set (tests)",
                          [](std::uint64_t, int budget) {
                            return std::make_unique<BadPickStrategy>(budget);
                          });

/// Sends itself `kicks` Kicks, one per step, so it stays enabled meanwhile.
class SelfKicker final : public Machine {
 public:
  explicit SelfKicker(int kicks) : kicks_(kicks) {
    State("Run").OnEntry(&SelfKicker::OnKick).On<Kick>(&SelfKicker::OnKick);
    SetStart("Run");
  }

 private:
  void OnKick() {
    if (kicks_-- > 0) Send<Kick>(Id());
  }
  int kicks_;
};

TEST(StrategyContract, SchedulingOutsideTheEnabledSetIsAHarnessError) {
  // Starver (id 1) blocks in Receive after its first step while SelfKicker
  // (id 2) stays enabled, so bad-pick(2) schedules a live but disabled
  // machine at step 1.
  const Harness harness = [](Runtime& rt) {
    rt.CreateMachine<Starver>("Starver");
    rt.CreateMachine<SelfKicker>("SelfKicker", 5);
  };
  const struct {
    const char* strategy;
    const char* what;
  } cases[] = {{"bad-pick(0)", "machine 0, which is unknown"},
               {"bad-pick(1)", "machine 102, which is unknown"},
               {"bad-pick(2)", "machine 1, which is not enabled"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.strategy);
    TestConfig config;
    config.iterations = 1;
    config.max_steps = 100;
    config.strategy = c.strategy;
    TestingEngine engine(config, harness);
    const TestReport report = engine.Run();
    ASSERT_TRUE(report.bug_found);
    EXPECT_EQ(report.bug_kind, BugKind::kHarnessError);
    EXPECT_NE(report.bug_message.find(std::string("strategy '") + c.strategy +
                                      "' scheduled " + c.what),
              std::string::npos)
        << report.bug_message;
  }
}

}  // namespace
