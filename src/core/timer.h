// SysTest systematic-testing framework.
//
// Modeled timer (paper §3.3, Fig. 9): "System correctness should not hinge on
// the frequency of any individual timer", so all timing nondeterminism is
// delegated to the testing engine. Each loop round the timer makes a
// controlled nondeterministic choice whether to deliver a TimerTick to its
// target; the scheduler is free to interleave those ticks arbitrarily with
// the rest of the system's events.
//
// Flow control: the timer keeps at most ONE un-acknowledged tick in flight —
// after firing it waits for the target's TickAck before looping again. This
// models the fact that a periodic loop does not re-enter itself, and keeps
// the TARGET's queue bounded during long executions (a free-running timer
// would flood it faster than the scheduler drains it). Targets therefore
// MUST reply with TickAck to the machine in TimerTick::timer when they handle
// a tick.
//
// Known defect: the timer's OWN inbox is not bounded. OnAck sends a
// RepeatedEvent and re-entering Running runs OnStart, which sends another,
// so every fired tick leaves one more RepeatedEvent queued (deferred while
// WaitingAck). Removing OnAck's send changes recorded schedules, golden
// traces included, so it is left for a change of its own.
#pragma once

#include <cstdint>

#include "core/event.h"
#include "core/runtime.h"

namespace systest {

/// Delivered to the timer's target when the timer fires. `tag` identifies
/// which of the target's timers fired (a machine may own several, e.g. the
/// Extent Manager's EN-expiration loop and extent-repair loop in §3);
/// `timer` is where the TickAck must be sent.
struct TimerTick final : Event {
  explicit TimerTick(std::uint64_t tag, MachineId timer)
      : tag(tag), timer(timer) {}
  std::uint64_t tag;
  MachineId timer;
};

/// Target -> timer: the tick was processed; the timer may fire again.
struct TickAck final : Event {};

/// Self-event driving the timer loop (Fig. 9's RepeatedEvent).
struct RepeatedEvent final : Event {};

/// Stops the timer (e.g. when its target machine fails).
struct CancelTimer final : Event {};

/// Nondeterministic timer machine. `max_rounds` bounds the number of loop
/// rounds so that executions can reach quiescence; pass 0 for an unbounded
/// timer (executions then always run to the engine's step bound, which is the
/// paper's "bounded infinite execution" regime for liveness checking).
class TimerMachine final : public Machine {
 public:
  static constexpr bool kReusableRuntime = true;

  TimerMachine(MachineId target, std::uint64_t max_rounds,
               std::uint64_t tag = 0);

 private:
  void OnReset() override {
    rounds_left_ = initial_rounds_;
    consecutive_skips_ = 0;
  }

  void OnStart();
  void OnRound();
  void OnAck();
  void OnCancel();

  MachineId target_;
  std::uint64_t initial_rounds_;
  std::uint64_t rounds_left_;
  bool unbounded_;
  std::uint64_t tag_;
  /// Fairness: liveness checking is only sound under fair schedules (§2.5:
  /// "a liveness violation is witnessed by an infinite execution in which
  /// all concurrently executing machines are fairly scheduled"). A timer
  /// whose nondeterministic choice says "don't fire" unboundedly often is an
  /// unfair schedule that would make correct systems look stuck, so after
  /// kMaxConsecutiveSkips skipped rounds the timer fires regardless.
  static constexpr int kMaxConsecutiveSkips = 3;
  int consecutive_skips_ = 0;
};

}  // namespace systest
