// SysTest systematic-testing framework.
//
// Machine, Monitor and Runtime — the C++ rendering of the P# programming
// model (§2.1 of the paper): programs are state machines that communicate
// asynchronously by exchanging events; each machine has an event queue and
// one or more states; states register actions for incoming events; sends are
// non-blocking. During testing the runtime *serializes* the system: a single
// scheduling step picks one enabled machine and runs it until it yields
// (handler completion, or suspension in a Receive). Every scheduling decision
// and every controlled nondeterministic choice is recorded in a Trace, which
// makes executions fully replayable.
//
// Hot-path architecture (this is the inner loop of every 100k-execution
// testing budget):
//  * State declarations are compiled once per machine TYPE into an immutable
//    shared MachineDecl (core/decl.h); instances after the first skip
//    declaration building entirely. Event dispatch is flat-vector indexing
//    on interned EventTypeIds, not hashing on type_index.
//  * Each machine caches its enabled-flag; Runtime::Step re-examines only
//    machines whose queue or control state changed since the last step, and
//    reuses one scratch buffer for the enabled set.
//  * Assertion messages are built only on failure, and the execution log
//    appends into a single buffer (and only when logging is on).
#pragma once

#include <cassert>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <typeindex>
#include <utility>
#include <vector>

#include "core/bug.h"
#include "core/decl.h"
#include "core/event.h"
#include "core/event_queue.h"
#include "core/fingerprint.h"
#include "core/strategy.h"
#include "core/task.h"
#include "core/trace.h"

namespace systest {

class Machine;
class Monitor;
class Runtime;

namespace obs {
struct ExecutionProbe;  // obs/probe.h — per-execution instrumentation sink
}  // namespace obs

namespace detail {
class EventArena;  // core/event_arena.h — execution-scoped event storage
}  // namespace detail

/// Fluent builder used in machine constructors to declare a state's behavior.
/// Inert (decl_ == nullptr) when the machine type's declarations are already
/// compiled — see core/decl.h.
class StateBuilder {
 public:
  explicit StateBuilder(detail::StateDecl* decl) : decl_(decl) {}

  /// Registers a synchronous action for event E: void M::Fn(const E&).
  template <typename E, typename M>
  StateBuilder& On(void (M::*fn)(const E&)) {
    if (decl_ == nullptr) return *this;
    decl_->handlers[EventTypeIdOf<E>()].sync = [fn](Machine& m,
                                                    const Event* e) {
      (static_cast<M&>(m).*fn)(static_cast<const E&>(*e));
    };
    return *this;
  }

  /// Registers a synchronous action that ignores the payload: void M::Fn().
  template <typename E, typename M>
  StateBuilder& On(void (M::*fn)()) {
    if (decl_ == nullptr) return *this;
    decl_->handlers[EventTypeIdOf<E>()].sync = [fn](Machine& m, const Event*) {
      (static_cast<M&>(m).*fn)();
    };
    return *this;
  }

  /// Registers a coroutine action for event E: Task M::Fn(const E&). The
  /// event stays alive until the coroutine completes.
  template <typename E, typename M>
  StateBuilder& On(Task (M::*fn)(const E&)) {
    if (decl_ == nullptr) return *this;
    decl_->handlers[EventTypeIdOf<E>()].coro = [fn](Machine& m,
                                                    const Event* e) {
      return (static_cast<M&>(m).*fn)(static_cast<const E&>(*e));
    };
    return *this;
  }

  /// Registers a coroutine action ignoring the payload: Task M::Fn().
  template <typename E, typename M>
  StateBuilder& On(Task (M::*fn)()) {
    if (decl_ == nullptr) return *this;
    decl_->handlers[EventTypeIdOf<E>()].coro = [fn](Machine& m, const Event*) {
      return (static_cast<M&>(m).*fn)();
    };
    return *this;
  }

  /// On event E, transition directly to `target` (exit/entry actions run).
  template <typename E>
  StateBuilder& OnGoto(std::string target) {
    if (decl_ == nullptr) return *this;
    decl_->gotos[EventTypeIdOf<E>()] = std::move(target);
    return *this;
  }

  /// Defer E in this state: it stays queued until a state handles it.
  template <typename E>
  StateBuilder& Defer() {
    if (decl_ == nullptr) return *this;
    decl_->defers.insert(EventTypeIdOf<E>());
    return *this;
  }

  /// Ignore (drop) E in this state.
  template <typename E>
  StateBuilder& Ignore() {
    if (decl_ == nullptr) return *this;
    decl_->ignores.insert(EventTypeIdOf<E>());
    return *this;
  }

  /// Entry action, synchronous: void M::Fn().
  template <typename M>
  StateBuilder& OnEntry(void (M::*fn)()) {
    if (decl_ == nullptr) return *this;
    decl_->entry.sync = [fn](Machine& m, const Event*) {
      (static_cast<M&>(m).*fn)();
    };
    return *this;
  }

  /// Entry action, coroutine: Task M::Fn().
  template <typename M>
  StateBuilder& OnEntry(Task (M::*fn)()) {
    if (decl_ == nullptr) return *this;
    decl_->entry.coro = [fn](Machine& m, const Event*) {
      return (static_cast<M&>(m).*fn)();
    };
    return *this;
  }

  /// Exit action (always synchronous; P# exit actions cannot block).
  template <typename M>
  StateBuilder& OnExit(void (M::*fn)()) {
    if (decl_ == nullptr) return *this;
    decl_->exit = [fn](Machine& m) { (static_cast<M&>(m).*fn)(); };
    return *this;
  }

 private:
  detail::StateDecl* decl_;
};

template <typename E>
class ReceiveAwaiter;
template <typename... Es>
class ReceiveAnyAwaiter;

namespace detail {
template <typename F>
concept AssertMessageFn = std::is_invocable_r_v<std::string, F&>;
}  // namespace detail

/// Base class for P#-style machines. Subclasses declare their states in the
/// constructor with State(...)/SetStart(...) and interact with the world
/// exclusively through the protected runtime API (Send, Raise, Goto, Create,
/// NondetBool/Int, Receive, Halt, Assert, Notify).
///
/// Declarations are per-TYPE (compiled and shared on first use): a
/// constructor must declare the same states for every instance of the class.
/// Per-instance variation belongs in member data or SetStart.
class Machine {
 public:
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;
  virtual ~Machine() = default;

  [[nodiscard]] MachineId Id() const noexcept { return id_; }
  [[nodiscard]] const std::string& DebugName() const noexcept { return debug_name_; }
  [[nodiscard]] bool Halted() const noexcept { return halted_; }
  /// Crashed by the fault plane: inert like a halted machine (queue wiped,
  /// deliveries dropped) but eligible for a scheduler-controlled restart.
  [[nodiscard]] bool Crashed() const noexcept { return crashed_; }
  /// Opted in as a crash candidate (Runtime::SetCrashable).
  [[nodiscard]] bool Crashable() const noexcept { return crashable_; }
  /// Opted in as a partition candidate (Runtime::SetPartitionable).
  [[nodiscard]] bool Partitionable() const noexcept { return partitionable_; }
  /// Currently isolated by an installed partition: the machine keeps
  /// running, but every delivery between it and any OTHER machine is
  /// silently dropped until the partition heals. Self-sends and harness
  /// sends are exempt, like the rest of the delivery fault plane.
  [[nodiscard]] bool Partitioned() const noexcept { return partitioned_; }
  /// How many times the fault plane restarted this machine.
  [[nodiscard]] std::uint64_t RestartCount() const noexcept {
    return restart_count_;
  }
  [[nodiscard]] const std::string& CurrentStateName() const;
  [[nodiscard]] std::size_t QueueLength() const noexcept { return queue_.Size(); }
  /// Compiled state declarations this instance runs on (shared per type
  /// unless the type opts out — test/introspection use).
  [[nodiscard]] const detail::MachineDecl* StateDecls() const noexcept {
    return decl_;
  }

  /// Dense per-type id of the current state (index into StateDecls()'s state
  /// vector). Only meaningful once the machine has entered a state.
  [[nodiscard]] detail::StateId CurrentStateId() const noexcept {
    return static_cast<detail::StateId>(current_state_ - decl_->states.data());
  }

  /// State-entry counts indexed by dense StateId (start entry, transitions
  /// and restarts all count). Empty unless the owning Runtime was given a
  /// coverage-collecting probe (RuntimeOptions::probe) — sized at attach, so
  /// a non-empty vector always matches StateDecls()'s state count.
  [[nodiscard]] const std::vector<std::uint64_t>& StateVisitCounts()
      const noexcept {
    return state_visits_;
  }

  /// This machine's contribution to the execution fingerprint: id, control
  /// flags, dense current StateId, receive-wait set and queued event-type
  /// ids; `payloads` additionally mixes in FingerprintPayload. Pure — safe
  /// to call at any point between scheduling steps.
  [[nodiscard]] Fingerprint ComputeStateFingerprint(bool payloads) const;

  /// Domain payload hook for stateful exploration: mix any semantic state
  /// (counters, stored values, ...) that distinguishes program states beyond
  /// the default structural view. Default contributes nothing, so the
  /// default view is the current state id plus the queue. Only consulted
  /// when fingerprint_payloads is enabled. The hashed state must be OWNED by
  /// this machine and mutated only in its own handlers (or during harness
  /// setup, before stepping starts) — the incremental fingerprint rehashes a
  /// machine when it steps or receives, so out-of-band mutation through
  /// FindMachine from another machine's handler would go stale.
  virtual void FingerprintPayload(StateHasher& /*hasher*/) const {}

 protected:
  Machine() = default;

  // ---- Declaration API (constructor only) ----

  /// Creates or retrieves the state `name` for further declaration.
  StateBuilder State(std::string name);

  /// Sets the state entered when the machine starts. Per-instance (unlike
  /// the state declarations themselves), so a constructor may pick the start
  /// state from its arguments.
  void SetStart(std::string name) { start_state_ = std::move(name); }

  // ---- Runtime API (handlers only) ----

  /// The runtime this machine is attached to.
  [[nodiscard]] Runtime& Rt() {
    if (runtime_ == nullptr) [[unlikely]] {
      ThrowUnattached();
    }
    return *runtime_;
  }

  /// Non-blocking send: enqueues `ev` into `target`'s queue. (Defined after
  /// Runtime, inline: one hop straight into DeliverEvent.)
  void Send(MachineId target, std::unique_ptr<const Event> ev);

  template <typename E, typename... Args>
  void Send(MachineId target, Args&&... args) {
    Send(target, MakeEvent<E>(std::forward<Args>(args)...));
  }

  /// Raises an event on this machine: handled before any queued event, in
  /// the (possibly new) current state, as part of the same atomic step.
  template <typename E, typename... Args>
  void Raise(Args&&... args) {
    RaiseEvent(MakeEvent<E>(std::forward<Args>(args)...));
  }
  void RaiseEvent(std::unique_ptr<const Event> ev);

  /// Transitions to `state` after the current action completes.
  void Goto(std::string state);

  /// Halts this machine after the current action completes; all queued and
  /// future events are silently dropped (P# halt semantics).
  void Halt() { pending_halt_ = true; }

  /// Controlled nondeterministic choices (PSharp.Nondet()).
  bool NondetBool();
  std::uint64_t NondetInt(std::uint64_t bound);

  /// Creates a machine of type M; it starts concurrently.
  template <typename M, typename... Args>
  MachineId Create(std::string debug_name, Args&&... args);

  /// Notifies monitor type MonitorT with event E (monitors run synchronously).
  template <typename MonitorT, typename E, typename... Args>
  void Notify(Args&&... args);

  /// Fails the execution with a safety violation if `cond` is false. No
  /// message string is assembled when the condition holds.
  void Assert(bool cond, const std::string& message) {
    if (!cond) FailAssert(message);
  }

  /// Lazy-message form for call sites whose message is built from runtime
  /// values: Assert(ok, [&] { return "expected " + std::to_string(x); });
  template <detail::AssertMessageFn F>
  void Assert(bool cond, F&& message_fn) {
    if (!cond) FailAssert(message_fn());
  }

  /// Awaitable: blocks the current coroutine handler until an event of type
  /// E is available in the queue, then dequeues and returns it. Non-matching
  /// events stay queued (P# receive semantics).
  template <typename E>
  [[nodiscard]] ReceiveAwaiter<E> Receive();

  /// Awaitable: waits for the first event whose type is one of Es...
  template <typename... Es>
  [[nodiscard]] ReceiveAnyAwaiter<Es...> ReceiveAny();

  // ---- Fault-plane hooks ----

  /// Invoked when the fault plane crashes this machine, BEFORE the queue and
  /// control state are wiped. The hook models what the crash destroys: reset
  /// members standing in for volatile (in-memory) state here, and Notify any
  /// monitor that needs to learn the node died. Members left untouched model
  /// durable state that survives to a restart. Default: everything survives.
  virtual void OnCrash() {}

  /// Invoked when the fault plane restarts this machine, before the start
  /// state's entry runs (at the machine's next scheduling). Members still
  /// hold whatever OnCrash left — i.e. the durable state. Default: nothing.
  virtual void OnRestart() {}

  // ---- Execution-recycling hook ----

  /// Invoked by Runtime::ResetForNextExecution AFTER the built-in wipe
  /// (queue, control state, receive/coroutine state, fault flags — see
  /// ResetForReuse) so the type restores any member the constructor would
  /// have initialized: counters back to their initial values, containers
  /// cleared, cached ids of mid-execution machines dropped. Only called for
  /// types that declared `static constexpr bool kReusableRuntime = true`
  /// (detail::ReusableRuntime); the default suits types whose members are
  /// either constant after construction or fully covered by the wipe.
  virtual void OnReset() {}

 private:
  friend class Runtime;
  template <typename E>
  friend class ReceiveAwaiter;
  template <typename... Es>
  friend class ReceiveAnyAwaiter;

  [[noreturn]] void FailAssert(const std::string& message);
  [[noreturn]] void ThrowUnattached() const;

  /// ComputeStateFingerprint; with `queue_from_lane` the inbox is hashed
  /// from its type lane instead of its maintained lane hash (the
  /// from-scratch path of Runtime::RecomputeExecutionFingerprint).
  [[nodiscard]] Fingerprint HashState(bool payloads,
                                      bool queue_from_lane) const;

  // Receive plumbing (used by the awaiters).
  void BeginReceive(std::initializer_list<EventTypeId> types);
  bool TryFulfillReceive();
  void SetResumePoint(std::coroutine_handle<> h) { resume_point_ = h; }
  std::unique_ptr<const Event> TakeReceived();

  // Step execution (used by the runtime).
  [[nodiscard]] bool IsEnabled() const {
    if (halted_ || crashed_) return false;
    if (!started_) return true;
    if (!root_task_.Valid() &&
        (current_state_ == nullptr || current_state_->defers.Empty())) {
      // Idle in a state with nothing deferrable: any queued event is
      // processable.
      return !queue_.Empty();
    }
    return IsEnabledSlow();
  }
  /// Receive-wait and deferrable-state cases of IsEnabled.
  [[nodiscard]] bool IsEnabledSlow() const;
  /// Memoized IsEnabled: recomputed only after MarkEnabledDirty.
  [[nodiscard]] bool CachedEnabled() {
    if (enabled_dirty_) {
      enabled_cache_ = IsEnabled();
      enabled_dirty_ = false;
    }
    return enabled_cache_;
  }
  void MarkEnabledDirty() noexcept { enabled_dirty_ = true; }
  [[nodiscard]] bool IsWaitingInReceive() const noexcept {
    return !waiting_types_.empty();
  }
  void RunStep();
  void RunCascade();
  void InvokeHandler(const detail::Handler& handler, const Event* event);
  void DispatchEvent(std::unique_ptr<const Event> ev, bool raised);
  void Transition(const std::string& target);
  void TransitionToState(const detail::CompiledState& next);
  void EnterState(const detail::CompiledState& next);
  void DoHalt();
  /// Fault plane: OnCrash hook, then halt-style wipe with crashed_ (not
  /// halted_) set, leaving the machine restartable.
  void DoCrash();
  /// Fault plane: clears crashed_ and re-arms the start state; the start
  /// entry runs when the machine is next scheduled.
  void DoRestart();
  /// Execution recycling: wipes everything an execution mutates (the DoCrash
  /// wipe, generalized — all control flags, receive state, counters,
  /// coverage) back to the just-attached baseline, then runs OnReset so the
  /// type restores its own members. Called only on kReusableRuntime types.
  void ResetForReuse();
  const detail::CompiledState& FindState(const std::string& name) const;
  [[nodiscard]] bool HasMatchingQueuedEvent() const;

  Runtime* runtime_ = nullptr;
  MachineId id_{};
  std::string debug_name_;

  /// Builder-form states, populated by State() in the FIRST instance of the
  /// type only; moved into the shared decl at Attach and empty afterwards.
  std::map<std::string, detail::StateDecl> builder_states_;
  /// Immutable per-type declaration, shared across instances and Runtimes
  /// (or pointing at owned_decl_ for opted-out types).
  const detail::MachineDecl* decl_ = nullptr;
  /// Per-instance decl for types with kShareStateDecls == false.
  std::unique_ptr<const detail::MachineDecl> owned_decl_;
  bool share_decls_ = true;
  std::string start_state_;
  const detail::CompiledState* current_state_ = nullptr;

  detail::EventQueue queue_;
  std::unique_ptr<const Event> current_event_;  // alive while handler runs
  std::unique_ptr<const Event> received_;       // fulfilled Receive result
  std::vector<EventTypeId> waiting_types_;  // non-empty while in Receive
  std::coroutine_handle<> resume_point_{};
  Task root_task_;

  std::unique_ptr<const Event> pending_raise_;
  std::optional<std::string> pending_goto_;
  bool pending_halt_ = false;
  bool started_ = false;
  bool halted_ = false;
  bool crashed_ = false;        // fault plane: inert but restartable
  bool crashable_ = false;      // fault plane: crash-candidate opt-in
  bool partitionable_ = false;  // fault plane: partition-candidate opt-in
  bool partitioned_ = false;    // fault plane: currently isolated
  bool enabled_cache_ = false;
  bool enabled_dirty_ = true;
  bool fp_dirty_ = false;  // queued for contribution rehash (stateful only)
  bool logging_ = false;  // Runtime's options_.logging, cached at attach
  bool reusable_ = false;  // type declared kReusableRuntime (set at create)

  std::uint64_t restart_count_ = 0;
  std::uint64_t transitions_taken_ = 0;
  /// Coverage: entries per dense StateId; empty (and never touched) unless
  /// the Runtime's probe collects coverage.
  std::vector<std::uint64_t> state_visits_;
};

/// Awaitable returned by Machine::Receive<E>().
template <typename E>
class [[nodiscard]] ReceiveAwaiter {
 public:
  explicit ReceiveAwaiter(Machine* machine) : machine_(machine) {}

  bool await_ready() {
    machine_->BeginReceive({EventTypeIdOf<E>()});
    return machine_->TryFulfillReceive();
  }
  void await_suspend(std::coroutine_handle<> h) { machine_->SetResumePoint(h); }
  std::unique_ptr<const E> await_resume() {
    std::unique_ptr<const Event> ev = machine_->TakeReceived();
    return std::unique_ptr<const E>(static_cast<const E*>(ev.release()));
  }

 private:
  Machine* machine_;
};

/// Awaitable returned by Machine::ReceiveAny<Es...>(). Yields the base Event;
/// callers discriminate with Event::Type().
template <typename... Es>
class [[nodiscard]] ReceiveAnyAwaiter {
 public:
  explicit ReceiveAnyAwaiter(Machine* machine) : machine_(machine) {}

  bool await_ready() {
    machine_->BeginReceive({EventTypeIdOf<Es>()...});
    return machine_->TryFulfillReceive();
  }
  void await_suspend(std::coroutine_handle<> h) { machine_->SetResumePoint(h); }
  std::unique_ptr<const Event> await_resume() { return machine_->TakeReceived(); }

 private:
  Machine* machine_;
};

template <typename E>
ReceiveAwaiter<E> Machine::Receive() {
  return ReceiveAwaiter<E>(this);
}

template <typename... Es>
ReceiveAnyAwaiter<Es...> Machine::ReceiveAny() {
  return ReceiveAnyAwaiter<Es...>(this);
}

/// Fluent builder for monitor states (synchronous handlers only; hot/cold
/// attributes drive liveness checking). Inert when the monitor type's
/// declarations are already compiled.
class MonitorStateBuilder {
 public:
  explicit MonitorStateBuilder(detail::MonitorStateDecl* decl) : decl_(decl) {}

  template <typename E, typename M>
  MonitorStateBuilder& On(void (M::*fn)(const E&)) {
    if (decl_ == nullptr) return *this;
    decl_->handlers[EventTypeIdOf<E>()] = [fn](Monitor& m, const Event& e) {
      (static_cast<M&>(m).*fn)(static_cast<const E&>(e));
    };
    return *this;
  }

  template <typename E, typename M>
  MonitorStateBuilder& On(void (M::*fn)()) {
    if (decl_ == nullptr) return *this;
    decl_->handlers[EventTypeIdOf<E>()] = [fn](Monitor& m, const Event&) {
      (static_cast<M&>(m).*fn)();
    };
    return *this;
  }

  template <typename E>
  MonitorStateBuilder& Ignore() {
    if (decl_ == nullptr) return *this;
    decl_->ignores.insert(EventTypeIdOf<E>());
    return *this;
  }

  template <typename M>
  MonitorStateBuilder& OnEntry(void (M::*fn)()) {
    if (decl_ == nullptr) return *this;
    decl_->entry = [fn](Monitor& m) { (static_cast<M&>(m).*fn)(); };
    return *this;
  }

  /// Marks this state hot: the system owes progress while the monitor is
  /// here (§2.5). An execution that stays hot past the liveness temperature
  /// threshold is reported as a liveness violation.
  MonitorStateBuilder& Hot() {
    if (decl_ == nullptr) return *this;
    decl_->hot = true;
    return *this;
  }

  /// Marks this state cold: progress has happened.
  MonitorStateBuilder& Cold() {
    if (decl_ == nullptr) return *this;
    decl_->cold = true;
    return *this;
  }

 private:
  detail::MonitorStateDecl* decl_;
};

/// Base class for safety and liveness monitors (§2.4, §2.5): a monitor can
/// receive notifications but never send; it maintains the history relevant to
/// the property being specified and flags violations via Assert, or via
/// staying in a hot state forever (liveness). Declarations are per-TYPE,
/// like machines'.
class Monitor {
 public:
  Monitor(const Monitor&) = delete;
  Monitor& operator=(const Monitor&) = delete;
  virtual ~Monitor() = default;

  [[nodiscard]] bool IsHot() const;
  [[nodiscard]] const std::string& CurrentStateName() const;
  [[nodiscard]] const std::string& DebugName() const noexcept { return debug_name_; }
  [[nodiscard]] std::uint64_t ConsecutiveHotSteps() const noexcept {
    return hot_steps_;
  }

 protected:
  Monitor() = default;

  MonitorStateBuilder State(std::string name);
  void SetStart(std::string name) { start_state_ = std::move(name); }

  /// Immediate transition (the paper's `jumpto`): runs the target's entry.
  void Goto(const std::string& state);

  /// Safety assertion over the monitor's private state; the message is only
  /// assembled on failure.
  void Assert(bool cond, const std::string& message) {
    if (!cond) FailAssert(message);
  }

  template <detail::AssertMessageFn F>
  void Assert(bool cond, F&& message_fn) {
    if (!cond) FailAssert(message_fn());
  }

  [[nodiscard]] Runtime& Rt();

  /// Execution-recycling hook, mirroring Machine::OnReset: restore any
  /// member the constructor initialized. The built-in wipe already clears
  /// the control state and hot-steps counter; the runtime re-runs Start()
  /// afterwards.
  virtual void OnReset() {}

 private:
  friend class Runtime;

  [[noreturn]] void FailAssert(const std::string& message);

  void Start();
  void HandleNotification(const Event& event);
  /// Execution recycling: back to the just-registered baseline (the runtime
  /// calls Start() again afterwards). Called only on kReusableRuntime types.
  void ResetForReuse();
  const detail::CompiledMonitorState& FindState(const std::string& name) const;

  Runtime* runtime_ = nullptr;
  std::string debug_name_;
  std::map<std::string, detail::MonitorStateDecl> builder_states_;
  const detail::MonitorDecl* decl_ = nullptr;
  std::unique_ptr<const detail::MonitorDecl> owned_decl_;
  bool share_decls_ = true;
  std::string start_state_;
  const detail::CompiledMonitorState* current_state_ = nullptr;
  std::uint64_t hot_steps_ = 0;
  std::uint64_t transitions_taken_ = 0;
  bool reusable_ = false;  // type declared kReusableRuntime (set at register)
};

/// Options controlling one serialized execution.
struct RuntimeOptions {
  std::uint64_t max_steps = 10'000;
  /// Consecutive hot steps after which a bound-terminated execution is
  /// declared a liveness violation. 0 means max_steps / 2.
  std::uint64_t liveness_temperature_threshold = 0;
  bool report_deadlock = true;
  /// Cap on handler cascade length within one step (guards against a
  /// raise/goto loop that would otherwise never yield).
  std::uint64_t max_cascade_actions = 100'000;
  bool logging = false;
  /// Maintain the execution fingerprint incrementally (core/fingerprint.h).
  /// Scheduling semantics are bit-for-bit unchanged either way; off costs
  /// nothing.
  bool stateful = false;
  /// With stateful: also mix each machine's FingerprintPayload into its
  /// contribution (default view is state id + queue only).
  bool fingerprint_payloads = false;
  /// With stateful: additionally record the per-step fingerprint sequence
  /// (FingerprintTrail). Test/debug instrumentation — production stateful
  /// runs keep it off so the step loop does no trail bookkeeping.
  bool record_fingerprint_trail = false;

  // ---- Fault plane (see README "Fault injection") ----
  // All defaults off: a fault-free execution takes one dead branch per step
  // and is otherwise bit-for-bit what it always was.

  /// Per-execution budget of machine crashes (halt-style wipe of a machine
  /// Runtime::SetCrashable opted in, decided by the strategy at step
  /// boundaries). 0 disables crashes.
  std::uint64_t max_crashes = 0;
  /// Per-execution budget of restarts of crashed machines (back to the start
  /// state; members survive per Machine::OnCrash). 0 disables restarts.
  std::uint64_t max_restarts = 0;
  /// Per-delivery drop odds denominator: each machine-to-machine delivery is
  /// dropped with probability 1/den. 0 disables drops.
  std::uint64_t drop_probability_den = 0;
  /// Per-execution budget of message duplications (the event is delivered
  /// twice). 0 disables duplication.
  std::uint64_t max_duplications = 0;
  /// Per-execution budget of network partitions: the strategy may isolate a
  /// machine Runtime::SetPartitionable opted in (every delivery between it
  /// and any other machine is silently dropped) and later heal it as a
  /// separate choice point. 0 disables partitions.
  std::uint64_t max_partitions = 0;
  /// Per-step heal odds denominator: while a partition is installed, the
  /// strategy heals it with probability 1/den per step. 0 disables heals
  /// (installed partitions last until the execution ends).
  std::uint64_t partition_heal_den = 4;
  /// Odds denominator for the budgeted fault rolls (crash/restart/partition
  /// per step, duplication per delivery): each fires with probability 1/den
  /// while budget remains.
  std::uint64_t fault_odds_den = 16;
  /// Replay mode: apply whatever fault decisions the ReplayStrategy reads
  /// from its trace, ignoring the budgets above. Set by
  /// TestingEngine::Replay so fault traces reproduce without any fault
  /// configuration.
  bool replay_faults = false;

  /// Whether this options set turns the fault plane on for exploration.
  [[nodiscard]] bool FaultInjectionEnabled() const noexcept {
    return max_crashes > 0 || drop_probability_den > 0 ||
           max_duplications > 0 || max_partitions > 0;
  }

  // ---- Observability (see README "Observability") ----

  /// Per-execution instrumentation sink (obs/probe.h), owned by the engine's
  /// worker and reset between executions. nullptr (the default) keeps every
  /// instrumentation point one dead branch, mirroring the fault plane's
  /// cheap-when-off pattern. The probe only observes — scheduling, traces
  /// and replay are bit-for-bit identical with or without it.
  obs::ExecutionProbe* probe = nullptr;
};

/// One serialized execution of a machine program. The TestingEngine creates a
/// fresh Runtime per iteration; harnesses populate it with machines and
/// monitors and the engine then steps it to quiescence or the step bound.
class Runtime {
 public:
  Runtime(SchedulingStrategy& strategy, RuntimeOptions options = {});
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  // ---- Harness API ----

  /// Creates a machine; it becomes enabled and will run its start state's
  /// entry action when first scheduled. If M's declarations are already
  /// compiled (any earlier instance, in any Runtime), the constructor's
  /// State() calls are skipped wholesale.
  template <typename M, typename... Args>
  MachineId CreateMachine(std::string debug_name, Args&&... args) {
    static_assert(std::is_base_of_v<Machine, M>);
    std::unique_ptr<M> machine;
    if constexpr (detail::SharesStateDecls<M>::value) {
      const detail::MachineDecl* decl =
          detail::DeclRegistry::FindMachineDecl(std::type_index(typeid(M)));
      if (decl != nullptr) {
#ifdef NDEBUG
        const detail::ScopedDeclSkip skip;
        machine = std::make_unique<M>(std::forward<Args>(args)...);
#else
        // Debug builds construct declarations anyway and verify they match
        // the shared decl — the tripwire for a type that varies its state
        // graph per instance without opting out of sharing.
        machine = std::make_unique<M>(std::forward<Args>(args)...);
        detail::VerifyDeclMatches(*decl, machine->builder_states_,
                                  typeid(M).name());
        machine->builder_states_.clear();
#endif
        machine->decl_ = decl;
      } else {
        machine = std::make_unique<M>(std::forward<Args>(args)...);
      }
    } else {
      machine = std::make_unique<M>(std::forward<Args>(args)...);
      machine->share_decls_ = false;
    }
    machine->reusable_ = detail::ReusableRuntime<M>::value;
    return Attach(std::move(machine), std::move(debug_name));
  }

  /// Registers a monitor; its start state is entered immediately. Shares
  /// compiled declarations per monitor type, like CreateMachine.
  template <typename M, typename... Args>
  M& RegisterMonitor(std::string debug_name, Args&&... args) {
    static_assert(std::is_base_of_v<Monitor, M>);
    std::unique_ptr<M> monitor;
    if constexpr (detail::SharesStateDecls<M>::value) {
      const detail::MonitorDecl* decl =
          detail::DeclRegistry::FindMonitorDecl(std::type_index(typeid(M)));
      if (decl != nullptr) {
#ifdef NDEBUG
        const detail::ScopedDeclSkip skip;
        monitor = std::make_unique<M>(std::forward<Args>(args)...);
#else
        monitor = std::make_unique<M>(std::forward<Args>(args)...);
        detail::VerifyMonitorDeclMatches(*decl, monitor->builder_states_,
                                         typeid(M).name());
        monitor->builder_states_.clear();
#endif
        monitor->decl_ = decl;
      } else {
        monitor = std::make_unique<M>(std::forward<Args>(args)...);
      }
    } else {
      monitor = std::make_unique<M>(std::forward<Args>(args)...);
      monitor->share_decls_ = false;
    }
    monitor->reusable_ = detail::ReusableRuntime<M>::value;
    M& ref = *monitor;
    AttachMonitor(std::move(monitor), std::move(debug_name),
                  MonitorTypeIdOf<M>());
    return ref;
  }

  /// Marks `id` as a crash candidate for the fault plane. Harnesses opt
  /// machines in explicitly (usually the modeled nodes, not the monitors'
  /// environment or the driver), so crash budgets never touch machines whose
  /// failure is not part of the scenario's fault model. Callable during
  /// setup or from machine handlers (for machines created mid-execution).
  void SetCrashable(MachineId id, bool crashable = true);

  /// Marks `id` as a partition candidate for the fault plane, mirroring
  /// SetCrashable: harnesses opt the modeled nodes in explicitly so
  /// partition budgets never isolate drivers, clients, or environment
  /// machines whose unreachability is not part of the scenario's fault
  /// model.
  void SetPartitionable(MachineId id, bool partitionable = true);

  /// Injected-fault counts for this execution.
  struct FaultStats {
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t drops = 0;
    std::uint64_t duplications = 0;
    std::uint64_t partitions = 0;  ///< partition installs
    std::uint64_t heals = 0;       ///< partition heals

    [[nodiscard]] std::uint64_t Total() const noexcept {
      return crashes + restarts + drops + duplications + partitions + heals;
    }
    FaultStats& operator+=(const FaultStats& other) noexcept {
      crashes += other.crashes;
      restarts += other.restarts;
      drops += other.drops;
      duplications += other.duplications;
      partitions += other.partitions;
      heals += other.heals;
      return *this;
    }
    friend bool operator==(const FaultStats&, const FaultStats&) = default;
  };
  [[nodiscard]] const FaultStats& GetFaultStats() const noexcept {
    return fault_stats_;
  }

  /// Registers a world-level fingerprint probe for shared state no single
  /// machine owns (e.g. a table several machines mutate through a
  /// shared_ptr). Probes are rehashed on EVERY fingerprint read — they
  /// cannot be tracked incrementally — and are only consulted when
  /// options_.fingerprint_payloads is on, like Machine::FingerprintPayload.
  void AddFingerprintProbe(std::function<void(StateHasher&)> probe) {
    fp_probes_.push_back(std::move(probe));
  }

  /// Sends an event from outside any machine (harness setup).
  void SendEvent(MachineId target, std::unique_ptr<const Event> ev);

  template <typename E, typename... Args>
  void SendEvent(MachineId target, Args&&... args) {
    SendEvent(target, MakeEvent<E>(std::forward<Args>(args)...));
  }

  /// Looks up the registered monitor of type M (for end-of-test inspection).
  template <typename M>
  [[nodiscard]] M* FindMonitor() const {
    const EventTypeId id = MonitorTypeIdOf<M>();
    return id < monitors_by_id_.size()
               ? static_cast<M*>(monitors_by_id_[id])
               : nullptr;
  }

  [[nodiscard]] const Machine* FindMachine(MachineId id) const;
  [[nodiscard]] Machine* FindMachine(MachineId id);

  // ---- Engine API ----

  /// Executes one scheduling step. Returns false on quiescence (no machine
  /// enabled). Throws BugFound on a violation.
  bool Step();

  /// End-of-execution property checks (§2.5 liveness heuristic): call with
  /// hit_bound=true when the step bound was reached, false on quiescence.
  void CheckTermination(bool hit_bound);

  [[nodiscard]] std::uint64_t Steps() const noexcept { return steps_; }

  // ---- Stateful exploration (options_.stateful only) ----

  /// Current execution fingerprint: XOR of every live machine's contribution
  /// (monitors are excluded — they observe, they are not program state).
  /// Maintained incrementally: only machines touched since the last call
  /// (the stepped machine, event targets, fresh attaches) are rehashed.
  [[nodiscard]] Fingerprint ExecutionFingerprint();

  /// Recomputes the fingerprint from scratch over all machines — the O(world)
  /// cross-check for the incremental path (tests).
  [[nodiscard]] Fingerprint RecomputeExecutionFingerprint() const;

  /// Post-step fingerprint sequence of this execution, one entry per
  /// scheduling step. Empty unless options_.record_fingerprint_trail.
  [[nodiscard]] const std::vector<Fingerprint>& FingerprintTrail() const noexcept {
    return fp_trail_;
  }
  /// Moves the trail out (engines hand it to ExecutionResult). O(1).
  [[nodiscard]] std::vector<Fingerprint> TakeFingerprintTrail() noexcept {
    return std::move(fp_trail_);
  }

  // ---- Execution recycling (see README "Performance") ----

  /// Seals the post-harness/pre-step world as the reuse baseline. Succeeds
  /// (and returns true) only when no step has run, no decision was recorded,
  /// every machine and monitor came from a kReusableRuntime type, and every
  /// queued setup event is cloneable — otherwise the runtime stays on the
  /// build-per-execution path and this returns false. Engines call it once
  /// after the first harness run; a sealed runtime can then serve the whole
  /// budget through ResetForNextExecution.
  bool SealForReuse();
  [[nodiscard]] bool SealedForReuse() const noexcept { return sealed_; }

  /// Wipes the world back to the sealed baseline IN PLACE: mid-execution
  /// machines/monitors/probes are dropped, surviving machines get the
  /// DoCrash-style wipe plus their OnReset hook, fault/partition opt-ins and
  /// counters are restored, the trace/log/fingerprint/fault state is
  /// cleared, `arena` (when non-null) rewinds its event epoch, monitors
  /// restart, and the sealed setup events are re-delivered — reproducing the
  /// harness's deliveries (probe counts, fingerprint marks) bit-for-bit.
  /// Safe after ANY execution outcome, including a BugFound unwind.
  void ResetForNextExecution(detail::EventArena* arena);

  /// Moves the sealed setup-event prototypes out and unseals. The prototypes
  /// are heap-backed (cloned under ScopedEventArenaPause), so a caller about
  /// to destroy a recycled Runtime while its arena is armed — making every
  /// other Event delete a no-op — must free them AFTER disarming, by taking
  /// them first and letting the returned vector die on the global heap.
  [[nodiscard]] std::vector<std::unique_ptr<const Event>>
  TakeSetupPrototypes() noexcept;

  [[nodiscard]] const Trace& GetTrace() const noexcept { return trace_; }
  /// Moves the recorded decision trace out of a runtime that is about to be
  /// destroyed (the engines call this once per execution). O(1); the
  /// runtime's internal trace is left empty.
  [[nodiscard]] Trace TakeTrace() noexcept { return std::move(trace_); }
  [[nodiscard]] const RuntimeOptions& Options() const noexcept { return options_; }

  // ---- Introspection ----

  struct Stats {
    std::size_t machines = 0;
    std::size_t monitors = 0;
    std::size_t states = 0;
    std::size_t action_handlers = 0;
    std::size_t declared_transitions = 0;  // OnGoto registrations
    std::uint64_t transitions_taken = 0;
  };
  [[nodiscard]] Stats GetStats() const;

  [[nodiscard]] std::size_t MachineCount() const noexcept {
    return machines_.size();
  }
  [[nodiscard]] const std::string& Log() const noexcept { return log_; }

  // ---- Internal API used by Machine / Monitor ----

  /// Hot-path assertion: no message work when `cond` holds.
  void Assert(bool cond, const std::string& message) {
    if (!cond) {
      FailAssert(message);
    }
  }
  template <detail::AssertMessageFn F>
  void Assert(bool cond, F&& message_fn) {
    if (!cond) {
      FailAssert(message_fn());
    }
  }
  [[noreturn]] void FailAssert(const std::string& message);

  [[nodiscard]] bool ChooseBool();
  [[nodiscard]] std::uint64_t ChooseInt(std::uint64_t bound);
  void DeliverEvent(MachineId target, std::unique_ptr<const Event> ev,
                    const Machine* sender);
  MachineId Attach(std::unique_ptr<Machine> machine, std::string debug_name);
  void AttachMonitor(std::unique_ptr<Monitor> monitor, std::string debug_name,
                     EventTypeId monitor_type_id);
  void NotifyMonitorById(EventTypeId monitor_type_id, const Event& event);
  [[nodiscard]] bool LoggingEnabled() const noexcept { return options_.logging; }
  void CountCascadeAction() {
    if (++cascade_actions_ > options_.max_cascade_actions) [[unlikely]] {
      ThrowCascadeOverflow();
    }
  }

  /// Appends one line to the execution log as "[step] part0part1...\n",
  /// building no intermediate strings. Callers gate on LoggingEnabled().
  template <typename... Parts>
  void LogLine(const Parts&... parts) {
    log_ += '[';
    AppendLogPart(log_, steps_);
    log_ += "] ";
    (AppendLogPart(log_, parts), ...);
    log_ += '\n';
  }

 private:
  static void AppendLogPart(std::string& out, std::string_view part) {
    out += part;
  }
  static void AppendLogPart(std::string& out, const std::string& part) {
    out += part;
  }
  static void AppendLogPart(std::string& out, const char* part) {
    out += part;
  }
  static void AppendLogPart(std::string& out, char part) { out += part; }
  static void AppendLogPart(std::string& out, std::uint64_t part) {
    out += std::to_string(part);
  }

  void UpdateMonitorTemperatures();
  [[noreturn]] void ThrowCascadeOverflow() const;

  // Fault plane (called only when fault_mode_).
  /// Crash/restart choice point at the current step boundary: collects
  /// candidates under the remaining budgets (or defers entirely to the trace
  /// under replay_faults), asks the strategy, applies + records the result.
  void MaybeInjectFault();
  void ApplyCrash(MachineId id);
  void ApplyRestart(MachineId id);
  void ApplyPartition(MachineId id);
  void ApplyHeal(MachineId id);
  /// Message-fault choice point for one delivery. Returns true when the
  /// delivery was dropped (the caller then skips the enqueue); a duplication
  /// enqueues the clone here and lets the caller enqueue the original.
  bool ApplyDeliveryFault(Machine& target, const Event& ev);
  /// XOR-mixin of probe digests, fault-budget counters, and the active
  /// partition set (stateful only).
  [[nodiscard]] Fingerprint SharedStateFingerprint() const;

  /// Queues `machine` for a contribution rehash at the next fingerprint
  /// refresh (stateful only; senders call this when they mutate a queue).
  void MarkFingerprintDirty(Machine& machine);
  /// Rehashes every dirty machine's contribution into world_fp_.
  void RefreshFingerprint();

  SchedulingStrategy& strategy_;
  RuntimeOptions options_;
  /// Builtin() of strategy_, cached so Step's scheduling call can be
  /// devirtualized for the dominant final strategies.
  const BuiltinStrategy strategy_builtin_;
  std::vector<std::unique_ptr<Machine>> machines_;  // index = id - 1
  std::vector<std::unique_ptr<Monitor>> monitors_;
  std::vector<Monitor*> monitors_by_id_;  // index = interned monitor type id
  std::vector<MachineId> enabled_scratch_;  // reused by every Step
  Trace trace_;
  std::uint64_t steps_ = 0;
  std::uint64_t cascade_actions_ = 0;
  std::string log_;
  // Stateful-exploration state (empty/unused unless options_.stateful).
  std::vector<Fingerprint> fp_contrib_;      // per machine, index = id - 1
  std::vector<std::uint64_t> fp_dirty_ids_;  // machines awaiting rehash
  std::vector<Fingerprint> fp_trail_;        // post-step world fingerprints
  std::vector<std::function<void(StateHasher&)>> fp_probes_;
  Fingerprint world_fp_ = 0;
  // Fault-plane state (inert unless fault_mode_).
  /// FaultInjectionEnabled() || replay_faults, cached: the per-step and
  /// per-delivery fault hooks are one dead branch when off.
  const bool fault_mode_;
  /// options_.probe, cached: instrumentation points are one dead null-check
  /// when observability is off (same pattern as fault_mode_).
  obs::ExecutionProbe* const probe_;
  FaultStats fault_stats_;
  std::uint64_t delivery_seq_ = 0;      // machine-to-machine delivery ordinal
  std::size_t crashable_machines_ = 0;  // SetCrashable opt-ins
  std::size_t crashed_machines_ = 0;    // currently crashed (restartable)
  std::size_t partitionable_machines_ = 0;  // SetPartitionable opt-ins
  std::size_t partitioned_machines_ = 0;    // currently isolated
  std::vector<MachineId> crash_scratch_;      // crash candidates, reused
  std::vector<MachineId> restart_scratch_;    // restart candidates, reused
  std::vector<MachineId> partition_scratch_;  // partition candidates, reused
  std::vector<MachineId> heal_scratch_;       // heal candidates, reused
  // Execution-recycling seal (SealForReuse / ResetForNextExecution): the
  // post-harness baseline a reset restores. Prototypes are heap-backed
  // clones (taken under ScopedEventArenaPause) so they survive every arena
  // epoch; per-execution clones of them are re-delivered at each reset.
  struct SetupEvent {
    MachineId target;
    std::unique_ptr<const Event> prototype;
  };
  bool sealed_ = false;
  std::size_t sealed_machines_ = 0;
  std::size_t sealed_monitors_ = 0;
  std::size_t sealed_fp_probes_ = 0;
  std::vector<Monitor*> sealed_monitors_by_id_;
  std::vector<SetupEvent> setup_events_;
  std::vector<std::uint8_t> sealed_crashable_;      // per sealed machine
  std::vector<std::uint8_t> sealed_partitionable_;  // per sealed machine
};

// ---- Machine members that need Runtime's definition ----

inline void Machine::Send(MachineId target, std::unique_ptr<const Event> ev) {
  Rt().DeliverEvent(target, std::move(ev), this);
}

template <typename M, typename... Args>
MachineId Machine::Create(std::string debug_name, Args&&... args) {
  return Rt().CreateMachine<M>(std::move(debug_name),
                               std::forward<Args>(args)...);
}

template <typename MonitorT, typename E, typename... Args>
void Machine::Notify(Args&&... args) {
  E event(std::forward<Args>(args)...);
  detail::EventTypeStamp::Set(event, EventTypeIdOf<E>());
  Rt().NotifyMonitorById(MonitorTypeIdOf<MonitorT>(), event);
}

}  // namespace systest
