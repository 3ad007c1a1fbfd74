#include "core/runtime.h"

#include <algorithm>
#include <span>

#include "core/event_arena.h"
#include "obs/probe.h"

namespace systest {

// ===========================================================================
// Machine

namespace {
const std::string kNoState = "<no-state>";
// Interned once at static init so the per-dispatch halt check is a plain
// integer compare with no static-local guard.
const EventTypeId kHaltTypeId = EventTypeIdOf<HaltEvent>();
}  // namespace

const std::string& Machine::CurrentStateName() const {
  return current_state_ ? current_state_->name : kNoState;
}

StateBuilder Machine::State(std::string name) {
  if (detail::SkipDeclBuild()) {
    // This machine type's declarations are already compiled and shared; the
    // constructor's fluent declaration chain becomes a no-op.
    return StateBuilder(nullptr);
  }
  auto [it, inserted] = builder_states_.try_emplace(name);
  if (inserted) {
    it->second.name = std::move(name);
  }
  return StateBuilder(&it->second);
}

void Machine::ThrowUnattached() const {
  throw BugFound(BugKind::kHarnessError,
                 "machine '" + debug_name_ +
                     "' used the runtime API before being attached "
                     "(Create/Send belong in entry actions, not constructors)");
}

void Machine::RaiseEvent(std::unique_ptr<const Event> ev) {
  if (pending_raise_) {
    throw BugFound(BugKind::kHarnessError,
                   "machine '" + debug_name_ + "' raised two events in one action");
  }
  pending_raise_ = std::move(ev);
}

void Machine::Goto(std::string state) {
  if (pending_goto_) {
    throw BugFound(BugKind::kHarnessError,
                   "machine '" + debug_name_ + "' called Goto twice in one action");
  }
  pending_goto_ = std::move(state);
}

bool Machine::NondetBool() { return Rt().ChooseBool(); }

Fingerprint Machine::ComputeStateFingerprint(bool payloads) const {
  return HashState(payloads, /*queue_from_lane=*/false);
}

Fingerprint Machine::HashState(bool payloads, bool queue_from_lane) const {
  StateHasher hasher;
  hasher.Mix(id_.value);
  // The crashed bit keeps a crashed machine distinct from a merely idle one
  // (fault-free runs hash 0 there, leaving their digests untouched). The
  // restart COUNT is deliberately not mixed: a restarted machine that
  // reconverged to a previously seen state/queue/member view IS the same
  // program state — remaining fault budgets are hashed at the world level.
  hasher.Mix((crashed_ ? 4u : 0u) | (halted_ ? 2u : 0u) |
             (started_ ? 1u : 0u));
  // Dense state id; halted/pre-start machines have no current state.
  hasher.Mix(current_state_ != nullptr ? CurrentStateId()
                                       : ~std::uint64_t{0});
  hasher.Mix(waiting_types_.size());
  for (const EventTypeId type : waiting_types_) {
    hasher.Mix(type);
  }
  if (queue_from_lane) {
    queue_.HashTypesFromLaneInto(hasher);
  } else {
    queue_.HashTypesInto(hasher);
  }
  if (payloads) {
    FingerprintPayload(hasher);
  }
  return hasher.Digest();
}

std::uint64_t Machine::NondetInt(std::uint64_t bound) {
  return Rt().ChooseInt(bound);
}

void Machine::FailAssert(const std::string& message) {
  Rt().FailAssert("machine '" + debug_name_ + "': " + message);
}

const detail::CompiledState& Machine::FindState(const std::string& name) const {
  const detail::CompiledState* state = decl_->FindState(name);
  if (state == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   "machine '" + debug_name_ + "' has no state '" + name + "'");
  }
  return *state;
}

void Machine::BeginReceive(std::initializer_list<EventTypeId> types) {
  waiting_types_.assign(types);
}

bool Machine::TryFulfillReceive() {
  std::size_t index = 0;
  for (const EventTypeId type : queue_.Types()) {
    if (std::find(waiting_types_.begin(), waiting_types_.end(), type) !=
        waiting_types_.end()) {
      received_ = queue_.RemoveAt(index);
      waiting_types_.clear();
      return true;
    }
    ++index;
  }
  return false;
}

std::unique_ptr<const Event> Machine::TakeReceived() {
  assert(received_);
  return std::move(received_);
}

bool Machine::HasMatchingQueuedEvent() const {
  for (const EventTypeId type : queue_.Types()) {
    if (std::find(waiting_types_.begin(), waiting_types_.end(), type) !=
        waiting_types_.end()) {
      return true;
    }
  }
  return false;
}

bool Machine::IsEnabledSlow() const {
  if (root_task_.Valid()) {
    // Suspended in Receive: enabled iff a matching event is queued.
    return HasMatchingQueuedEvent();
  }
  // Deferrable state: enabled iff some queued event is processable (handler,
  // goto, ignore-drop, halt or unhandled — everything except a deferred
  // event constitutes a step).
  for (const EventTypeId type : queue_.Types()) {
    if (current_state_->defers.Contains(type)) {
      continue;
    }
    return true;
  }
  return false;
}

void Machine::RunStep() {
  if (!started_) {
    started_ = true;
    if (logging_) [[unlikely]] {
      runtime_->LogLine("start   ", debug_name_, " -> ", start_state_);
    }
    Transition(start_state_);
    RunCascade();
    return;
  }
  if (root_task_.Valid()) {
    // Resume the coroutine blocked in Receive with the matching event.
    const bool fulfilled = TryFulfillReceive();
    if (!fulfilled) {
      runtime_->FailAssert("internal: scheduled non-fulfillable receive");
    }
    if (logging_) [[unlikely]] {
      runtime_->LogLine("resume  ", debug_name_, " <- ", received_->Name());
    }
    resume_point_.resume();
    RunCascade();
    return;
  }
  // Dequeue the first processable event.
  while (!queue_.Empty()) {
    std::unique_ptr<const Event> ev;
    if (current_state_ == nullptr || current_state_->defers.Empty()) {
      // No deferrable events in this state: take the front directly.
      ev = queue_.PopFront();
    } else {
      const std::span<const EventTypeId> types = queue_.Types();
      std::size_t index = 0;
      while (index < types.size() &&
             current_state_->defers.Contains(types[index])) {
        ++index;
      }
      if (index == types.size()) return;  // only deferred events remain
      ev = queue_.RemoveAt(index);
    }
    if (current_state_ != nullptr &&
        current_state_->ignores.Contains(ev->TypeId())) {
      if (logging_) [[unlikely]] {
        runtime_->LogLine("ignore  ", debug_name_, " x ", ev->Name());
      }
      continue;  // dropped; look for another processable event in this step
    }
    DispatchEvent(std::move(ev), /*raised=*/false);
    RunCascade();
    return;
  }
}

void Machine::DispatchEvent(std::unique_ptr<const Event> ev, bool raised) {
  runtime_->CountCascadeAction();
  const EventTypeId type_id = ev->TypeId();
  if (type_id == kHaltTypeId) {
    DoHalt();
    return;
  }
  if (current_state_ == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   "machine '" + debug_name_ + "' dispatching without a state");
  }
  const std::int32_t action = current_state_->DispatchOf(type_id);
  if (action >= 0) {
    if (logging_) [[unlikely]] {
      runtime_->LogLine("handle  ", debug_name_, " <- ", ev->Name(), " [",
                        current_state_->name, "]");
    }
    current_event_ = std::move(ev);
    InvokeHandler(current_state_->handlers[static_cast<std::size_t>(action)],
                  current_event_.get());
    return;
  }
  if (action == detail::kNoEntry) {
    throw BugFound(BugKind::kUnhandledEvent,
                   "machine '" + debug_name_ + "' in state '" +
                       current_state_->name + "' cannot handle " +
                       (raised ? "raised " : "") + "event " + ev->Name());
  }
  // Declared OnGoto (possibly to a state that was never declared).
  const std::string& target_name =
      action == detail::kDanglingGoto
          ? current_state_->goto_names.at(type_id)
          : decl_->states[detail::DecodeGoto(action)].name;
  if (logging_) [[unlikely]] {
    runtime_->LogLine("goto    ", debug_name_, " -- ", ev->Name(), " --> ",
                      target_name);
  }
  current_event_ = std::move(ev);
  if (action == detail::kDanglingGoto) {
    Transition(target_name);  // throws the has-no-state harness error
  } else {
    TransitionToState(decl_->states[detail::DecodeGoto(action)]);
  }
}

void Machine::InvokeHandler(const detail::Handler& handler, const Event* event) {
  if (handler.sync) {
    handler.sync(*this, event);
    return;
  }
  root_task_ = handler.coro(*this, event);
  resume_point_ = root_task_.RawHandle();
  resume_point_.resume();
}

void Machine::Transition(const std::string& target) {
  // The exit action runs before the target name is even resolved, so a Goto
  // to an undeclared state still performs the exit's side effects before the
  // harness error — the order string-based transitions have always had.
  if (current_state_ != nullptr && current_state_->exit) {
    current_state_->exit(*this);
  }
  EnterState(FindState(target));
}

void Machine::TransitionToState(const detail::CompiledState& next) {
  if (current_state_ != nullptr && current_state_->exit) {
    current_state_->exit(*this);
  }
  EnterState(next);
}

void Machine::EnterState(const detail::CompiledState& next) {
  current_state_ = &next;
  ++transitions_taken_;
  if (!state_visits_.empty()) [[unlikely]] {
    // Coverage collection (sized at attach only when a coverage probe is on).
    ++state_visits_[CurrentStateId()];
  }
  if (next.entry.Valid()) {
    InvokeHandler(next.entry, nullptr);
  }
}

void Machine::RunCascade() {
  for (;;) {
    if (root_task_.Valid() && !root_task_.Done()) {
      // Suspended in Receive: yield back to the scheduler. The machine must
      // actually be waiting; any other suspension is a framework-misuse bug.
      if (!IsWaitingInReceive()) {
        runtime_->FailAssert("machine '" + debug_name_ +
                             "' suspended outside Receive (co_await of a "
                             "foreign awaitable?)");
      }
      return;
    }
    if (root_task_.Valid()) {
      root_task_.RethrowIfFailed();
      root_task_ = Task();
      resume_point_ = {};
    }
    if (pending_halt_) {
      DoHalt();
      return;
    }
    if (pending_raise_ && pending_goto_) {
      throw BugFound(BugKind::kHarnessError,
                     "machine '" + debug_name_ +
                         "' both raised an event and called Goto in one action");
    }
    if (pending_raise_) {
      std::unique_ptr<const Event> ev = std::move(pending_raise_);
      if (logging_) [[unlikely]] {
        runtime_->LogLine("raise   ", debug_name_, " ^ ", ev->Name());
      }
      DispatchEvent(std::move(ev), /*raised=*/true);
      continue;
    }
    if (pending_goto_) {
      std::string target = std::move(*pending_goto_);
      pending_goto_.reset();
      if (logging_) [[unlikely]] {
        runtime_->LogLine("goto    ", debug_name_, " --> ", target);
      }
      runtime_->CountCascadeAction();
      Transition(target);
      continue;
    }
    current_event_.reset();
    return;
  }
}

void Machine::DoHalt() {
  halted_ = true;
  pending_halt_ = false;
  pending_raise_.reset();
  pending_goto_.reset();
  queue_.Clear();
  waiting_types_.clear();
  root_task_ = Task();
  resume_point_ = {};
  current_event_.reset();
  if (logging_) [[unlikely]] {
    runtime_->LogLine("halt    ", debug_name_);
  }
}

void Machine::DoCrash() {
  // The hook runs first, on the pre-wipe state: it decides what the crash
  // destroys (volatile members) and may Notify monitors that the node died.
  OnCrash();
  crashed_ = true;
  pending_halt_ = false;
  pending_raise_.reset();
  pending_goto_.reset();
  queue_.Clear();
  waiting_types_.clear();
  root_task_ = Task();
  resume_point_ = {};
  current_event_.reset();
  current_state_ = nullptr;
  started_ = false;
  if (logging_) [[unlikely]] {
    runtime_->LogLine("crash   ", debug_name_);
  }
}

void Machine::ResetForReuse() {
  // The DoCrash wipe, generalized to EVERY flag and counter an execution can
  // have touched — including state a BugFound unwind may have left half-set
  // (pending raise/goto, a suspended coroutine, a fulfilled receive).
  queue_.Clear();
  current_event_.reset();
  received_.reset();
  waiting_types_.clear();
  root_task_ = Task();  // destroys a suspended coroutine frame, if any
  resume_point_ = {};
  pending_raise_.reset();
  pending_goto_.reset();
  pending_halt_ = false;
  started_ = false;
  halted_ = false;
  crashed_ = false;
  partitioned_ = false;
  current_state_ = nullptr;
  enabled_cache_ = false;
  enabled_dirty_ = true;
  fp_dirty_ = false;
  restart_count_ = 0;
  transitions_taken_ = 0;
  std::fill(state_visits_.begin(), state_visits_.end(), 0);
  // crashable_/partitionable_ are restored by the runtime from the sealed
  // baseline (it maintains the world-level opt-in counters).
  OnReset();
}

void Machine::DoRestart() {
  crashed_ = false;
  ++restart_count_;
  // started_ is false since the crash, so the machine is enabled again and
  // will run its start state's entry when next scheduled — exactly like a
  // freshly created machine, except members hold the durable state OnCrash
  // preserved.
  OnRestart();
  if (logging_) [[unlikely]] {
    runtime_->LogLine("restart ", debug_name_, " -> ", start_state_);
  }
}

// ===========================================================================
// Monitor

bool Monitor::IsHot() const {
  return current_state_ != nullptr && current_state_->hot;
}

const std::string& Monitor::CurrentStateName() const {
  return current_state_ ? current_state_->name : kNoState;
}

MonitorStateBuilder Monitor::State(std::string name) {
  if (detail::SkipDeclBuild()) {
    return MonitorStateBuilder(nullptr);
  }
  auto [it, inserted] = builder_states_.try_emplace(name);
  if (inserted) {
    it->second.name = std::move(name);
  }
  return MonitorStateBuilder(&it->second);
}

Runtime& Monitor::Rt() {
  if (runtime_ == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   "monitor '" + debug_name_ + "' used before attachment");
  }
  return *runtime_;
}

const detail::CompiledMonitorState& Monitor::FindState(
    const std::string& name) const {
  const detail::CompiledMonitorState* state = decl_->FindState(name);
  if (state == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   "monitor '" + debug_name_ + "' has no state '" + name + "'");
  }
  return *state;
}

void Monitor::Goto(const std::string& state) {
  const detail::CompiledMonitorState& next = FindState(state);
  current_state_ = &next;
  ++transitions_taken_;
  if (runtime_ != nullptr && runtime_->LoggingEnabled()) {
    runtime_->LogLine("monitor ", debug_name_, " --> ", state,
                      next.hot ? " [hot]" : next.cold ? " [cold]" : "");
  }
  if (next.entry) {
    next.entry(*this);
  }
}

void Monitor::FailAssert(const std::string& message) {
  Rt().FailAssert("monitor '" + debug_name_ + "': " + message);
}

void Monitor::Start() { Goto(start_state_); }

void Monitor::ResetForReuse() {
  current_state_ = nullptr;
  hot_steps_ = 0;
  transitions_taken_ = 0;
  OnReset();
}

void Monitor::HandleNotification(const Event& event) {
  if (current_state_ == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   "monitor '" + debug_name_ + "' notified before start");
  }
  const EventTypeId type_id = event.TypeId();
  if (current_state_->ignores.Contains(type_id)) {
    return;
  }
  const std::int32_t handler = current_state_->HandlerIndexOf(type_id);
  if (handler == detail::kNoEntry) {
    throw BugFound(BugKind::kHarnessError,
                   "monitor '" + debug_name_ + "' in state '" +
                       current_state_->name + "' cannot handle notification " +
                       event.Name());
  }
  current_state_->handlers[static_cast<std::size_t>(handler)](*this, event);
}

// ===========================================================================
// Runtime

Runtime::Runtime(SchedulingStrategy& strategy, RuntimeOptions options)
    : strategy_(strategy),
      options_(options),
      strategy_builtin_(strategy.Builtin()),
      fault_mode_(options_.FaultInjectionEnabled() || options_.replay_faults),
      probe_(options_.probe) {
  // One up-front allocation instead of log2(steps) regrows per execution;
  // capped so huge step bounds don't preallocate tens of megabytes.
  trace_.Reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(options_.max_steps, 4096)));
  enabled_scratch_.reserve(16);
}

Runtime::~Runtime() = default;

MachineId Runtime::Attach(std::unique_ptr<Machine> machine,
                          std::string debug_name) {
  machine->runtime_ = this;
  machine->logging_ = options_.logging;
  machine->id_ = MachineId{machines_.size() + 1};
  machine->debug_name_ = std::move(debug_name);
  machine->debug_name_ += '(';
  machine->debug_name_ += std::to_string(machine->id_.value);
  machine->debug_name_ += ')';
  if (machine->start_state_.empty()) {
    throw BugFound(BugKind::kHarnessError,
                   "machine '" + machine->debug_name_ +
                       "' declared no start state (call SetStart)");
  }
  if (machine->decl_ == nullptr) {
    if (machine->share_decls_) {
      // First instance of this machine type anywhere in the process: compile
      // and publish its declarations. Later instances skip declaration
      // building entirely (see CreateMachine).
      machine->decl_ = detail::DeclRegistry::GetOrCompileMachineDecl(
          std::type_index(typeid(*machine)),
          std::move(machine->builder_states_));
    } else {
      machine->owned_decl_ = detail::CompileMachineDeclUnshared(
          std::type_index(typeid(*machine)),
          std::move(machine->builder_states_));
      machine->decl_ = machine->owned_decl_.get();
    }
    machine->builder_states_.clear();
  }
  if (probe_ != nullptr && probe_->coverage) [[unlikely]] {
    // Coverage heatmaps: a dense StateId-indexed visit array per machine.
    // Sized here (decl_ is resolved by now); EnterState only counts when
    // non-empty, so coverage-off runs never touch it.
    machine->state_visits_.assign(machine->decl_->states.size(), 0);
  }
  machines_.push_back(std::move(machine));
  const MachineId id = machines_.back()->id_;
  if (options_.stateful) {
    machines_.back()->queue_.EnableHash();
    // The contribution is NOT hashed here but at the next fingerprint
    // refresh — after harness setup (or the creating step) has finished
    // initializing the machine, so post-Create mutations like SetPeer are
    // visible to FingerprintPayload.
    fp_contrib_.push_back(0);
    MarkFingerprintDirty(*machines_.back());
  }
  if (LoggingEnabled()) {
    LogLine("create  ", machines_.back()->debug_name_);
  }
  return id;
}

void Runtime::AttachMonitor(std::unique_ptr<Monitor> monitor,
                            std::string debug_name,
                            EventTypeId monitor_type_id) {
  monitor->runtime_ = this;
  monitor->debug_name_ = std::move(debug_name);
  if (monitor->start_state_.empty()) {
    throw BugFound(BugKind::kHarnessError,
                   "monitor '" + monitor->debug_name_ +
                       "' declared no start state (call SetStart)");
  }
  if (monitor->decl_ == nullptr) {
    if (monitor->share_decls_) {
      monitor->decl_ = detail::DeclRegistry::GetOrCompileMonitorDecl(
          std::type_index(typeid(*monitor)),
          std::move(monitor->builder_states_));
    } else {
      monitor->owned_decl_ = detail::CompileMonitorDeclUnshared(
          std::type_index(typeid(*monitor)),
          std::move(monitor->builder_states_));
      monitor->decl_ = monitor->owned_decl_.get();
    }
    monitor->builder_states_.clear();
  }
  Monitor* raw = monitor.get();
  monitors_.push_back(std::move(monitor));
  if (monitors_by_id_.size() <= monitor_type_id) {
    monitors_by_id_.resize(monitor_type_id + 1, nullptr);
  }
  if (monitors_by_id_[monitor_type_id] == nullptr) {
    // First registration of the type wins, matching the map-emplace
    // semantics notifications and FindMonitor have always had.
    monitors_by_id_[monitor_type_id] = raw;
  }
  raw->Start();
}

const Machine* Runtime::FindMachine(MachineId id) const {
  if (!id.Valid() || id.value > machines_.size()) return nullptr;
  return machines_[id.value - 1].get();
}

Machine* Runtime::FindMachine(MachineId id) {
  if (!id.Valid() || id.value > machines_.size()) return nullptr;
  return machines_[id.value - 1].get();
}

void Runtime::DeliverEvent(MachineId target, std::unique_ptr<const Event> ev,
                           const Machine* sender) {
  Machine* machine = FindMachine(target);
  if (machine == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   std::string("send to unknown machine id ") +
                       std::to_string(target.value) + " from '" +
                       (sender ? sender->DebugName() : "<harness>") + "'");
  }
  if (machine->halted_ || machine->crashed_) {
    // Events to halted machines are silently dropped (P# semantics); crashed
    // machines behave the same until a restart.
    return;
  }
  if (fault_mode_ && sender != nullptr && sender != machine) [[unlikely]] {
    // Partition check FIRST, before the delivery-fault choice point: a
    // delivery suppressed by an installed partition never consumes a
    // delivery ordinal or a strategy draw. The partition schedule derives
    // identically from the trace in record and replay, so both modes skip
    // the same deliveries and the ordinal streams stay aligned.
    if (sender->partitioned_ || machine->partitioned_) {
      if (LoggingEnabled()) {
        LogLine("part    ", sender->DebugName(), " x ", machine->DebugName(),
                " : ", ev->Name());
      }
      return;  // dropped by the partition
    }
    // Message-fault choice point. Only machine-to-machine traffic between
    // DISTINCT machines is eligible: harness setup sends are wiring, and
    // self-sends are a machine's internal control flow, not the network.
    if (ApplyDeliveryFault(*machine, *ev)) {
      return;  // dropped
    }
  }
  if (LoggingEnabled()) {
    LogLine("send    ", sender ? sender->DebugName() : "<harness>", " -> ",
            machine->DebugName(), " : ", ev->Name());
  }
  // No branch hint: when a probe is armed this is taken on EVERY delivery,
  // and when it isn't the null check predicts perfectly on its own.
  if (probe_ != nullptr) {
    probe_->CountDelivery(ev->TypeId());
  }
  machine->queue_.PushBack(std::move(ev));
  machine->MarkEnabledDirty();
  if (options_.stateful) {
    MarkFingerprintDirty(*machine);
  }
}

void Runtime::SetCrashable(MachineId id, bool crashable) {
  Machine* machine = FindMachine(id);
  if (machine == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   "SetCrashable on unknown machine id " +
                       std::to_string(id.value));
  }
  if (machine->crashable_ != crashable) {
    machine->crashable_ = crashable;
    crashable_machines_ += crashable ? 1 : -1;
  }
}

void Runtime::SetPartitionable(MachineId id, bool partitionable) {
  Machine* machine = FindMachine(id);
  if (machine == nullptr) {
    throw BugFound(BugKind::kHarnessError,
                   "SetPartitionable on unknown machine id " +
                       std::to_string(id.value));
  }
  if (machine->partitionable_ != partitionable) {
    machine->partitionable_ = partitionable;
    partitionable_machines_ += partitionable ? 1 : -1;
  }
}

void Runtime::SendEvent(MachineId target, std::unique_ptr<const Event> ev) {
  DeliverEvent(target, std::move(ev), nullptr);
}

void Runtime::NotifyMonitorById(EventTypeId monitor_type_id,
                                const Event& event) {
  Monitor* monitor = monitor_type_id < monitors_by_id_.size()
                         ? monitors_by_id_[monitor_type_id]
                         : nullptr;
  if (monitor == nullptr) {
    return;  // monitor not registered in this harness: notification is a no-op
  }
  if (LoggingEnabled()) {
    LogLine("notify  ", monitor->DebugName(), " <- ", event.Name());
  }
  monitor->HandleNotification(event);
}

void Runtime::FailAssert(const std::string& message) {
  throw BugFound(BugKind::kSafety, message);
}

bool Runtime::ChooseBool() {
  const bool value = strategy_.NextBool();
  trace_.RecordBool(value);
  return value;
}

std::uint64_t Runtime::ChooseInt(std::uint64_t bound) {
  if (bound == 0) {
    throw BugFound(BugKind::kHarnessError, "NondetInt with bound 0");
  }
  const std::uint64_t value = strategy_.NextInt(bound);
  trace_.RecordInt(value, bound);
  return value;
}

bool Runtime::Step() {
  if (fault_mode_) [[unlikely]] {
    // Fault choice point (crash/restart/partition/heal) at the step
    // boundary, BEFORE the enabled scan: a crash shrinks the enabled set,
    // a restart can revive a quiescent world.
    MaybeInjectFault();
  }
  enabled_scratch_.clear();
  for (const auto& machine : machines_) {
    if (machine->CachedEnabled()) {
      enabled_scratch_.push_back(machine->id_);  // id order == sorted
    }
  }
  if (enabled_scratch_.empty()) {
    return false;
  }
  // No branch hint — see DeliverEvent: armed probes take this every step.
  if (probe_ != nullptr) {
    probe_->CountEnabled(enabled_scratch_.size());
  }
  // The scheduling call dominates the step loop for the paper's two main
  // strategies; both classes are final, so the tagged casts below compile to
  // direct calls instead of vtable dispatch. kOther (replay, round-robin,
  // third-party registrations) keeps the virtual path.
  MachineId chosen;
  switch (strategy_builtin_) {
    case BuiltinStrategy::kRandom:
      chosen = static_cast<RandomStrategy&>(strategy_).Next(enabled_scratch_,
                                                            steps_);
      break;
    case BuiltinStrategy::kPct:
      chosen =
          static_cast<PctStrategy&>(strategy_).Next(enabled_scratch_, steps_);
      break;
    case BuiltinStrategy::kOther:
      chosen = strategy_.Next(enabled_scratch_, steps_);
      break;
  }
  trace_.RecordSchedule(chosen.value);
  ++steps_;
  cascade_actions_ = 0;
  Machine* machine = FindMachine(chosen);
  machine->RunStep();
  // Everything about the stepped machine may have changed (queue, state,
  // receive status, halt); senders were marked dirty by DeliverEvent.
  machine->MarkEnabledDirty();
  if (options_.stateful) {
    MarkFingerprintDirty(*machine);
    RefreshFingerprint();
    if (options_.record_fingerprint_trail) {
      fp_trail_.push_back(world_fp_ ^ SharedStateFingerprint());
    }
  }
  if (!monitors_.empty()) {
    UpdateMonitorTemperatures();
  }
  return true;
}

void Runtime::MaybeInjectFault() {
  FaultContext ctx;
  ctx.step = steps_;
  ctx.odds_den = options_.fault_odds_den;
  ctx.heal_den = options_.partition_heal_den;
  if (!options_.replay_faults) {
    // Exploration: offer the strategy only what the budgets still allow.
    // Candidate collection is skipped entirely when no machine qualifies, so
    // scenarios with no SetCrashable/SetPartitionable opt-ins never pay for
    // (or perturb RNG with) fault rolls.
    if (fault_stats_.crashes < options_.max_crashes &&
        crashable_machines_ > 0) {
      crash_scratch_.clear();
      for (const auto& machine : machines_) {
        if (machine->crashable_ && !machine->crashed_ && !machine->halted_) {
          crash_scratch_.push_back(machine->id_);
        }
      }
      ctx.crashable = crash_scratch_;
    }
    if (fault_stats_.restarts < options_.max_restarts &&
        crashed_machines_ > 0) {
      restart_scratch_.clear();
      for (const auto& machine : machines_) {
        if (machine->crashed_) {
          restart_scratch_.push_back(machine->id_);
        }
      }
      ctx.restartable = restart_scratch_;
    }
    if (fault_stats_.partitions < options_.max_partitions &&
        partitionable_machines_ > 0) {
      partition_scratch_.clear();
      for (const auto& machine : machines_) {
        if (machine->partitionable_ && !machine->partitioned_ &&
            !machine->crashed_ && !machine->halted_) {
          partition_scratch_.push_back(machine->id_);
        }
      }
      ctx.partitionable = partition_scratch_;
    }
    if (options_.partition_heal_den > 0 && partitioned_machines_ > 0) {
      heal_scratch_.clear();
      for (const auto& machine : machines_) {
        if (machine->partitioned_) {
          heal_scratch_.push_back(machine->id_);
        }
      }
      ctx.healable = heal_scratch_;
    }
    if (ctx.crashable.empty() && ctx.restartable.empty() &&
        ctx.partitionable.empty() && ctx.healable.empty()) {
      return;
    }
  }
  const FaultDecision decision = strategy_.NextFault(ctx);
  switch (decision.kind) {
    case FaultDecision::Kind::kNone:
      return;
    case FaultDecision::Kind::kCrash:
      ApplyCrash(decision.machine);
      return;
    case FaultDecision::Kind::kRestart:
      ApplyRestart(decision.machine);
      return;
    case FaultDecision::Kind::kPartition:
      ApplyPartition(decision.machine);
      return;
    case FaultDecision::Kind::kHeal:
      ApplyHeal(decision.machine);
      return;
  }
}

void Runtime::ApplyCrash(MachineId id) {
  Machine* machine = FindMachine(id);
  if (machine == nullptr || machine->crashed_ || machine->halted_) {
    // Under replay the trace disagrees with the world it is replayed
    // against; during exploration the built-in default can't get here (its
    // candidates are pre-filtered), so the fault came from a custom
    // NextFault override that ignored ctx.crashable — a strategy bug, not a
    // replay problem.
    const std::string what = "crash of machine " + std::to_string(id.value) +
                             " which is unknown, halted or already crashed";
    if (options_.replay_faults) {
      throw BugFound(BugKind::kReplayDivergence, "replay: " + what);
    }
    throw BugFound(BugKind::kHarnessError,
                   "strategy '" + strategy_.Name() + "' chose a " + what +
                       " (NextFault must pick from ctx.crashable)");
  }
  // Record before applying: OnCrash may Notify a monitor that immediately
  // fails the execution, and the witness trace must still contain the crash
  // that caused it.
  trace_.RecordCrash(id.value, steps_);
  ++fault_stats_.crashes;
  if (probe_ != nullptr) [[unlikely]] {
    probe_->CountFault(obs::FaultKind::kCrash, steps_, options_.max_steps);
  }
  ++crashed_machines_;
  machine->DoCrash();
  machine->MarkEnabledDirty();
  if (options_.stateful) {
    MarkFingerprintDirty(*machine);
  }
}

void Runtime::ApplyRestart(MachineId id) {
  Machine* machine = FindMachine(id);
  if (machine == nullptr || !machine->crashed_) {
    const std::string what = "restart of machine " + std::to_string(id.value) +
                             " which is not crashed";
    if (options_.replay_faults) {
      throw BugFound(BugKind::kReplayDivergence, "replay: " + what);
    }
    throw BugFound(BugKind::kHarnessError,
                   "strategy '" + strategy_.Name() + "' chose a " + what +
                       " (NextFault must pick from ctx.restartable)");
  }
  trace_.RecordRestart(id.value, steps_);
  ++fault_stats_.restarts;
  if (probe_ != nullptr) [[unlikely]] {
    probe_->CountFault(obs::FaultKind::kRestart, steps_, options_.max_steps);
  }
  --crashed_machines_;
  machine->DoRestart();
  machine->MarkEnabledDirty();
  if (options_.stateful) {
    MarkFingerprintDirty(*machine);
  }
}

void Runtime::ApplyPartition(MachineId id) {
  Machine* machine = FindMachine(id);
  if (machine == nullptr || machine->partitioned_ || machine->crashed_ ||
      machine->halted_) {
    const std::string what =
        "partition of machine " + std::to_string(id.value) +
        " which is unknown, halted, crashed or already partitioned";
    if (options_.replay_faults) {
      throw BugFound(BugKind::kReplayDivergence, "replay: " + what);
    }
    throw BugFound(BugKind::kHarnessError,
                   "strategy '" + strategy_.Name() + "' chose a " + what +
                       " (NextFault must pick from ctx.partitionable)");
  }
  trace_.RecordPartition(id.value, steps_);
  ++fault_stats_.partitions;
  if (probe_ != nullptr) [[unlikely]] {
    probe_->CountFault(obs::FaultKind::kPartition, steps_, options_.max_steps);
  }
  ++partitioned_machines_;
  // No per-machine fingerprint invalidation: the active partition set is
  // world state, hashed on every read by SharedStateFingerprint.
  machine->partitioned_ = true;
  if (LoggingEnabled()) {
    LogLine("part    ", machine->DebugName(), " isolated");
  }
}

void Runtime::ApplyHeal(MachineId id) {
  Machine* machine = FindMachine(id);
  if (machine == nullptr || !machine->partitioned_) {
    const std::string what = "heal of machine " + std::to_string(id.value) +
                             " which is not partitioned";
    if (options_.replay_faults) {
      throw BugFound(BugKind::kReplayDivergence, "replay: " + what);
    }
    throw BugFound(BugKind::kHarnessError,
                   "strategy '" + strategy_.Name() + "' chose a " + what +
                       " (NextFault must pick from ctx.healable)");
  }
  trace_.RecordHeal(id.value, steps_);
  ++fault_stats_.heals;
  if (probe_ != nullptr) [[unlikely]] {
    probe_->CountFault(obs::FaultKind::kHeal, steps_, options_.max_steps);
  }
  --partitioned_machines_;
  machine->partitioned_ = false;
  if (LoggingEnabled()) {
    LogLine("heal    ", machine->DebugName(), " reconnected");
  }
}

bool Runtime::ApplyDeliveryFault(Machine& target, const Event& ev) {
  // The ordinal advances for EVERY eligible delivery while the fault plane
  // is active, fault or not — it is the coordinate recorded decisions key
  // on, so recording and replay must count identically.
  const std::uint64_t ordinal = delivery_seq_++;
  DeliveryFaultContext ctx;
  ctx.ordinal = ordinal;
  ctx.target = target.id_;
  if (!options_.replay_faults) {
    ctx.drop_allowed = options_.drop_probability_den > 0;
    ctx.drop_den = options_.drop_probability_den;
    ctx.duplicate_allowed =
        fault_stats_.duplications < options_.max_duplications &&
        detail::CloneFnFor(ev.TypeId()) != nullptr;
    ctx.dup_den = options_.fault_odds_den;
    if (!ctx.drop_allowed && !ctx.duplicate_allowed) {
      return false;
    }
  }
  switch (strategy_.NextDeliveryFault(ctx)) {
    case DeliveryFault::kNone:
      return false;
    case DeliveryFault::kDrop:
      trace_.RecordDrop(ordinal, target.id_.value);
      ++fault_stats_.drops;
      if (probe_ != nullptr) [[unlikely]] {
        probe_->CountFault(obs::FaultKind::kDrop, steps_, options_.max_steps);
      }
      if (LoggingEnabled()) {
        LogLine("drop    ", " -> ", target.DebugName(), " : ", ev.Name());
      }
      return true;
    case DeliveryFault::kDuplicate: {
      std::unique_ptr<const Event> clone = detail::CloneEvent(ev);
      if (clone == nullptr) {
        // Replay: the recording process could clone this type, so the
        // replayed build diverged. Exploration: a custom NextDeliveryFault
        // override forced a duplication the runtime never offered.
        if (options_.replay_faults) {
          throw BugFound(BugKind::kReplayDivergence,
                         "replay: duplication of event " + ev.Name() +
                             " with no registered clone");
        }
        throw BugFound(BugKind::kHarnessError,
                       "strategy '" + strategy_.Name() +
                           "' duplicated uncloneable event " + ev.Name() +
                           " (honor ctx.duplicate_allowed)");
      }
      trace_.RecordDuplicate(ordinal, target.id_.value);
      ++fault_stats_.duplications;
      if (probe_ != nullptr) [[unlikely]] {
        probe_->CountFault(obs::FaultKind::kDuplicate, steps_,
                           options_.max_steps);
        // The clone is an extra enqueue the normal delivery path never sees.
        probe_->CountDelivery(ev.TypeId());
      }
      if (LoggingEnabled()) {
        LogLine("dup     ", " -> ", target.DebugName(), " : ", ev.Name());
      }
      // The clone goes in here; the caller enqueues the original right
      // after, so the queue ends up with two adjacent identical events.
      target.queue_.PushBack(std::move(clone));
      return false;
    }
  }
  return false;
}

void Runtime::MarkFingerprintDirty(Machine& machine) {
  if (!machine.fp_dirty_) {
    machine.fp_dirty_ = true;
    fp_dirty_ids_.push_back(machine.id_.value);
  }
}

void Runtime::RefreshFingerprint() {
  for (const std::uint64_t id : fp_dirty_ids_) {
    Machine& machine = *machines_[id - 1];
    machine.fp_dirty_ = false;
    const Fingerprint fresh =
        machine.ComputeStateFingerprint(options_.fingerprint_payloads);
    world_fp_ ^= fp_contrib_[id - 1] ^ fresh;
    fp_contrib_[id - 1] = fresh;
  }
  fp_dirty_ids_.clear();
}

Fingerprint Runtime::SharedStateFingerprint() const {
  Fingerprint fp = 0;
  if (options_.fingerprint_payloads && !fp_probes_.empty()) {
    // Shared-state probes cannot be tracked per-machine, so they rehash on
    // every read (opt-in, and the probed state is small by construction).
    StateHasher hasher;
    for (const auto& probe : fp_probes_) {
      probe(hasher);
    }
    fp ^= hasher.Digest();
  }
  if (fault_mode_) {
    // Remaining fault budgets are explorer state that changes which
    // continuations exist from a program state: a world revisited with fewer
    // crashes left is NOT the world whose continuations were already
    // explored, so it must not prune against it. (Drops are probability-
    // gated, not budgeted — past drops change no future capability. Heals
    // are odds-gated too, but the heal COUNT still matters through the
    // partition budget asymmetry: consumed installs are hashed, and the
    // active-partition set below distinguishes healed from still-isolated.)
    StateHasher hasher;
    hasher.Mix(fault_stats_.crashes);
    hasher.Mix(fault_stats_.restarts);
    hasher.Mix(fault_stats_.duplications);
    hasher.Mix(fault_stats_.partitions);
    // The active partition set is connectivity state no machine contribution
    // sees (an isolated machine's own state/queue can match a connected
    // one's exactly while its future deliveries all vanish), so it must
    // distinguish the fingerprints. Mixed in id order for determinism.
    if (partitioned_machines_ > 0) {
      hasher.Mix(partitioned_machines_);
      for (const auto& machine : machines_) {
        if (machine->partitioned_) {
          hasher.Mix(machine->id_.value);
        }
      }
    }
    fp ^= hasher.Digest();
  }
  return fp;
}

Fingerprint Runtime::ExecutionFingerprint() {
  RefreshFingerprint();
  return world_fp_ ^ SharedStateFingerprint();
}

Fingerprint Runtime::RecomputeExecutionFingerprint() const {
  Fingerprint world = 0;
  for (const auto& machine : machines_) {
    world ^= machine->HashState(options_.fingerprint_payloads,
                                /*queue_from_lane=*/true);
  }
  return world ^ SharedStateFingerprint();
}

void Runtime::UpdateMonitorTemperatures() {
  for (const auto& monitor : monitors_) {
    if (monitor->IsHot()) {
      ++monitor->hot_steps_;
    } else {
      monitor->hot_steps_ = 0;
    }
  }
}

void Runtime::ThrowCascadeOverflow() const {
  throw BugFound(BugKind::kHarnessError,
                 "handler cascade exceeded " +
                     std::to_string(options_.max_cascade_actions) +
                     " actions in one step (raise/goto loop?)");
}

void Runtime::CheckTermination(bool hit_bound) {
  if (!hit_bound) {
    // Quiescence: nothing is in flight, so a hot monitor can never cool down
    // — a definite liveness violation.
    for (const auto& monitor : monitors_) {
      if (monitor->IsHot()) {
        throw BugFound(BugKind::kLiveness,
                       "monitor '" + monitor->DebugName() +
                           "' is hot (state '" + monitor->CurrentStateName() +
                           "') at quiescence: required progress can never happen");
      }
    }
    if (options_.report_deadlock) {
      for (const auto& machine : machines_) {
        if (!machine->Halted() && machine->IsWaitingInReceive()) {
          throw BugFound(BugKind::kDeadlock,
                         "machine '" + machine->DebugName() +
                             "' blocked in Receive at quiescence");
        }
      }
    }
    return;
  }
  // Bound reached: treat the execution as "infinite" (§2.5) and flag any
  // monitor that has been continuously hot past the temperature threshold.
  const std::uint64_t threshold = options_.liveness_temperature_threshold != 0
                                      ? options_.liveness_temperature_threshold
                                      : options_.max_steps / 2;
  for (const auto& monitor : monitors_) {
    if (monitor->IsHot() && monitor->hot_steps_ >= threshold) {
      throw BugFound(
          BugKind::kLiveness,
          "monitor '" + monitor->DebugName() + "' stayed hot (state '" +
              monitor->CurrentStateName() + "') for " +
              std::to_string(monitor->hot_steps_) +
              " consecutive steps of a bounded-infinite execution");
    }
  }
}

bool Runtime::SealForReuse() {
  if (sealed_) {
    return true;
  }
  if (steps_ != 0 || !trace_.Empty()) {
    return false;  // stepping (or a nondet choice) already happened
  }
  for (const auto& machine : machines_) {
    if (!machine->reusable_) {
      return false;
    }
  }
  for (const auto& monitor : monitors_) {
    if (!monitor->reusable_) {
      return false;
    }
  }
  // The prototypes must survive every arena epoch of the recycled runtime's
  // lifetime, so they are cloned with the arena disarmed (heap-backed,
  // real deletes). The pause outlives `setup` so the partial clones of a
  // failure return are really freed, not arena-no-op'd.
  const detail::ScopedEventArenaPause pause;
  std::vector<SetupEvent> setup;
  for (const auto& machine : machines_) {
    for (const auto& ev : machine->queue_) {
      std::unique_ptr<const Event> clone = detail::CloneEvent(*ev);
      if (clone == nullptr) {
        return false;  // uncloneable setup event: stay on the fresh path
      }
      setup.push_back(SetupEvent{machine->id_, std::move(clone)});
    }
  }
  setup_events_ = std::move(setup);
  sealed_machines_ = machines_.size();
  sealed_monitors_ = monitors_.size();
  sealed_fp_probes_ = fp_probes_.size();
  sealed_monitors_by_id_ = monitors_by_id_;
  sealed_crashable_.resize(machines_.size());
  sealed_partitionable_.resize(machines_.size());
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    sealed_crashable_[i] = machines_[i]->crashable_ ? 1 : 0;
    sealed_partitionable_[i] = machines_[i]->partitionable_ ? 1 : 0;
  }
  sealed_ = true;
  return true;
}

void Runtime::ResetForNextExecution(detail::EventArena* arena) {
  assert(sealed_);
  // Machines/monitors/probes created mid-execution are dropped; ids restart
  // at the sealed count, so the next execution assigns identical ids to
  // identical Create calls.
  machines_.resize(sealed_machines_);
  monitors_.resize(sealed_monitors_);
  fp_probes_.resize(sealed_fp_probes_);
  monitors_by_id_ = sealed_monitors_by_id_;
  crashable_machines_ = 0;
  partitionable_machines_ = 0;
  crashed_machines_ = 0;
  partitioned_machines_ = 0;
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    Machine& machine = *machines_[i];
    machine.ResetForReuse();
    machine.crashable_ = sealed_crashable_[i] != 0;
    machine.partitionable_ = sealed_partitionable_[i] != 0;
    crashable_machines_ += machine.crashable_ ? 1 : 0;
    partitionable_machines_ += machine.partitionable_ ? 1 : 0;
  }
  steps_ = 0;
  cascade_actions_ = 0;
  delivery_seq_ = 0;
  fault_stats_ = {};
  log_.clear();
  trace_.Clear();
  // TakeTrace moved the decision storage away with the trace, so re-reserve
  // exactly what the constructor did.
  trace_.Reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(options_.max_steps, 4096)));
  fp_trail_.clear();
  if (options_.stateful) {
    fp_contrib_.assign(machines_.size(), 0);
    world_fp_ = 0;
    fp_dirty_ids_.clear();
    for (const auto& machine : machines_) {
      MarkFingerprintDirty(*machine);
    }
  }
  // Rewind the event epoch BEFORE re-delivering the setup prototypes: their
  // clones must come out of the NEW epoch. Every event pointer the old epoch
  // backed (queues, current events, coroutine-held events) was dropped by
  // the wipes above, so nothing dangles.
  if (arena != nullptr) {
    arena->ResetEpoch();
  }
  for (const auto& monitor : monitors_) {
    monitor->ResetForReuse();
    monitor->Start();
  }
  // Re-deliver the sealed setup events, reproducing the harness's
  // DeliverEvent side effects (probe delivery counts, fingerprint marks)
  // bit-for-bit. sender == nullptr, so the fault plane never sees them —
  // exactly like the original Runtime::SendEvent calls.
  for (const auto& setup : setup_events_) {
    DeliverEvent(setup.target, detail::CloneEvent(*setup.prototype), nullptr);
  }
}

std::vector<std::unique_ptr<const Event>>
Runtime::TakeSetupPrototypes() noexcept {
  std::vector<std::unique_ptr<const Event>> prototypes;
  prototypes.reserve(setup_events_.size());
  for (SetupEvent& setup : setup_events_) {
    prototypes.push_back(std::move(setup.prototype));
  }
  setup_events_.clear();
  sealed_ = false;
  return prototypes;
}

Runtime::Stats Runtime::GetStats() const {
  Stats stats;
  stats.machines = machines_.size();
  stats.monitors = monitors_.size();
  for (const auto& machine : machines_) {
    stats.states += machine->decl_->states.size();
    stats.transitions_taken += machine->transitions_taken_;
    for (const detail::CompiledState& state : machine->decl_->states) {
      stats.action_handlers += state.handlers.size();
      if (state.entry.Valid()) ++stats.action_handlers;
      if (state.exit) ++stats.action_handlers;
      stats.declared_transitions += state.goto_names.size();
    }
  }
  for (const auto& monitor : monitors_) {
    stats.states += monitor->decl_->states.size();
    stats.transitions_taken += monitor->transitions_taken_;
    for (const detail::CompiledMonitorState& state : monitor->decl_->states) {
      stats.action_handlers += state.handlers.size();
      if (state.entry) ++stats.action_handlers;
    }
  }
  return stats;
}

}  // namespace systest
