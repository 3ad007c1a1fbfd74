// SysTest systematic-testing framework.
//
// Machine/monitor state declarations, in two forms:
//
//  * Builder form (StateDecl / MonitorStateDecl): what State(...) fluent
//    declarations in a constructor accumulate — flexible maps keyed by
//    interned EventTypeId.
//  * Compiled form (MachineDecl / MonitorDecl): an immutable, process-wide
//    per-TYPE artifact built once, on the first Attach of each machine type.
//    States get dense StateIds; handler/goto lookups become flat vector
//    indexing; defer/ignore sets become bitsets. Every later instance of the
//    type skips declaration building entirely (its constructor's State()
//    calls no-op behind a thread-local flag) and just points at the shared
//    decl.
//
// The sharing contract: a machine type's constructor must declare the SAME
// states, handlers and defers for every instance — per-instance variation
// belongs in member data or in SetStart (which stays per-instance precisely
// because harness monitors pick their start state from constructor
// arguments). A state graph that varies (say, with a bug-injection flag) is
// two machine types, one per graph, as fabric's AggregatorMachine and
// UnguardedAggregatorMachine are; the declarations are structural, like a
// class definition.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <set>
#include <string>
#include <type_traits>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/event.h"
#include "core/task.h"

namespace systest {

class Machine;
class Monitor;

namespace detail {

/// Minimal fixed-size callable: stores a trivially-copyable capture of at
/// most 16 bytes (the builder lambdas capture exactly one member-function
/// pointer) and dispatches through one function pointer — cheaper to invoke
/// than std::function on the per-dispatch hot path, and trivially copyable
/// so compiled declarations stay flat.
template <typename Sig>
class InlineFn;

template <typename R, typename... Args>
class InlineFn<R(Args...)> {
 public:
  InlineFn() = default;

  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, InlineFn> &&
             sizeof(std::decay_t<F>) <= 16 &&
             std::is_trivially_copyable_v<std::decay_t<F>> &&
             std::is_trivially_destructible_v<std::decay_t<F>>)
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in callable
    using Fn = std::decay_t<F>;
    new (storage_) Fn(std::forward<F>(f));
    invoke_ = [](const void* storage, Args... args) -> R {
      return (*static_cast<const Fn*>(storage))(args...);
    };
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }
  R operator()(Args... args) const { return invoke_(storage_, args...); }

 private:
  alignas(void*) unsigned char storage_[16] = {};
  R (*invoke_)(const void*, Args...) = nullptr;
};

/// Type-erased handler: either a synchronous action or a coroutine. The
/// event pointer is null for entry actions.
struct Handler {
  InlineFn<void(Machine&, const Event*)> sync;
  InlineFn<Task(Machine&, const Event*)> coro;

  [[nodiscard]] bool Valid() const noexcept {
    return static_cast<bool>(sync) || static_cast<bool>(coro);
  }
};

/// Builder form of one machine state (see file comment).
struct StateDecl {
  std::string name;
  Handler entry;
  InlineFn<void(Machine&)> exit;
  std::unordered_map<EventTypeId, Handler> handlers;
  std::unordered_map<EventTypeId, std::string> gotos;
  std::set<EventTypeId> defers;
  std::set<EventTypeId> ignores;
  bool hot = false;   // liveness: progress required while in this state
  bool cold = false;  // liveness: progress happened
};

/// Builder form of one monitor state: always-synchronous handlers.
struct MonitorStateDecl {
  std::string name;
  InlineFn<void(Monitor&)> entry;
  std::unordered_map<EventTypeId, InlineFn<void(Monitor&, const Event&)>>
      handlers;
  std::set<EventTypeId> ignores;
  bool hot = false;
  bool cold = false;
};

/// Dense per-type state id: index into MachineDecl::states (assigned in
/// state-name order, so it is deterministic for a given declaration).
using StateId = std::uint32_t;

inline constexpr std::int32_t kNoEntry = -1;
/// OnGoto target that names a state the machine never declared. The error is
/// raised when (and only when) the goto fires, matching the lazy-lookup
/// semantics declarations had before compilation existed.
inline constexpr std::int32_t kDanglingGoto = -2;
/// Dispatch-table encoding of "OnGoto to StateId s": kGotoBase - s. (Values
/// >= 0 are handler indices; kNoEntry means unhandled.)
inline constexpr std::int32_t kGotoBase = -3;

[[nodiscard]] constexpr std::int32_t EncodeGoto(StateId target) noexcept {
  return kGotoBase - static_cast<std::int32_t>(target);
}
[[nodiscard]] constexpr StateId DecodeGoto(std::int32_t entry) noexcept {
  return static_cast<StateId>(kGotoBase - entry);
}

/// Bitset over interned event ids; ids outside the allocated range are
/// simply "not contained", so sets stay as small as the largest id they
/// actually hold.
class EventIdSet {
 public:
  void Insert(EventTypeId id) {
    const std::size_t word = id >> 6;
    if (word >= bits_.size()) {
      bits_.resize(word + 1, 0);
    }
    bits_[word] |= std::uint64_t{1} << (id & 63);
  }

  [[nodiscard]] bool Contains(EventTypeId id) const noexcept {
    const std::size_t word = id >> 6;
    return word < bits_.size() &&
           ((bits_[word] >> (id & 63)) & std::uint64_t{1}) != 0;
  }

  [[nodiscard]] bool Empty() const noexcept { return bits_.empty(); }

  [[nodiscard]] std::size_t Count() const noexcept {
    std::size_t count = 0;
    for (const std::uint64_t word : bits_) {
      count += static_cast<std::size_t>(__builtin_popcountll(word));
    }
    return count;
  }

 private:
  std::vector<std::uint64_t> bits_;
};

/// Compiled form of one machine state: one flat dispatch table indexed by
/// EventTypeId. An entry is a handler index (>= 0), kNoEntry, kDanglingGoto
/// or an EncodeGoto'd target state — a declared OnGoto shadows a handler for
/// the same event, as it always has.
struct CompiledState {
  std::string name;
  Handler entry;
  InlineFn<void(Machine&)> exit;
  std::vector<Handler> handlers;        ///< dense, ascending event id
  std::vector<std::int32_t> dispatch;   ///< event id -> encoded action
  /// Every OnGoto registration's declared target name (also the dangling
  /// ones), for goto logging/errors and Runtime::GetStats.
  std::unordered_map<EventTypeId, std::string> goto_names;
  EventIdSet defers;
  EventIdSet ignores;
  bool hot = false;
  bool cold = false;

  [[nodiscard]] std::int32_t DispatchOf(EventTypeId id) const noexcept {
    return id < dispatch.size() ? dispatch[id] : kNoEntry;
  }
};

/// Immutable per-machine-TYPE declaration, shared by every instance of the
/// type across all Runtimes (and threads) in the process.
struct MachineDecl {
  std::vector<CompiledState> states;  ///< StateId-indexed
  std::unordered_map<std::string, StateId> by_name;
  std::type_index type{typeid(void)};  ///< for diagnostics and tests

  /// Linear scan: state counts are tiny (2-6), so comparing names directly
  /// (length check first) beats hashing the string on the Goto/Transition
  /// hot path. by_name stays for compile-time duplicate detection.
  [[nodiscard]] const CompiledState* FindState(
      const std::string& name) const {
    for (const CompiledState& state : states) {
      if (state.name == name) {
        return &state;
      }
    }
    return nullptr;
  }
};

/// Compiled form of one monitor state.
struct CompiledMonitorState {
  std::string name;
  InlineFn<void(Monitor&)> entry;
  std::vector<InlineFn<void(Monitor&, const Event&)>> handlers;
  std::vector<std::int32_t> handler_index;
  EventIdSet ignores;
  bool hot = false;
  bool cold = false;

  [[nodiscard]] std::int32_t HandlerIndexOf(EventTypeId id) const noexcept {
    return id < handler_index.size() ? handler_index[id] : kNoEntry;
  }
};

/// Immutable per-monitor-TYPE declaration.
struct MonitorDecl {
  std::vector<CompiledMonitorState> states;
  std::unordered_map<std::string, StateId> by_name;
  std::type_index type{typeid(void)};

  [[nodiscard]] const CompiledMonitorState* FindState(
      const std::string& name) const {
    for (const CompiledMonitorState& state : states) {
      if (state.name == name) {
        return &state;
      }
    }
    return nullptr;
  }
};

/// Process-wide registry of compiled declarations, one per machine/monitor
/// type. Find is how CreateMachine/RegisterMonitor decide whether a new
/// instance may skip declaration building; GetOrCompile publishes the first
/// instance's builder states (first writer wins — concurrent compiles of the
/// same type produce identical decls, so the race is benign).
class DeclRegistry {
 public:
  [[nodiscard]] static const MachineDecl* FindMachineDecl(
      std::type_index type);
  static const MachineDecl* GetOrCompileMachineDecl(
      std::type_index type, std::map<std::string, StateDecl>&& states);

  [[nodiscard]] static const MonitorDecl* FindMonitorDecl(
      std::type_index type);
  static const MonitorDecl* GetOrCompileMonitorDecl(
      std::type_index type, std::map<std::string, MonitorStateDecl>&& states);

  /// Number of machine types compiled so far (test observability).
  [[nodiscard]] static std::size_t MachineDeclCount();
};

/// Whether machine/monitor type M supports Runtime execution recycling
/// (Runtime::ResetForNextExecution). Opt-IN, because reuse is only sound
/// for a type whose author has audited its members: everything that changes
/// during an execution must be restored by Machine::ResetForReuse's built-in
/// wipe plus the type's OnReset() hook. A type declares
///   static constexpr bool kReusableRuntime = true;
/// to participate; a Runtime is recyclable only if EVERY machine and
/// monitor created at harness time declared it (mid-execution machines are
/// simply truncated at reset). Unmarked types silently keep the
/// build-per-execution path, exactly as before.
template <typename M, typename = void>
struct ReusableRuntime : std::false_type {};
template <typename M>
struct ReusableRuntime<M, std::void_t<decltype(M::kReusableRuntime)>>
    : std::bool_constant<M::kReusableRuntime> {};

/// Debug-build tripwire for the sharing contract: verifies that a later
/// instance's freshly built declarations structurally match the shared
/// compiled decl (state names, handler/goto/defer/ignore registrations,
/// entry/exit/hot/cold), throwing BugFound{kHarnessError} on drift — the
/// failure mode of a type that varies its declarations per instance. Release
/// builds skip declaration building entirely, so this only runs (and only
/// costs) in !NDEBUG.
void VerifyDeclMatches(const MachineDecl& decl,
                       const std::map<std::string, StateDecl>& states,
                       const char* type_name);
void VerifyMonitorDeclMatches(
    const MonitorDecl& decl,
    const std::map<std::string, MonitorStateDecl>& states,
    const char* type_name);

/// True while a machine/monitor constructor is running for a type whose decl
/// is already compiled: State() then returns inert builders and the
/// constructor pays nothing for declarations.
[[nodiscard]] bool SkipDeclBuild() noexcept;

/// RAII setter for the skip flag (exception-safe across throwing
/// constructors; restores the previous value, so nesting is harmless).
class ScopedDeclSkip {
 public:
  ScopedDeclSkip() noexcept;
  ~ScopedDeclSkip();
  ScopedDeclSkip(const ScopedDeclSkip&) = delete;
  ScopedDeclSkip& operator=(const ScopedDeclSkip&) = delete;

 private:
  bool previous_;
};

}  // namespace detail
}  // namespace systest
