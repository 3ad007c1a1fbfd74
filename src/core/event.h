// SysTest systematic-testing framework.
//
// Events are the only way machines communicate (the paper's P# events model
// messages, failures and timeouts, §2.1). An event is an immutable value;
// ownership is transferred into the target machine's queue as a
// std::unique_ptr<const Event>. Dispatch is by a process-wide interned
// EventTypeId — a dense integer assigned to each event type on first use —
// so the per-dispatch handler/goto/defer/ignore lookups in the runtime are
// flat array indexing instead of type_index hashing. User events remain
// ordinary structs deriving from systest::Event — no codegen, no manual
// registration step (MakeEvent stamps the id; anything else is interned
// lazily on first dispatch).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <typeindex>
#include <typeinfo>
#include <unordered_map>
#include <vector>

namespace systest {

/// Dense process-wide id of an event type (or, via MonitorTypeIdOf, of a
/// monitor type). 0 is the "not yet interned" sentinel; real ids start at 1.
using EventTypeId = std::uint32_t;

inline constexpr EventTypeId kInvalidEventTypeId = 0;

namespace detail {

/// Thread-safe type_index -> dense id intern table. Ids are assigned in
/// first-come order, so their VALUES are process-run specific — they must
/// never be serialized; everything semantic (traces, replay) is id-value
/// independent.
class TypeInternTable {
 public:
  EventTypeId GetOrRegister(std::type_index type);
  [[nodiscard]] std::size_t Count() const;

  /// Short (namespace-stripped, demangled) name of an interned id; "?" for
  /// ids this table never issued. Reverse lookup for observability — per-
  /// event-type metrics and coverage heatmaps key on it.
  [[nodiscard]] std::string NameOf(EventTypeId id) const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::type_index, EventTypeId> ids_;
  std::vector<std::string> names_;  ///< index = id - 1
};

/// The process-wide event-type intern table.
TypeInternTable& EventTypeTable();

/// Separate id space for monitor types (used by Runtime's dense monitor
/// lookup).
TypeInternTable& MonitorTypeTable();

struct EventTypeStamp;

}  // namespace detail

class Event;

namespace detail {

/// Per-type copy used by the fault plane to duplicate a delivery. Returns a
/// fresh most-derived copy of `ev`; never called for a type that did not
/// register one.
using EventCloneFn = std::unique_ptr<const Event> (*)(const Event& ev);

/// Registers/queries the clone function of an interned event type. The
/// registry is a lock-free dense array indexed by EventTypeId; registration
/// happens as a side effect of EventTypeIdOf<E>'s one-time interning, so any
/// type that ever flowed through MakeEvent/Send/On<E> is covered.
void RegisterEventClone(EventTypeId id, EventCloneFn fn);
[[nodiscard]] EventCloneFn CloneFnFor(EventTypeId id) noexcept;

/// Copies `ev` via its registered clone function (nullptr when the type
/// never registered one — e.g. a type with a non-copyable member, which the
/// fault plane then simply never duplicates).
[[nodiscard]] std::unique_ptr<const Event> CloneEvent(const Event& ev);

template <typename E>
EventTypeId InternEventType();

}  // namespace detail

/// Interned id of event type E. First call registers E (and, for copyable
/// types, its duplication clone); later calls are a guarded static read.
template <typename E>
EventTypeId EventTypeIdOf() {
  static const EventTypeId id = detail::InternEventType<E>();
  return id;
}

/// Interned id of monitor type M (its own id space, see MonitorTypeTable).
template <typename M>
EventTypeId MonitorTypeIdOf() {
  static const EventTypeId id =
      detail::MonitorTypeTable().GetOrRegister(std::type_index(typeid(M)));
  return id;
}

/// Base class for all events exchanged between machines (and notifications
/// delivered to monitors).
class Event {
 public:
  Event() = default;
  Event& operator=(const Event&) = delete;
  Event(Event&&) = delete;
  Event& operator=(Event&&) = delete;
  virtual ~Event() = default;

  /// Dynamic type of the most-derived event (kept for diagnostics and any
  /// code that wants the type_index; dispatch uses TypeId()).
  [[nodiscard]] std::type_index Type() const {
    return std::type_index(typeid(*this));
  }

  /// Interned dense id of the most-derived event type. Events built through
  /// MakeEvent / Machine::Send are pre-stamped, making this a plain field
  /// read on the dispatch hot path; events constructed by hand fall back to
  /// one interning lookup, cached on the instance.
  [[nodiscard]] EventTypeId TypeId() const {
    const EventTypeId id = cached_type_id_;
    if (id != kInvalidEventTypeId) {
      return id;
    }
    return InternTypeId();
  }

  /// Demangled name of the most-derived event type (for traces and errors).
  /// Virtual so events can enrich the readable trace with payload details —
  /// the paper notes that "out of the box, P# traces include only machine-
  /// and event-level information, but it is easy to add application-specific
  /// information, and we did so in all of our case studies" (§6.2).
  [[nodiscard]] virtual std::string Name() const;

  /// Arena allocation: every scheduling step allocates and frees at least
  /// one event, so while ExecutionRunner has its execution-scoped arena
  /// armed (core/event_arena.h) events are bump-allocated and reclaimed in
  /// bulk at the end of the execution. With no arena armed — one-shot
  /// runtimes, tests, the sealed setup prototypes — they fall through to
  /// the global ::operator new/delete. Over-aligned event types use the
  /// aligned global operator new automatically, since only these two forms
  /// are overridden.
  static void* operator new(std::size_t size);
  static void operator delete(void* ptr, std::size_t size) noexcept;

 protected:
  /// Copyable by derived event types only — the fault plane's duplication
  /// clone copies the most-derived event through a per-type registered
  /// function (see RegisterEventClone). Public copying stays unavailable so
  /// an Event can never be sliced through the base.
  Event(const Event&) = default;

 private:
  friend struct detail::EventTypeStamp;

  EventTypeId InternTypeId() const;

  /// Lazily interned; mutable because stamping happens on const instances
  /// (events are only ever touched by one runtime thread at a time).
  mutable EventTypeId cached_type_id_ = kInvalidEventTypeId;
};

namespace detail {

/// Grants MakeEvent/Notify access to pre-stamp the interned id.
struct EventTypeStamp {
  static void Set(const Event& event, EventTypeId id) noexcept {
    event.cached_type_id_ = id;
  }
};

template <typename E>
EventTypeId InternEventType() {
  const EventTypeId id =
      EventTypeTable().GetOrRegister(std::type_index(typeid(E)));
  if constexpr (std::is_copy_constructible_v<E>) {
    RegisterEventClone(id, [](const Event& ev) -> std::unique_ptr<const Event> {
      auto copy = std::make_unique<E>(static_cast<const E&>(ev));
      EventTypeStamp::Set(*copy, ev.TypeId());
      return copy;
    });
  }
  return id;
}

}  // namespace detail

/// Short name of an interned event type id (see TypeInternTable::NameOf).
[[nodiscard]] std::string EventTypeName(EventTypeId id);

/// Demangles a typeid name on GCC/Clang; returns the raw name elsewhere.
std::string DemangleTypeName(const char* mangled);

/// Short name: namespace qualifiers stripped from a demangled type name.
std::string ShortTypeName(const std::type_info& info);

/// Built-in event that halts the receiving machine (P# halt semantics: the
/// machine stops processing and silently drops all further events).
struct HaltEvent final : Event {};

/// Convenience factory: make a unique_ptr<const Event> from an event type,
/// pre-stamped with its interned type id.
template <typename E, typename... Args>
std::unique_ptr<const Event> MakeEvent(Args&&... args) {
  std::unique_ptr<E> event = std::make_unique<E>(std::forward<Args>(args)...);
  detail::EventTypeStamp::Set(*event, EventTypeIdOf<E>());
  return event;
}

}  // namespace systest
