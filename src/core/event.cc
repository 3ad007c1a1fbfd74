#include "core/event.h"

#include <atomic>
#include <cstdlib>

#include "core/event_arena.h"

#if defined(__GNUG__)
#include <cxxabi.h>
#endif

namespace systest {

namespace detail {

EventTypeId TypeInternTable::GetOrRegister(std::type_index type) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] =
      ids_.try_emplace(type, static_cast<EventTypeId>(ids_.size() + 1));
  if (inserted) {
    std::string full = DemangleTypeName(type.name());
    const auto pos = full.rfind("::");
    names_.push_back(pos == std::string::npos ? std::move(full)
                                              : full.substr(pos + 2));
  }
  return it->second;
}

std::size_t TypeInternTable::Count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ids_.size();
}

std::string TypeInternTable::NameOf(EventTypeId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (id == kInvalidEventTypeId || id > names_.size()) {
    return "?";
  }
  return names_[id - 1];
}

TypeInternTable& EventTypeTable() {
  static TypeInternTable table;
  return table;
}

TypeInternTable& MonitorTypeTable() {
  static TypeInternTable table;
  return table;
}

namespace {

// Clone registry: dense, lock-free array indexed by EventTypeId. The
// capacity bounds the number of distinct event TYPES in a process (not
// instances); ids past the end simply have no clone and are never
// duplicated.
constexpr std::size_t kMaxCloneTypes = 4096;
std::atomic<EventCloneFn> g_clone_fns[kMaxCloneTypes] = {};

}  // namespace

void RegisterEventClone(EventTypeId id, EventCloneFn fn) {
  if (id < kMaxCloneTypes) {
    g_clone_fns[id].store(fn, std::memory_order_relaxed);
  }
}

EventCloneFn CloneFnFor(EventTypeId id) noexcept {
  return id < kMaxCloneTypes ? g_clone_fns[id].load(std::memory_order_relaxed)
                             : nullptr;
}

std::unique_ptr<const Event> CloneEvent(const Event& ev) {
  const EventCloneFn fn = CloneFnFor(ev.TypeId());
  return fn != nullptr ? fn(ev) : nullptr;
}

namespace {

// Trivially-destructible TLS (single fs-relative load, no init guard, no
// teardown ordering hazard).
thread_local EventArena* g_armed_arena = nullptr;
thread_local EventAllocStats g_alloc_stats;

}  // namespace

EventAllocStats& ThreadEventAllocStats() noexcept { return g_alloc_stats; }

EventArena* ArmedEventArena() noexcept { return g_armed_arena; }

void* EventArena::Allocate(std::size_t size) {
  size = (size + (kAlign - 1)) & ~(kAlign - 1);
  epoch_bytes_ += size;
  EventAllocStats& stats = g_alloc_stats;
  ++stats.arena_allocations;
  if (epoch_bytes_ > stats.arena_bytes_high_water) {
    stats.arena_bytes_high_water = epoch_bytes_;
  }
  if (size > kChunkSize) [[unlikely]] {
    // Dedicated chunk — the matching delete will no-op while armed, so a
    // ::operator new fallback here would leak. The epoch rewind frees it.
    Chunk chunk{std::make_unique<std::byte[]>(size), size};
    void* ptr = chunk.data.get();
    oversize_.push_back(std::move(chunk));
    return ptr;
  }
  while (true) {
    if (current_ < chunks_.size()) {
      Chunk& chunk = chunks_[current_];
      if (offset_ + size <= chunk.size) {
        void* ptr = chunk.data.get() + offset_;
        offset_ += size;
        return ptr;
      }
      ++current_;
      offset_ = 0;
      continue;
    }
    chunks_.push_back(Chunk{std::make_unique<std::byte[]>(kChunkSize),
                            kChunkSize});
  }
}

void EventArena::ResetEpoch() noexcept {
  current_ = 0;
  offset_ = 0;
  epoch_bytes_ = 0;
  oversize_.clear();
}

ScopedEventArenaArm::ScopedEventArenaArm(EventArena* arena) noexcept
    : previous_(g_armed_arena) {
  g_armed_arena = arena;
}

ScopedEventArenaArm::~ScopedEventArenaArm() { g_armed_arena = previous_; }

ScopedEventArenaPause::ScopedEventArenaPause() noexcept
    : previous_(g_armed_arena) {
  g_armed_arena = nullptr;
}

ScopedEventArenaPause::~ScopedEventArenaPause() { g_armed_arena = previous_; }

}  // namespace detail

void* Event::operator new(std::size_t size) {
  // Execution-scoped arena (armed by ExecutionRunner for every execution it
  // runs): bump-allocate, reclaim in bulk at the execution-end epoch rewind.
  // See core/event_arena.h.
  if (detail::EventArena* arena = detail::ArmedEventArena();
      arena != nullptr) {
    return arena->Allocate(size);
  }
  return ::operator new(size);
}

void Event::operator delete(void* ptr, std::size_t size) noexcept {
  // While an arena is armed, every live event on this thread is arena-backed
  // (heap-backed survivors — the sealed setup prototypes — are only freed
  // after disarming, see Runtime::TakeSetupPrototypes). Freeing is the epoch
  // rewind's job; individual deletes are no-ops.
  if (detail::ArmedEventArena() != nullptr) {
    return;
  }
  ::operator delete(ptr, size);
}

EventTypeId Event::InternTypeId() const {
  const EventTypeId id =
      detail::EventTypeTable().GetOrRegister(std::type_index(typeid(*this)));
  cached_type_id_ = id;
  return id;
}

std::string EventTypeName(EventTypeId id) {
  return detail::EventTypeTable().NameOf(id);
}

std::string DemangleTypeName(const char* mangled) {
#if defined(__GNUG__)
  int status = 0;
  char* demangled = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  if (status == 0 && demangled != nullptr) {
    std::string result(demangled);
    std::free(demangled);
    return result;
  }
#endif
  return mangled;
}

std::string ShortTypeName(const std::type_info& info) {
  std::string full = DemangleTypeName(info.name());
  const auto pos = full.rfind("::");
  return pos == std::string::npos ? full : full.substr(pos + 2);
}

std::string Event::Name() const { return ShortTypeName(typeid(*this)); }

}  // namespace systest
