// SysTest systematic-testing framework.
//
// EventQueue: FIFO of owned events on one contiguous buffer. Machine inboxes
// are short (usually 0–4 events) and cycle push/pop once per scheduling
// step, which makes std::deque's block bookkeeping pure overhead; a vector
// with a head cursor keeps the hot path at two pointer ops and compacts the
// consumed prefix amortized-O(1).
//
// Beside the owning pointers the queue keeps a dense TYPE LANE: the
// EventTypeId of every queued event, index-aligned with the pointer buffer
// and sharing its head cursor. The per-step readers that only need types —
// the fingerprint's queue hash, the enabledness and receive-match scans and
// the deferred-event skip — walk the lane instead of dereferencing each
// event. Every mutator moves both buffers in step.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/event.h"
#include "core/fingerprint.h"

namespace systest::detail {

class EventQueue {
 public:
  [[nodiscard]] bool Empty() const noexcept { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t Size() const noexcept {
    return buf_.size() - head_;
  }

  void PushBack(std::unique_ptr<const Event> ev) {
    types_.push_back(ev->TypeId());
    buf_.push_back(std::move(ev));
  }

  std::unique_ptr<const Event> PopFront() {
    std::unique_ptr<const Event> ev = std::move(buf_[head_]);
    ++head_;
    MaybeCompact();
    return ev;
  }

  /// Removes and returns the element at `index` (0 = front), preserving the
  /// order of the rest.
  std::unique_ptr<const Event> RemoveAt(std::size_t index) {
    if (index == 0) {
      return PopFront();
    }
    const auto offset = static_cast<std::ptrdiff_t>(head_ + index);
    const auto it = buf_.begin() + offset;
    std::unique_ptr<const Event> ev = std::move(*it);
    buf_.erase(it);
    types_.erase(types_.begin() + offset);
    return ev;
  }

  void Clear() {
    buf_.clear();
    types_.clear();
    head_ = 0;
  }

  /// The live events' type ids, front to back (the type lane).
  [[nodiscard]] std::span<const EventTypeId> Types() const noexcept {
    return {types_.data() + head_, types_.size() - head_};
  }

  /// This queue's contribution to a machine's state fingerprint: the length
  /// and the front-to-back sequence of queued event-type ids (payloads are a
  /// machine concern — see Machine::FingerprintPayload).
  void HashTypesInto(StateHasher& hasher) const {
    hasher.Mix(Size());
    for (const EventTypeId type : Types()) {
      hasher.Mix(type);
    }
  }

  // Iteration over the live events, front to back.
  [[nodiscard]] const std::unique_ptr<const Event>* begin() const noexcept {
    return buf_.data() + head_;
  }
  [[nodiscard]] const std::unique_ptr<const Event>* end() const noexcept {
    return buf_.data() + buf_.size();
  }

 private:
  void MaybeCompact() {
    if (head_ == buf_.size()) {
      buf_.clear();
      types_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= buf_.size()) {
      // The consumed prefix dominates the buffer: drop it so a steady
      // producer/consumer pattern cannot grow the buffer without bound.
      const auto consumed = static_cast<std::ptrdiff_t>(head_);
      buf_.erase(buf_.begin(), buf_.begin() + consumed);
      types_.erase(types_.begin(), types_.begin() + consumed);
      head_ = 0;
    }
  }

  std::vector<std::unique_ptr<const Event>> buf_;
  std::vector<EventTypeId> types_;  // index-aligned with buf_
  std::size_t head_ = 0;
};

}  // namespace systest::detail
