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
// the enabledness and receive-match scans and the deferred-event skip — walk
// the lane instead of dereferencing each event. Every mutator moves both
// buffers in step.
//
// The fingerprint's view of the queue is its LANE HASH, a polynomial over
// the prime field GF(2^61 - 1):
//
//   H = sum over j of (t_j + 1) * B^j      (j = 0 at the head)
//
// With the hash switched on (EnableHash — the Runtime does so at Attach when
// it is stateful) the queue maintains H incrementally: PushBack adds one term
// and PopFront drops the head term and shifts the rest down by multiplying
// with the precomputed inverse of B, both O(1); RemoveAt(i) re-sums the i
// terms in front of the hole, O(i). A stateful refresh of a machine with a
// long inbox therefore costs the same as one with an empty inbox. Stateless
// runs never read H and never switch it on. They cannot afford the upkeep:
// maintaining H in every queue cost perfbench bug-hunt 20% of its
// exec_per_s (4-core host, slower in 9 of 9 interleaved pairs), all of it in
// RemoveAt's O(i) re-sum on long inboxes. They pay one predictable branch
// per mutation instead, marked [[unlikely]] so the update code sits off
// their path (bug-hunt exec_per_s +5.6% over the unmarked branch, 4 of 6
// pairs).
//
// Because B is invertible and every coefficient t + 1 lies in [1, 2^32],
// two equal-length queues that differ in one slot always hash apart. The
// field is prime on purpose: over the integers mod 2^64, two-symbol
// Thue–Morse queues of length ~1024 and up collide for every odd base.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/event.h"
#include "core/fingerprint.h"

namespace systest::detail {

/// Arithmetic of the queue's lane hash over GF(2^61 - 1).
namespace lane_hash {

inline constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;

[[nodiscard]] constexpr std::uint64_t Add(std::uint64_t a,
                                          std::uint64_t b) noexcept {
  const std::uint64_t sum = a + b;
  return sum >= kPrime ? sum - kPrime : sum;
}

[[nodiscard]] constexpr std::uint64_t Sub(std::uint64_t a,
                                          std::uint64_t b) noexcept {
  return a >= b ? a - b : a + kPrime - b;
}

/// a * b mod 2^61 - 1 for a, b < 2^61 (Mersenne folding: 2^61 == 1).
[[nodiscard]] constexpr std::uint64_t Mul(std::uint64_t a,
                                          std::uint64_t b) noexcept {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  const std::uint64_t folded = (static_cast<std::uint64_t>(product) & kPrime) +
                               static_cast<std::uint64_t>(product >> 61);
  return folded >= kPrime ? folded - kPrime : folded;
}

[[nodiscard]] constexpr std::uint64_t Pow(std::uint64_t base,
                                          std::uint64_t exponent) noexcept {
  std::uint64_t result = 1;
  for (; exponent != 0; exponent >>= 1) {
    if ((exponent & 1) != 0) result = Mul(result, base);
    base = Mul(base, base);
  }
  return result;
}

inline constexpr std::uint64_t kBase = 0x0c3a5f1e9b27d46bull;
inline constexpr std::uint64_t kBaseInverse = Pow(kBase, kPrime - 2);
static_assert(kBase < kPrime && Mul(kBase, kBaseInverse) == 1);

/// The coefficient of one queued type: never 0, so every slot counts.
[[nodiscard]] constexpr std::uint64_t Term(EventTypeId type) noexcept {
  return std::uint64_t{type} + 1;
}

}  // namespace lane_hash

class EventQueue {
 public:
  [[nodiscard]] bool Empty() const noexcept { return head_ == buf_.size(); }
  [[nodiscard]] std::size_t Size() const noexcept {
    return buf_.size() - head_;
  }

  void PushBack(std::unique_ptr<const Event> ev) {
    const EventTypeId type = ev->TypeId();
    if (hashed_) [[unlikely]] {
      hash_ = lane_hash::Add(hash_, lane_hash::Mul(lane_hash::Term(type),
                                                   tail_power_));
      tail_power_ = lane_hash::Mul(tail_power_, lane_hash::kBase);
    }
    types_.push_back(type);
    buf_.push_back(std::move(ev));
  }

  std::unique_ptr<const Event> PopFront() {
    if (hashed_) [[unlikely]] {
      hash_ = lane_hash::Mul(
          lane_hash::Sub(hash_, lane_hash::Term(types_[head_])),
          lane_hash::kBaseInverse);
      tail_power_ = lane_hash::Mul(tail_power_, lane_hash::kBaseInverse);
    }
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
    if (hashed_) [[unlikely]] {
      // H = front + Term(t_index) * B^index + back; the back terms shift
      // down one power, the front terms stay put.
      std::uint64_t front = 0;
      std::uint64_t power = 1;
      const EventTypeId* lane = types_.data() + head_;
      for (std::size_t j = 0; j < index; ++j) {
        front = lane_hash::Add(front,
                               lane_hash::Mul(lane_hash::Term(lane[j]), power));
        power = lane_hash::Mul(power, lane_hash::kBase);
      }
      const std::uint64_t back = lane_hash::Sub(
          lane_hash::Sub(hash_, front),
          lane_hash::Mul(lane_hash::Term(lane[index]), power));
      hash_ = lane_hash::Add(front,
                             lane_hash::Mul(back, lane_hash::kBaseInverse));
      tail_power_ = lane_hash::Mul(tail_power_, lane_hash::kBaseInverse);
    }
    const auto it = buf_.begin() + offset;
    std::unique_ptr<const Event> ev = std::move(*it);
    buf_.erase(it);
    types_.erase(types_.begin() + offset);
    return ev;
  }

  /// Empties the queue. An enabled lane hash stays enabled.
  void Clear() {
    buf_.clear();
    types_.clear();
    head_ = 0;
    hash_ = 0;
    tail_power_ = 1;
  }

  /// Switches on incremental maintenance of the lane hash. Stays on for the
  /// queue's lifetime. Pre-condition: Empty() (the Runtime enables it on a
  /// machine's inbox at Attach, before any event can be queued), so H and
  /// B^Size() start from their empty-queue values.
  void EnableHash() { hashed_ = true; }

  /// The live events' type ids, front to back (the type lane).
  [[nodiscard]] std::span<const EventTypeId> Types() const noexcept {
    return {types_.data() + head_, types_.size() - head_};
  }

  /// This queue's contribution to a machine's state fingerprint: the length
  /// and the lane hash of the front-to-back sequence of queued event-type
  /// ids (payloads are a machine concern — see Machine::FingerprintPayload).
  /// O(1) with the hash enabled; otherwise (a stateless Runtime's machine,
  /// through Machine::ComputeStateFingerprint) it walks the lane.
  void HashTypesInto(StateHasher& hasher) const {
    hasher.Mix(Size());
    hasher.Mix(hashed_ ? hash_ : LaneHash(Types()));
  }

  /// HashTypesInto recomputed from the type lane, never reading the
  /// maintained hash: the from-scratch reference the incremental one is
  /// checked against.
  void HashTypesFromLaneInto(StateHasher& hasher) const {
    hasher.Mix(Size());
    hasher.Mix(LaneHash(Types()));
  }

  /// H for `types`, front first.
  [[nodiscard]] static std::uint64_t LaneHash(
      std::span<const EventTypeId> types) noexcept {
    std::uint64_t hash = 0;
    std::uint64_t power = 1;
    for (const EventTypeId type : types) {
      hash = lane_hash::Add(hash, lane_hash::Mul(lane_hash::Term(type), power));
      power = lane_hash::Mul(power, lane_hash::kBase);
    }
    return hash;
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
  bool hashed_ = false;           // lane hash maintained (stateful runs)
  std::uint64_t hash_ = 0;        // H, valid while hashed_
  std::uint64_t tail_power_ = 1;  // B^Size(), valid while hashed_
};

}  // namespace systest::detail
