// Tests for the shared machine-declaration registry, event-type interning
// and the event queue — the hot-path machinery behind the runtime overhaul.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <memory>
#include <typeindex>
#include <vector>

#include "core/event_queue.h"
#include "core/rng.h"
#include "core/systest.h"

namespace {

using systest::Event;
using systest::Machine;
using systest::MachineId;
using systest::Monitor;

struct RegProbe final : Event {};
struct RegOther final : Event {};
struct RegThird final : Event {};

class RegMachineA final : public Machine {
 public:
  RegMachineA() {
    State("One").On<RegProbe>(&RegMachineA::OnProbe).Ignore<RegOther>();
    State("Two").On<RegProbe>(&RegMachineA::OnProbe);
    SetStart("One");
  }

 private:
  void OnProbe(const RegProbe&) {}
};

class RegMachineB final : public Machine {
 public:
  RegMachineB() {
    State("Only").On<RegProbe>(&RegMachineB::OnProbe);
    SetStart("Only");
  }

 private:
  void OnProbe(const RegProbe&) {}
};

TEST(DeclRegistry, TwoRuntimesInDifferentOrdersShareOneDeclPerType) {
  systest::RoundRobinStrategy s1, s2;
  s1.PrepareIteration(0, 100);
  s2.PrepareIteration(0, 100);
  systest::Runtime rt1(s1), rt2(s2);

  // Opposite creation orders across the two runtimes.
  const MachineId a1 = rt1.CreateMachine<RegMachineA>("A");
  const MachineId b1 = rt1.CreateMachine<RegMachineB>("B");
  const MachineId b2 = rt2.CreateMachine<RegMachineB>("B");
  const MachineId a2 = rt2.CreateMachine<RegMachineA>("A");

  const auto* decl_a1 = rt1.FindMachine(a1)->StateDecls();
  const auto* decl_a2 = rt2.FindMachine(a2)->StateDecls();
  const auto* decl_b1 = rt1.FindMachine(b1)->StateDecls();
  const auto* decl_b2 = rt2.FindMachine(b2)->StateDecls();

  ASSERT_NE(decl_a1, nullptr);
  EXPECT_EQ(decl_a1, decl_a2);  // one decl per type, process-wide
  EXPECT_EQ(decl_b1, decl_b2);
  EXPECT_NE(decl_a1, decl_b1);  // and per TYPE, not global

  // The registry hands out exactly the same pointer.
  EXPECT_EQ(systest::detail::DeclRegistry::FindMachineDecl(
                std::type_index(typeid(RegMachineA))),
            decl_a1);

  // Compiled content: states are name-sorted, tables populated.
  EXPECT_EQ(decl_a1->states.size(), 2u);
  EXPECT_EQ(decl_a1->states[0].name, "One");
  EXPECT_EQ(decl_a1->states[1].name, "Two");
  EXPECT_TRUE(
      decl_a1->states[0].ignores.Contains(systest::EventTypeIdOf<RegOther>()));
  EXPECT_GE(decl_a1->states[0].dispatch.size(), 1u);
}

TEST(DeclRegistry, SecondInstanceSkipsDeclarationBuildButBehavesTheSame) {
  systest::RoundRobinStrategy strategy;
  strategy.PrepareIteration(0, 100);
  systest::Runtime rt(strategy);
  const MachineId first = rt.CreateMachine<RegMachineA>("first");
  const std::size_t count_after_first =
      systest::detail::DeclRegistry::MachineDeclCount();
  const MachineId second = rt.CreateMachine<RegMachineA>("second");
  EXPECT_EQ(systest::detail::DeclRegistry::MachineDeclCount(),
            count_after_first);

  rt.SendEvent<RegProbe>(first);
  rt.SendEvent<RegProbe>(second);
  while (rt.Step()) {
  }
  EXPECT_EQ(rt.FindMachine(second)->CurrentStateName(), "One");
}

TEST(EventTypeIds, StampedAndInternedConsistently) {
  const auto ev = systest::MakeEvent<RegProbe>();
  EXPECT_EQ(ev->TypeId(), systest::EventTypeIdOf<RegProbe>());
  EXPECT_NE(systest::EventTypeIdOf<RegProbe>(),
            systest::EventTypeIdOf<RegOther>());
  EXPECT_NE(systest::EventTypeIdOf<RegProbe>(), systest::kInvalidEventTypeId);

  // Hand-constructed events (no MakeEvent) intern lazily to the same id.
  const RegOther other;
  EXPECT_EQ(other.TypeId(), systest::EventTypeIdOf<RegOther>());
}

TEST(EventQueue, FifoRemoveAtAndCompaction) {
  systest::detail::EventQueue q;
  EXPECT_TRUE(q.Empty());
  for (int i = 0; i < 100; ++i) {
    q.PushBack(systest::MakeEvent<RegProbe>());
    q.PushBack(systest::MakeEvent<RegOther>());
    EXPECT_EQ(q.Size(), 2u);
    // Remove the second (out-of-order receive pattern), then the first.
    auto second = q.RemoveAt(1);
    EXPECT_EQ(second->TypeId(), systest::EventTypeIdOf<RegOther>());
    auto front = q.PopFront();
    EXPECT_EQ(front->TypeId(), systest::EventTypeIdOf<RegProbe>());
    EXPECT_TRUE(q.Empty());
  }
  // Steady producer/consumer with queue never draining: buffer must not grow
  // without bound (compaction), and order must hold.
  q.PushBack(systest::MakeEvent<RegProbe>());
  for (int i = 0; i < 10'000; ++i) {
    q.PushBack(systest::MakeEvent<RegOther>());
    (void)q.PopFront();
  }
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.PopFront()->TypeId(), systest::EventTypeIdOf<RegOther>());
}

/// The lane hash recomputed from the model: the sum of (t_j + 1) * B^j over
/// GF(2^61 - 1), by plain 128-bit remainders rather than the queue's
/// Mersenne folding.
std::uint64_t ReferenceLaneHash(const std::deque<const Event*>& model) {
  constexpr unsigned __int128 kPrime = systest::detail::lane_hash::kPrime;
  unsigned __int128 hash = 0;
  unsigned __int128 power = 1;
  for (const Event* ev : model) {
    hash = (hash + (std::uint64_t{ev->TypeId()} + 1) * power) % kPrime;
    power = power * systest::detail::lane_hash::kBase % kPrime;
  }
  return static_cast<std::uint64_t>(hash);
}

/// Asserts the queue's events, type lane and queue hash all match `model`.
void ExpectQueueMatches(const systest::detail::EventQueue& q,
                        const std::deque<const Event*>& model) {
  ASSERT_EQ(q.Size(), model.size());
  ASSERT_EQ(q.Types().size(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    ASSERT_EQ(q.begin()[i].get(), model[i]) << "event " << i;
    ASSERT_EQ(q.Types()[i], model[i]->TypeId()) << "type lane slot " << i;
  }
  systest::StateHasher expected;
  expected.Mix(model.size());
  expected.Mix(ReferenceLaneHash(model));
  systest::StateHasher actual;
  q.HashTypesInto(actual);
  ASSERT_EQ(actual.Digest(), expected.Digest());
  systest::StateHasher from_lane;
  q.HashTypesFromLaneInto(from_lane);
  ASSERT_EQ(from_lane.Digest(), expected.Digest());
}

std::unique_ptr<const Event> MakeKind(std::uint64_t kind) {
  switch (kind) {
    case 0:
      return systest::MakeEvent<RegProbe>();
    case 1:
      return systest::MakeEvent<RegOther>();
    default:
      return systest::MakeEvent<RegThird>();
  }
}

/// Drives a queue and a std::deque model through the same random
/// push/pop/remove/clear sequence, checking them against each other after
/// every operation. With `hashed` the lane hash is maintained from the
/// start; without it HashTypesInto walks the lane.
void ExpectQueueTracksModel(bool hashed) {
  using systest::detail::EventQueue;
  EventQueue q;
  if (hashed) q.EnableHash();
  std::deque<const Event*> model;
  systest::Xoshiro256 rng(20160722);
  std::uint64_t removals_past_head = 0;
  std::uint64_t removals_past_32 = 0;
  for (int op = 0; op < 40'000; ++op) {
    // Long push-heavy and pop-heavy phases let the queue grow well past 32
    // live events and then drain a consumed prefix of 32+ without emptying,
    // which is what triggers compaction.
    const bool push_phase = (op / 500) % 2 == 0;
    const std::uint64_t roll = rng.NextBelow(1000);
    if (roll == 0) {
      q.Clear();
      model.clear();
    } else if (model.empty() || roll < (push_phase ? 650u : 350u)) {
      std::unique_ptr<const Event> ev = MakeKind(rng.NextBelow(3));
      model.push_back(ev.get());
      q.PushBack(std::move(ev));
    } else if (roll < 850) {
      std::unique_ptr<const Event> ev = q.PopFront();
      ASSERT_EQ(ev.get(), model.front());
      model.pop_front();
    } else {
      const std::size_t index = rng.NextBelow(model.size());
      removals_past_head += index > 0 ? 1 : 0;
      removals_past_32 += index >= 32 ? 1 : 0;
      std::unique_ptr<const Event> ev = q.RemoveAt(index);
      ASSERT_EQ(ev.get(), model[index]);
      model.erase(model.begin() + static_cast<std::ptrdiff_t>(index));
    }
    ExpectQueueMatches(q, model);
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "diverged after operation " << op;
    }
  }
  EXPECT_GT(removals_past_head, 0u);
  EXPECT_GT(removals_past_32, 0u);
}

TEST(EventQueue, TypeLaneTracksAStdDequeModel) {
  ExpectQueueTracksModel(/*hashed=*/true);
}

TEST(EventQueue, UnhashedQueueDigestsTheSameFromItsLane) {
  ExpectQueueTracksModel(/*hashed=*/false);
}

/// Digest of a fresh queue holding `kinds` front to back.
systest::Fingerprint QueueDigest(const std::vector<std::uint64_t>& kinds,
                                 bool hashed) {
  systest::detail::EventQueue q;
  if (hashed) q.EnableHash();
  for (const std::uint64_t kind : kinds) q.PushBack(MakeKind(kind));
  systest::StateHasher hasher;
  q.HashTypesInto(hasher);
  return hasher.Digest();
}

TEST(EventQueue, EqualLengthQueuesDifferingInOneSlotNeverCollide) {
  // The differing slot changes H by (t - t') * B^j, which is non-zero in a
  // prime field, and the length and H enter the digest through bijective
  // rounds: a collision is impossible, not just unlikely.
  systest::Xoshiro256 rng(26);
  for (std::size_t length = 1; length <= 80; ++length) {
    std::vector<std::uint64_t> kinds(length);
    for (std::uint64_t& kind : kinds) kind = rng.NextBelow(3);
    const systest::Fingerprint base = QueueDigest(kinds, /*hashed=*/true);
    ASSERT_EQ(QueueDigest(kinds, /*hashed=*/false), base);
    for (std::size_t slot = 0; slot < length; ++slot) {
      const std::uint64_t original = kinds[slot];
      for (std::uint64_t other = 0; other < 3; ++other) {
        if (other == original) continue;
        kinds[slot] = other;
        ASSERT_NE(QueueDigest(kinds, /*hashed=*/true), base)
            << "length " << length << ", slot " << slot;
      }
      kinds[slot] = original;
    }
  }
}

TEST(EventQueue, ThueMorsePairHashesApart) {
  // The Thue–Morse sequence and its complement: the classic pair on which
  // polynomial hashing mod 2^64 collides for every odd base once the length
  // reaches 2^11. The lane hash works in GF(2^61 - 1) and tells them apart.
  constexpr std::size_t kLength = 2048;
  std::vector<std::uint64_t> thue_morse(kLength);
  std::vector<std::uint64_t> complement(kLength);
  for (std::size_t j = 0; j < kLength; ++j) {
    thue_morse[j] = static_cast<std::uint64_t>(std::popcount(j) & 1);
    complement[j] = 1 - thue_morse[j];
  }
  EXPECT_NE(QueueDigest(thue_morse, /*hashed=*/true),
            QueueDigest(complement, /*hashed=*/true));
  EXPECT_NE(QueueDigest(thue_morse, /*hashed=*/false),
            QueueDigest(complement, /*hashed=*/false));
  // The pair really is adversarial: the same polynomial mod 2^64 collides.
  const std::array<systest::EventTypeId, 2> types{
      systest::EventTypeIdOf<RegProbe>(), systest::EventTypeIdOf<RegOther>()};
  const auto hash_mod_2_64 = [&types](const std::vector<std::uint64_t>& kinds) {
    std::uint64_t hash = 0;
    std::uint64_t power = 1;
    for (const std::uint64_t kind : kinds) {
      hash += (std::uint64_t{types[kind]} + 1) * power;
      power *= systest::detail::lane_hash::kBase;
    }
    return hash;
  };
  EXPECT_EQ(hash_mod_2_64(thue_morse), hash_mod_2_64(complement));
}

}  // namespace
