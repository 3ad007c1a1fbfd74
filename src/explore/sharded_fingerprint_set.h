// SysTest exploration subsystem.
//
// ShardedFingerprintSet: the concurrent VisitedSet shared by parallel
// exploration workers. The 64-bit fingerprints are already well-mixed (the
// StateHasher finalizer avalanches every input bit into the low bits), so
// the low bits pick one of 64 independently locked shards — workers only
// contend when they land on the same shard at the same instant, which keeps
// the per-step Insert cheap enough to sit inside the exploration inner loop.
// Sharing one set across the portfolio is the point: a state any worker has
// visited prunes every other worker's schedules that reconverge to it, so
// the fleet stops racing toward duplicate states.
//
// Each shard is a TieredFingerprintSet (exact hot front + compacting sorted
// runs — see core/fingerprint.h), so shards compact independently: one
// shard's compaction holds only its own lock while the other 63 keep
// serving probes. The hot budget splits evenly across shards; the TOTAL
// distinct-state budget stays global, enforced by a shared relaxed-atomic
// count (per-shard caps would freeze hot shards early while cold shards
// still had room).
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>

#include "core/fingerprint.h"

namespace systest::explore {

class ShardedFingerprintSet final : public VisitedSet {
 public:
  /// Tiered configuration (TestConfig::{max_visited, max_visited_hot,
  /// visited_spill_dir}). The hot budget is divided across the 64 shards;
  /// each shard's own max_entries is left effectively unlimited because the
  /// global atomic enforces the real budget. `options.max_entries` is that
  /// global cap, kept by a shared relaxed-atomic count so the sharded set
  /// has the SAME cap semantics as the serial set (a full set freezes:
  /// known states still hit, unseen states pass through uncounted). The
  /// check and the insert are not one atomic step, so concurrent workers
  /// can overshoot the cap by at most one entry each — an approximation,
  /// not a leak.
  explicit ShardedFingerprintSet(const TieredOptions& options)
      : max_entries_(options.max_entries) {
    TieredOptions per_shard;
    per_shard.max_entries = ~std::size_t{0};  // global atomic is the cap
    per_shard.hot_entries =
        options.hot_entries / kShards > 0 ? options.hot_entries / kShards : 1;
    per_shard.spill_dir = options.spill_dir;
    for (Shard& shard : shards_) {
      shard.set = std::make_unique<TieredFingerprintSet>(per_shard);
    }
  }

  bool Insert(Fingerprint fp) override {
    Shard& shard = shards_[ShardOf(fp)];
    const std::lock_guard<std::mutex> lock(shard.mutex);
    if (count_.load(std::memory_order_relaxed) >= max_entries_) {
      return !shard.set->Contains(fp);
    }
    const bool inserted = shard.set->Insert(fp);
    if (inserted) count_.fetch_add(1, std::memory_order_relaxed);
    return inserted;
  }

  [[nodiscard]] std::size_t Size() const override {
    return count_.load(std::memory_order_relaxed);
  }

  /// Sums level telemetry across all shards, taking each shard lock in
  /// turn. Not a consistent global snapshot (shards keep moving), which is
  /// fine for the obs gauges this feeds — call it off the hot path.
  [[nodiscard]] VisitedStats Stats() const override {
    VisitedStats total;
    for (const Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      total += shard.set->Stats();
    }
    return total;
  }

 private:
  static constexpr std::size_t kShards = 64;

  static std::size_t ShardOf(Fingerprint fp) noexcept {
    return static_cast<std::size_t>(fp & (kShards - 1));
  }

  struct alignas(64) Shard {  // own cache line: no false sharing across locks
    mutable std::mutex mutex;
    std::unique_ptr<TieredFingerprintSet> set;
  };

  std::size_t max_entries_;
  std::atomic<std::size_t> count_{0};
  Shard shards_[kShards];
};

}  // namespace systest::explore
