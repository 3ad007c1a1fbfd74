// SysTest systematic-testing framework.
//
// Execution fingerprinting — the state-space-caching half of stateful
// exploration. A Fingerprint is a 64-bit digest of the serialized system's
// current program state: for every live machine its dense StateId, its
// queued event-type ids (the queue head order the scheduler actually sees),
// its receive-wait set, and optionally a domain payload contributed through
// Machine::FingerprintPayload. The Runtime maintains the digest
// INCREMENTALLY: each machine's contribution is hashed separately and
// XOR-combined into the world fingerprint, so a scheduling step only rehashes
// the machines it actually touched (the stepped machine plus event targets),
// not the world.
//
// Fingerprints are process-local: machine contributions hash interned
// EventTypeIds, whose values depend on first-use order within a process run.
// They must never be serialized; everything durable (traces, replay) stays
// fingerprint-free.
//
// Visited-set implementations, smallest to largest:
//   - FingerprintSet: the original capped flat set (kept for tests and as
//     the semantic reference — the tiered set must answer identically).
//   - TieredFingerprintSet: two levels over REMIXED keys (the fingerprint
//     times an odd constant, a bijection, so a key identifies a state
//     exactly as its fingerprint does). An exact bounded HOT level (open
//     addressing indexed by the key's top bits) absorbs all inserts; when it
//     fills, it drains in slot order — already sorted up to local probe
//     displacement, which an insertion pass fixes, so no comparison sort
//     runs — into an immutable sorted run, and the hot level starts over.
//     Runs merge k-way as they accumulate and can spill to mmap-able files
//     on disk, so hundreds of millions of fingerprints fit without the
//     honest hit rate collapsing at the old flat cap. ONE blocked bloom
//     filter covers the whole back level (12 bits per key of capacity,
//     grown by rebuilding at 1.5x; compaction only adds the new run's keys),
//     so a novel state costs its hot slot plus one 64-byte filter block
//     however many runs are live. With the runs spilled, that filter is the
//     back level's whole memory footprint: capacity runs from 1x to 1.5x the
//     key count, so 1.5 to 2.25 bytes per spilled key. Because keys are
//     exact, back-level membership stays EXACT: a filter negative skips the
//     runs, a filter positive binary-searches them newest first — the filter
//     only saves probes, it never changes an answer, so pruning soundness is
//     identical to the flat set (pinned by tests/core_visited_tiered_test.cc).
//   - explore::ShardedFingerprintSet: 64 independently locked shards, each a
//     TieredFingerprintSet, for parallel workers (explore/).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

namespace systest {

/// 64-bit digest of a program state (or of one machine's contribution).
using Fingerprint = std::uint64_t;

/// Incremental word-at-a-time state hasher. Also the extension point handed
/// to Machine::FingerprintPayload, so domain harnesses mix their semantic
/// state (counters, table contents, ...) into the default structural view.
///
/// Every Mix round is a bijection in the running hash for a fixed word AND
/// in the word for a fixed running hash, and Digest applies a bijective
/// finalizer, so two equal-length word sequences that differ in any one
/// word can never digest equal (pinned by tests/core_fingerprint_test.cc).
/// The finalizer spreads every input bit across the low bits, which
/// explore::ShardedFingerprintSet uses to pick a shard.
class StateHasher {
 public:
  StateHasher& Mix(std::uint64_t value) noexcept {
    // One multiply per word: xor-in and multiply by an odd constant are
    // bijections, and the xor-shift folds the product's well-mixed high
    // half back into the low half so the next multiply carries it upward.
    hash_ = (hash_ ^ value) * kMultiplier;
    hash_ ^= hash_ >> 32;
    return *this;
  }

  [[nodiscard]] Fingerprint Digest() const noexcept {
    // murmur3 fmix64: a bijective avalanche over the whole word.
    std::uint64_t h = hash_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

 private:
  static constexpr std::uint64_t kSeed = 0x243f6a8885a308d3ull;
  static constexpr std::uint64_t kMultiplier = 0x9e3779b97f4a7c15ull;
  std::uint64_t hash_ = kSeed;
};

/// Consecutive already-visited states after which an execution is pruned
/// (see VisitedSet): long enough that an execution crossing known territory
/// can still diverge back out of it, short enough that executions which
/// reconverged for good stop burning budget.
inline constexpr std::uint64_t kFingerprintPruneRun = 8;

/// Internal telemetry of a visited set (obs "visited.*" instruments and the
/// TestReport "visited" block). The flat set reports all-zero; the tiered
/// set counts its level traffic.
struct VisitedStats {
  // Probe traffic (cumulative).
  std::uint64_t hot_hits = 0;        ///< probes answered by the hot level
  std::uint64_t run_probes = 0;      ///< back-level filter positives
  std::uint64_t bloom_true_positives = 0;   ///< a run held the state
  std::uint64_t bloom_false_positives = 0;  ///< no run did (filter lied)
  // Maintenance (cumulative).
  std::uint64_t compactions = 0;     ///< hot level flushed into a new run
  std::uint64_t merges = 0;          ///< k-way run merges
  std::uint64_t spilled_bytes = 0;   ///< run bytes written to the spill dir
  // Occupancy (snapshot at the time Stats() was taken).
  std::uint64_t hot_entries = 0;     ///< fingerprints in the hot level
  std::uint64_t run_entries = 0;     ///< fingerprints across back-level runs
  std::uint64_t runs = 0;            ///< live back-level runs
  std::uint64_t spilled_runs = 0;    ///< runs currently living on disk

  VisitedStats& operator+=(const VisitedStats& other) noexcept {
    hot_hits += other.hot_hits;
    run_probes += other.run_probes;
    bloom_true_positives += other.bloom_true_positives;
    bloom_false_positives += other.bloom_false_positives;
    compactions += other.compactions;
    merges += other.merges;
    spilled_bytes += other.spilled_bytes;
    hot_entries += other.hot_entries;
    run_entries += other.run_entries;
    runs += other.runs;
    spilled_runs += other.spilled_runs;
    return *this;
  }
};

/// Engine-side interface over "the set of program states any execution has
/// visited". The serial TestingEngine owns a TieredFingerprintSet; parallel
/// exploration workers share a ShardedFingerprintSet (explore/). One virtual
/// call per scheduling step, paid only when TestConfig::stateful is on.
class VisitedSet {
 public:
  virtual ~VisitedSet() = default;

  /// Records `fp` as visited. Returns true when the state is novel (a miss
  /// in cache terms), false when it was already present (a hit).
  virtual bool Insert(Fingerprint fp) = 0;

  /// Distinct states recorded so far (all levels).
  [[nodiscard]] virtual std::size_t Size() const = 0;

  /// Level/maintenance telemetry. Flat sets report zeros.
  [[nodiscard]] virtual VisitedStats Stats() const { return {}; }
};

/// Single-threaded visited set with a hard entry cap (TestConfig::max_visited)
/// so stateful runs have bounded memory. Once full, the set is frozen:
/// lookups still report known states as hits, but unseen states are reported
/// novel without being recorded — pruning degrades gracefully instead of
/// growing without bound or (worse) pruning executions on states it never
/// actually saw. Superseded by TieredFingerprintSet in the engines; kept as
/// the semantic reference the tiered set is tested against.
class FingerprintSet final : public VisitedSet {
 public:
  explicit FingerprintSet(std::size_t max_entries) : max_entries_(max_entries) {}

  bool Insert(Fingerprint fp) override {
    if (set_.size() >= max_entries_) {
      return set_.find(fp) == set_.end();
    }
    return set_.insert(fp).second;
  }

  [[nodiscard]] std::size_t Size() const override { return set_.size(); }

 private:
  std::size_t max_entries_;
  std::unordered_set<Fingerprint> set_;
};

namespace detail {

/// The hot level: open-addressing (linear probe) set of remixed 64-bit keys
/// (see TieredFingerprintSet), power-of-two table indexed by the key's TOP
/// bits, 0 reserved as the empty slot (a real zero key is tracked in a side
/// flag). Because the index is a prefix of the key, slot order is key order
/// up to probe displacement inside a cluster, so AppendSorted drains the
/// table sorted without a comparison sort. The table grows by doubling up to
/// the configured hot capacity's load ceiling, then the owner compacts it
/// away — Clear() keeps the allocation, so steady-state compaction cycles
/// allocate nothing.
class HotFingerprintTable {
 public:
  HotFingerprintTable() { Rehash(kInitialCapacity); }

  [[nodiscard]] bool Contains(std::uint64_t key) const noexcept {
    if (key == 0) return has_zero_;
    std::size_t i = IndexOf(key);
    while (true) {
      const std::uint64_t slot = slots_[i];
      if (slot == key) return true;
      if (slot == 0) return false;
      i = (i + 1) & mask_;
    }
  }

  /// Pre-condition: !Contains(key).
  void Insert(std::uint64_t key) {
    if (key == 0) {
      has_zero_ = true;
      ++size_;
      return;
    }
    if ((size_ + 1) * 8 >= (mask_ + 1) * 7) Rehash((mask_ + 1) * 2);
    std::size_t i = IndexOf(key);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = key;
    ++size_;
  }

  [[nodiscard]] std::size_t Size() const noexcept { return size_; }

  /// Empties the table, keeping its capacity for the next fill cycle.
  void Clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), 0);
    has_zero_ = false;
    size_ = 0;
  }

  /// Appends the contents to `out` in ascending order.
  void AppendSorted(std::vector<std::uint64_t>& out) const;

 private:
  static constexpr std::size_t kInitialCapacity = 1024;

  [[nodiscard]] std::size_t IndexOf(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>(key >> shift_);
  }

  void Rehash(std::size_t capacity);

  std::vector<std::uint64_t> slots_;
  std::size_t mask_ = 0;
  int shift_ = 64;  ///< 64 - log2(capacity)
  std::size_t size_ = 0;
  bool has_zero_ = false;
};

/// Blocked bloom filter over the whole back level: 64-byte blocks, 7 bits
/// per key inside one block, 12 bits per key of capacity. The block is a
/// multiply-high of the key over the exact block count, so the size need
/// not round up to a power of two. A probe touches one block (one or two
/// cache lines: the array is not line-aligned, because an aligned
/// allocation raised stateful-scale's peak RSS by 1.2 MB at no measurable
/// speed gain), so the common back-level MISS costs the same whatever the
/// number of runs.
class BackLevelFilter {
 public:
  /// Keys the filter is sized for.
  [[nodiscard]] std::size_t Capacity() const noexcept { return capacity_; }

  /// Releases the bit array, then allocates a cleared one sized for
  /// `capacity` keys.
  void Reset(std::size_t capacity);

  void Add(std::uint64_t key) noexcept {
    std::uint64_t* block = words_.data() + BlockIndex(key) * kWordsPerBlock;
    std::uint64_t bits = BitHash(key);
    for (int k = 0; k < kProbes; ++k) {
      const unsigned bit = static_cast<unsigned>(bits >> 55);
      bits <<= 9;
      block[bit >> 6] |= 1ull << (bit & 63u);
    }
  }

  [[nodiscard]] bool MayContain(std::uint64_t key) const noexcept {
    if (words_.empty()) return false;
    const std::uint64_t* block =
        words_.data() + BlockIndex(key) * kWordsPerBlock;
    std::uint64_t bits = BitHash(key);
    for (int k = 0; k < kProbes; ++k) {
      const unsigned bit = static_cast<unsigned>(bits >> 55);
      bits <<= 9;
      if ((block[bit >> 6] & (1ull << (bit & 63u))) == 0) return false;
    }
    return true;
  }

 private:
  static constexpr int kProbes = 7;
  static constexpr std::size_t kBitsPerKey = 12;
  static constexpr std::size_t kWordsPerBlock = 8;  ///< 64 bytes

  [[nodiscard]] std::size_t BlockIndex(std::uint64_t key) const noexcept {
    const std::size_t blocks = words_.size() / kWordsPerBlock;
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(key) * blocks) >> 64);
  }

  /// Bit positions come from the top of a second mix: the block already
  /// consumed the key's top bits, and a product's high bits depend on every
  /// bit of its input.
  [[nodiscard]] static std::uint64_t BitHash(std::uint64_t key) noexcept {
    return (key ^ (key >> 29)) * 0xbf58476d1ce4e5b9ull;
  }

  std::vector<std::uint64_t> words_;  ///< kWordsPerBlock words per block
  std::size_t capacity_ = 0;
};

/// One immutable sorted run of keys, optionally spilled to a file in the
/// owner's spill directory and mapped back read-only. Membership is a
/// binary search — exact either way.
class SortedRun {
 public:
  /// Takes ownership of `entries` (sorted, deduplicated). With a non-empty
  /// `spill_dir` the run is written to a fresh file there and mmap-ed; on
  /// any I/O failure it silently stays in memory (correctness first, disk
  /// residency best-effort). `spilled_bytes` is bumped by the file size on
  /// a successful spill.
  SortedRun(std::vector<std::uint64_t> entries, const std::string& spill_dir,
            std::uint64_t& spilled_bytes);
  ~SortedRun();
  SortedRun(const SortedRun&) = delete;
  SortedRun& operator=(const SortedRun&) = delete;

  [[nodiscard]] bool Contains(std::uint64_t key) const noexcept {
    return std::binary_search(data_, data_ + size_, key);
  }
  [[nodiscard]] std::size_t Size() const noexcept { return size_; }
  [[nodiscard]] const std::uint64_t* Data() const noexcept { return data_; }
  [[nodiscard]] bool Spilled() const noexcept { return map_ != nullptr; }

 private:
  std::vector<std::uint64_t> mem_;    ///< empty once spilled
  const std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
  void* map_ = nullptr;               ///< mmap base when spilled
  std::size_t map_bytes_ = 0;
  std::string path_;                  ///< spill file (unlinked on destruction)
};

}  // namespace detail

/// Configuration of a TieredFingerprintSet (TestConfig::{max_visited,
/// max_visited_hot, visited_spill_dir}).
struct TieredOptions {
  /// Total distinct-state budget across BOTH levels. Beyond it the set
  /// freezes exactly like the flat set: known states still hit, unseen
  /// states are reported novel without being recorded.
  std::size_t max_entries = 1u << 20;
  /// Hot-level capacity: when the exact in-memory front reaches this many
  /// entries it compacts into a sorted run. With hot >= max_entries the set
  /// never compacts and behaves exactly like the flat FingerprintSet.
  std::size_t hot_entries = 1u << 20;
  /// Non-empty: compacted/merged runs are written here as raw little-endian
  /// 64-bit files and mapped back read-only, so the back level's memory
  /// footprint is its filter (1.5 to 2.25 bytes/entry: 12 bits per entry
  /// of capacity, which is grown in 1.5x steps), not the runs.
  std::string spill_dir;
};

/// The two-level visited set (see file header). Single-threaded; parallel
/// workers get one per shard via explore::ShardedFingerprintSet.
class TieredFingerprintSet final : public VisitedSet {
 public:
  explicit TieredFingerprintSet(const TieredOptions& options);
  ~TieredFingerprintSet() override;

  bool Insert(Fingerprint fp) override;
  [[nodiscard]] std::size_t Size() const override { return total_entries_; }
  [[nodiscard]] VisitedStats Stats() const override;

  /// Pure membership (no stats traffic, no insertion) — test/debug helper.
  [[nodiscard]] bool Contains(Fingerprint fp) const noexcept;

  /// Back-level runs merge k-way whenever this many accumulate.
  static constexpr std::size_t kMaxRuns = 8;

 private:
  /// The stored key of a fingerprint. Multiplying by an odd constant is a
  /// bijection, so a key identifies a state exactly; it moves low-bit
  /// structure (small integers, one shard's residue class) into the top
  /// bits that index the hot level and pick the filter block.
  [[nodiscard]] static std::uint64_t Remix(Fingerprint fp) noexcept {
    return fp * 0x9e3779b97f4a7c15ull;
  }
  /// Exact back-level membership: binary-searches the runs, newest first.
  [[nodiscard]] bool InRuns(std::uint64_t key) const noexcept;
  void Compact();

  TieredOptions options_;
  detail::HotFingerprintTable hot_;
  detail::BackLevelFilter filter_;  ///< over every run's keys
  std::vector<std::unique_ptr<detail::SortedRun>> runs_;
  std::size_t total_entries_ = 0;  ///< hot + runs (the value Size() reports)
  std::size_t run_entries_ = 0;
  VisitedStats stats_;
};

}  // namespace systest
