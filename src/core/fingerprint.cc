// SysTest systematic-testing framework.
//
// TieredFingerprintSet implementation: the hot level's sorted drain,
// compaction, k-way run merge, the back-level filter, and the optional mmap
// spill path. See fingerprint.h for the design narrative.
#include "src/core/fingerprint.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace systest {
namespace detail {

void HotFingerprintTable::Rehash(std::size_t capacity) {
  std::vector<std::uint64_t> old = std::move(slots_);
  slots_.assign(capacity, 0);
  mask_ = capacity - 1;
  shift_ = 64 - std::countr_zero(capacity);
  for (const std::uint64_t key : old) {
    if (key == 0) continue;
    std::size_t i = IndexOf(key);
    while (slots_[i] != 0) i = (i + 1) & mask_;
    slots_[i] = key;
  }
}

void HotFingerprintTable::AppendSorted(std::vector<std::uint64_t>& out) const {
  const std::size_t first = out.size();
  if (has_zero_) out.push_back(0);
  for (const std::uint64_t key : slots_) {
    if (key != 0) out.push_back(key);
  }
  // Slot order is key order except inside a probe cluster, so an insertion
  // pass finishes the order in time linear in the displacement. The rare
  // key whose probe wrapped past the last slot to the front travels the
  // whole drain, one pass over it per such key.
  for (std::size_t i = first + 1; i < out.size(); ++i) {
    const std::uint64_t key = out[i];
    std::size_t j = i;
    while (j > first && out[j - 1] > key) {
      out[j] = out[j - 1];
      --j;
    }
    out[j] = key;
  }
}

void BackLevelFilter::Reset(std::size_t capacity) {
  std::vector<std::uint64_t>().swap(words_);
  capacity_ = capacity;
  words_.assign((capacity * kBitsPerKey + 511) / 512 * kWordsPerBlock, 0);
}

namespace {

/// Writes `entries` as raw little-endian u64s into a fresh file under `dir`
/// and maps it back read-only. Returns the mapping (or nullptr on any
/// failure — callers fall back to keeping the run in memory).
void* SpillToFile(const std::vector<std::uint64_t>& entries,
                  const std::string& dir, std::string& path_out,
                  std::size_t& bytes_out) {
  static std::atomic<std::uint64_t> spill_seq{0};
  char name[64];
  std::snprintf(name, sizeof(name), "/run-%d-%llu.fps",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(
                    spill_seq.fetch_add(1, std::memory_order_relaxed)));
  const std::string path = dir + name;
  const std::size_t bytes = entries.size() * sizeof(std::uint64_t);
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) return nullptr;
  const char* p = reinterpret_cast<const char*>(entries.data());
  std::size_t off = 0;
  while (off < bytes) {
    const ssize_t n = ::write(fd, p + off, bytes - off);
    if (n <= 0) {
      ::close(fd);
      ::unlink(path.c_str());
      return nullptr;
    }
    off += static_cast<std::size_t>(n);
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    ::unlink(path.c_str());
    return nullptr;
  }
  path_out = path;
  bytes_out = bytes;
  return map;
}

}  // namespace

SortedRun::SortedRun(std::vector<std::uint64_t> entries,
                     const std::string& spill_dir,
                     std::uint64_t& spilled_bytes)
    : mem_(std::move(entries)) {
  size_ = mem_.size();
  if (!spill_dir.empty() && size_ > 0) {
    std::size_t bytes = 0;
    void* map = SpillToFile(mem_, spill_dir, path_, bytes);
    if (map != nullptr) {
      map_ = map;
      map_bytes_ = bytes;
      data_ = static_cast<const std::uint64_t*>(map);
      spilled_bytes += bytes;
      mem_.clear();
      mem_.shrink_to_fit();
      return;
    }
  }
  data_ = mem_.data();
}

SortedRun::~SortedRun() {
  if (map_ != nullptr) {
    ::munmap(map_, map_bytes_);
    ::unlink(path_.c_str());
  }
}

}  // namespace detail

TieredFingerprintSet::TieredFingerprintSet(const TieredOptions& options)
    : options_(options) {
  if (options_.hot_entries == 0) options_.hot_entries = 1;
}

TieredFingerprintSet::~TieredFingerprintSet() = default;

bool TieredFingerprintSet::InRuns(std::uint64_t key) const noexcept {
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if ((*it)->Contains(key)) return true;
  }
  return false;
}

bool TieredFingerprintSet::Insert(Fingerprint fp) {
  const std::uint64_t key = Remix(fp);
  if (hot_.Contains(key)) {
    ++stats_.hot_hits;
    return false;
  }
  if (filter_.MayContain(key)) {
    ++stats_.run_probes;
    if (InRuns(key)) {
      ++stats_.bloom_true_positives;
      return false;
    }
    ++stats_.bloom_false_positives;
  }
  // Novel. Frozen semantics mirror FingerprintSet: at the total budget the
  // state is reported novel but not recorded.
  if (total_entries_ >= options_.max_entries) return true;
  hot_.Insert(key);
  ++total_entries_;
  if (hot_.Size() >= options_.hot_entries) Compact();
  return true;
}

bool TieredFingerprintSet::Contains(Fingerprint fp) const noexcept {
  const std::uint64_t key = Remix(fp);
  return hot_.Contains(key) || (filter_.MayContain(key) && InRuns(key));
}

void TieredFingerprintSet::Compact() {
  std::vector<std::uint64_t> entries;
  entries.reserve(hot_.Size());
  hot_.AppendSorted(entries);
  hot_.Clear();
  // Hot entries were checked against every run on insert, so runs stay
  // mutually disjoint and no dedup across runs is needed here.
  const std::size_t back_entries = run_entries_ + entries.size();
  if (back_entries > filter_.Capacity()) {
    // Outgrown: rebuild over the older runs at 1.5x, so rebuilds stay
    // amortized O(1) per key.
    filter_.Reset(
        std::max(filter_.Capacity() + filter_.Capacity() / 2, back_entries));
    for (const auto& run : runs_) {
      for (std::size_t i = 0; i < run->Size(); ++i) filter_.Add(run->Data()[i]);
    }
  }
  for (const std::uint64_t key : entries) filter_.Add(key);
  run_entries_ = back_entries;
  runs_.push_back(std::make_unique<detail::SortedRun>(
      std::move(entries), options_.spill_dir, stats_.spilled_bytes));
  ++stats_.compactions;

  if (runs_.size() >= kMaxRuns) {
    // Full k-way merge of all runs into one. Runs are disjoint, so this is
    // a pure merge of sorted sequences (the filter already covers every
    // key); a simple repeated two-way merge is fine at k=8 and keeps the
    // code obvious.
    std::vector<std::uint64_t> merged;
    merged.reserve(run_entries_);
    for (const auto& run : runs_) {
      const std::size_t old = merged.size();
      merged.insert(merged.end(), run->Data(), run->Data() + run->Size());
      std::inplace_merge(merged.begin(),
                         merged.begin() + static_cast<std::ptrdiff_t>(old),
                         merged.end());
    }
    runs_.clear();
    runs_.push_back(std::make_unique<detail::SortedRun>(
        std::move(merged), options_.spill_dir, stats_.spilled_bytes));
    ++stats_.merges;
  }
}

VisitedStats TieredFingerprintSet::Stats() const {
  VisitedStats out = stats_;
  out.hot_entries = hot_.Size();
  out.run_entries = run_entries_;
  out.runs = runs_.size();
  for (const auto& run : runs_) {
    if (run->Spilled()) ++out.spilled_runs;
  }
  return out;
}

}  // namespace systest
