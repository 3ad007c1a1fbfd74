// SysTest observability plane.
//
// CampaignMetrics: the campaign-wide instrument set, resolved once from a
// MetricsRegistry so the per-execution flush path works on cached pointers
// instead of name lookups. WorkerObs is the per-worker handle the engines
// hand to their ExecutionRunner: it owns the plain ExecutionProbe the core
// Runtime writes into and flushes it into the sharded campaign instruments
// (and optionally a CoverageAccumulator) once per completed execution.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "core/event_arena.h"  // standalone: EventAllocStats only
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/probe.h"

namespace systest {
class Runtime;
class VisitedSet;
struct ExecutionResult;
}  // namespace systest

namespace systest::obs {

/// Standard instrument names (one schema across TTY progress, JSONL
/// time-series, and tests).
namespace names {
inline constexpr const char* kExecutions = "executions";
inline constexpr const char* kSteps = "steps";
inline constexpr const char* kDeliveries = "deliveries";
inline constexpr const char* kPrunedExecutions = "pruned_executions";
inline constexpr const char* kFingerprintHits = "fingerprint_hits";
inline constexpr const char* kFingerprintMisses = "fingerprint_misses";
inline constexpr const char* kBugsFound = "bugs_found";
inline constexpr const char* kDistinctStates = "distinct_states";
inline constexpr const char* kFaultCrashes = "faults.crashes";
inline constexpr const char* kFaultRestarts = "faults.restarts";
inline constexpr const char* kFaultDrops = "faults.drops";
inline constexpr const char* kFaultDuplications = "faults.duplications";
inline constexpr const char* kEnabledSetSize = "enabled_set_size";
inline constexpr const char* kExecutionSteps = "execution_steps";
// Event allocator telemetry (core/event_arena.h): arena bump-allocation
// volume and the largest single-execution arena footprint.
inline constexpr const char* kEventArenaAllocations = "event_arena.allocations";
inline constexpr const char* kEventArenaBytesHighWater =
    "event_arena.bytes_high_water";
// Tiered visited-set telemetry (core/fingerprint.h VisitedStats). Gauges,
// not counters: the set itself maintains the cumulative totals, so the flush
// publishes snapshots instead of deltas. Refreshed every 32nd execution per
// worker — collecting them takes every shard lock on the sharded set, which
// is too dear for every flush and pointless at sampling resolution.
inline constexpr const char* kVisitedHotHits = "visited.hot_hits";
inline constexpr const char* kVisitedRunProbes = "visited.run_probes";
inline constexpr const char* kVisitedBloomTruePositives = "visited.bloom_tp";
inline constexpr const char* kVisitedBloomFalsePositives = "visited.bloom_fp";
inline constexpr const char* kVisitedCompactions = "visited.compactions";
inline constexpr const char* kVisitedSpilledBytes = "visited.spilled_bytes";
inline constexpr const char* kVisitedHotEntries = "visited.hot_entries";
inline constexpr const char* kVisitedRunEntries = "visited.run_entries";
inline constexpr const char* kVisitedRuns = "visited.runs";
/// Prefixes: "deliveries_by_type.<Event>" and "worker.<n>.executions".
inline constexpr const char* kDeliveriesByTypePrefix = "deliveries_by_type.";
inline constexpr const char* kWorkerPrefix = "worker.";
}  // namespace names

/// The campaign's instruments, resolved once against a registry. Shared by
/// every worker (all methods and cached instruments are thread-safe).
class CampaignMetrics {
 public:
  explicit CampaignMetrics(MetricsRegistry& registry);
  CampaignMetrics(const CampaignMetrics&) = delete;
  CampaignMetrics& operator=(const CampaignMetrics&) = delete;

  [[nodiscard]] MetricsRegistry& Registry() noexcept { return registry_; }

  /// The "deliveries_by_type.<EventName>" counter for an interned event type
  /// id. Lock-free dense-array fast path (ids are small sequential ints,
  /// mirroring the event clone registry); registry-interning slow path on
  /// first sight of a type.
  [[nodiscard]] Counter& DeliveryCounterFor(std::uint32_t type_id);

  /// The "worker.<n>.executions" counter (progress reporter reads these for
  /// per-worker rates).
  [[nodiscard]] Counter& WorkerExecutions(std::size_t worker_index);

  // Campaign-wide instruments (public on purpose: the flush path and the
  // monitor read them directly).
  Counter& executions;
  Counter& steps;
  Counter& deliveries;
  Counter& pruned_executions;
  Counter& fingerprint_hits;
  Counter& fingerprint_misses;
  Counter& bugs_found;
  Gauge& distinct_states;
  Counter& fault_crashes;
  Counter& fault_restarts;
  Counter& fault_drops;
  Counter& fault_duplications;
  Counter& event_arena_allocations;
  /// Max single-execution arena footprint seen by any worker (bytes).
  Gauge& event_arena_bytes_high_water;
  // Tiered visited-set snapshots (names::kVisited*).
  Gauge& visited_hot_hits;
  Gauge& visited_run_probes;
  Gauge& visited_bloom_tp;
  Gauge& visited_bloom_fp;
  Gauge& visited_compactions;
  Gauge& visited_spilled_bytes;
  Gauge& visited_hot_entries;
  Gauge& visited_run_entries;
  Gauge& visited_runs;
  Histogram& enabled_set_size;
  Histogram& execution_steps;
  /// Fault placements by step decile, one histogram per kind; bucket index ==
  /// decile (bounds 0..8 plus overflow = decile 9).
  Histogram* fault_placement[kFaultKinds];

 private:
  MetricsRegistry& registry_;
  /// Dense EventTypeId -> Counter*; ids beyond the array fall back to the
  /// mutex path every time (harmless: real suites have dozens of types).
  static constexpr std::size_t kMaxEventTypes = 4096;
  std::atomic<Counter*> by_type_[kMaxEventTypes] = {};
  std::mutex slow_path_mutex_;
};

/// Per-worker observability handle. Not thread-safe — each worker owns one.
struct WorkerObs {
  WorkerObs(CampaignMetrics& metrics, std::size_t worker_index,
            bool coverage_enabled);

  /// Resets the probe for the next execution (keeps allocations).
  void BeginExecution() noexcept;

  /// Publishes one completed execution: probe accumulators into the sharded
  /// campaign instruments, engine-level result fields (steps, prune,
  /// fingerprint hit/miss, bug, fault counts), visited-set occupancy into
  /// the distinct-states gauge, and — when coverage is on — the runtime's
  /// state-visit arrays into the coverage accumulator.
  void FlushExecution(const Runtime& runtime, const ExecutionResult& result,
                      const VisitedSet* visited);

  /// Finished per-worker coverage report (empty when coverage was off).
  [[nodiscard]] CoverageReport TakeCoverage() { return coverage.TakeReport(); }

  /// Heatmap cells the most recent flushed execution visited first — the
  /// corpus's heat bonus (0 whenever coverage collection is off).
  [[nodiscard]] std::uint64_t LastNewStateCells() const noexcept {
    return coverage_enabled ? coverage.LastNewStates() : 0;
  }

  ExecutionProbe probe;
  CampaignMetrics& metrics;
  Counter& worker_executions;
  bool coverage_enabled = false;
  CoverageAccumulator coverage;
  /// Thread-local allocator counters as of the previous flush; FlushExecution
  /// publishes the delta, so per-execution cost is one subtraction (no
  /// step-path instrumentation — the allocator already maintains the TLS
  /// totals unconditionally).
  systest::detail::EventAllocStats last_alloc_;
  /// Flushes since the last visited.* gauge refresh (VisitedSet::Stats() on
  /// the sharded set takes all 64 shard locks, so it runs every 32nd
  /// execution, not every flush).
  std::uint32_t flushes_since_visited_stats_ = 0;
};

}  // namespace systest::obs
