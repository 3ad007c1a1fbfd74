// Runs workload jobs: untraced through api::TestSession (the public front
// door, every metric a user sees), or traced through the layers' own public
// entry points with the timing wrappers of timed.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/bug.h"
#include "core/fingerprint.h"
#include "core/trace.h"
#include "explore/parallel_engine.h"
#include "spans.h"
#include "stats.h"
#include "timed.h"
#include "workloads.h"

namespace perfbench {

/// What one job produced, in either mode.
struct JobResult {
  double wall_s = 0.0;  ///< session wall time, set-up included
  std::uint64_t executions = 0;
  std::uint64_t steps = 0;
  bool stateful = false;
  std::uint64_t distinct_states = 0;
  std::uint64_t pruned = 0;
  bool bug_found = false;
  systest::BugKind bug_kind = systest::BugKind::kSafety;
  std::string bug_message;
  std::uint64_t bug_iteration = 0;
  systest::Trace witness;
  systest::VisitedStats visited;

  /// The counts that must repeat exactly for a fixed seed: serial
  /// exploration is fully seed-determined; a parallel run only fixes its
  /// execution count.
  [[nodiscard]] std::string Signature(bool parallel) const;
};

/// Base of the set-up probes' seeds, the same for every base seed.
constexpr std::uint64_t kProbeSeed = 0x5e7u;

/// Untraced: one api::TestSession run.
JobResult RunUntraced(const Job& job);

/// Set-up time of one job's shape: from constructing its TestSession to
/// the first completed execution. Probe `round` runs under its own seed,
/// derived from kProbeSeed, so the median over rounds does not hang on one
/// seed's first execution. `saved_corpus` (may be empty) is the corpus a
/// resumed shape reloads; it is copied into a scratch directory so probing
/// never changes it.
double ProbeSetup(const Job& job, std::uint64_t round,
                  const std::string& saved_corpus,
                  const std::string& scratch_dir);

/// Witness check: Serialize -> Deserialize -> TestingEngine::Replay with
/// no fault flags must reproduce the same bug kind. Times each step into
/// the optional recorder (layer core.trace).
struct ReplayOutcome {
  bool ok = false;
  std::string why;  ///< set when !ok
  std::int64_t serialize_ns = 0;
  std::int64_t deserialize_ns = 0;
  std::int64_t replay_ns = 0;
};
ReplayOutcome CheckWitness(const Job& job, const JobResult& result,
                           SpanRecorder* rec, std::uint32_t parent,
                           std::uint32_t trial);

/// Per-layer accumulators of a traced pass. Serial jobs time every layer
/// call; parallel jobs contribute what the explore layer's reports and
/// iteration callbacks expose (no strategy or visited-set timing).
struct LayerStats {
  std::vector<double> resolve_ns;
  std::uint64_t harness_calls = 0;
  std::int64_t harness_ns = 0;
  std::vector<double> first_exec_ns;
  std::vector<double> exec_ns;
  std::uint64_t executions = 0;
  std::uint64_t serial_executions = 0;
  std::uint64_t recycled = 0;  ///< serial executions run on a recycled Runtime
  std::uint64_t steps = 0;
  std::uint64_t serial_steps = 0;
  std::uint64_t faults = 0;
  std::int64_t runner_ns = 0;  ///< summed serial RunOne time
  std::uint64_t decisions = 0;
  std::int64_t decide_ns = 0;
  std::uint64_t prepares = 0;
  std::int64_t prepare_ns = 0;
  std::uint64_t inserts = 0;  ///< visited-set inserts, serial and parallel
  std::uint64_t timed_inserts = 0;
  std::int64_t insert_ns = 0;
  std::uint64_t insert_hits = 0;
  std::uint64_t stateful_executions = 0;
  std::uint64_t pruned = 0;
  std::uint64_t compactions = 0;
  std::uint64_t bloom_fp = 0;
  std::uint64_t run_probes = 0;
  std::vector<double> serialize_ns;
  std::vector<double> deserialize_ns;
  std::vector<double> replay_ns;
  std::vector<double> ndc;
  std::uint64_t corpus_adds = 0;
  std::uint64_t corpus_accepted = 0;
  std::int64_t corpus_add_ns = 0;
  std::uint64_t corpus_entries = 0;
  std::vector<double> corpus_save_ns;
  std::vector<double> corpus_load_ns;
  // explore (parallel jobs)
  double parallel_execs = 0.0;
  double parallel_wall_s = 0.0;
  double single_execs = 0.0;
  double single_wall_s = 0.0;
  double worker_busy_s = 0.0;
  double worker_capacity_s = 0.0;  ///< workers x wall
  double imbalance = 0.0;          ///< worst max/min worker exec/s
  std::uint64_t shard_compactions = 0;
  std::vector<double> obs_ratio;   ///< per paired slice: on / off seconds

  void Merge(const LayerStats& o);
};

struct TracedContext {
  SpanRecorder& rec;
  LayerStats& stats;
  /// Jobs that have a stateless twin, alone (also folded into `stats`) ...
  LayerStats& twin_main_stats;
  /// ... and their twins, which are kept out of `stats`.
  LayerStats& twin_stats;
};

/// Traced: the job through the layers' public entry points.
JobResult RunTraced(const Job& job, std::uint32_t trial, TracedContext& ctx);

}  // namespace perfbench
