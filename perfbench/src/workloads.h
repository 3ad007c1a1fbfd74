// The benchmark's four workloads, built from a base seed. Each workload is
// a list of jobs, and each job is one api::SessionConfig: exactly what a
// user of the tool would hand to api::TestSession.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/session.h"

namespace perfbench {

enum class JobKind {
  kBugTrial,  ///< buggy row, stop on first bug within an execution cap
  kSweep,     ///< buggy row at a fixed budget, no early stop: throughput
  kControl,   ///< -fixed control at a fixed budget: must stay clean
  kScale,     ///< stateful full-budget exploration: must stay clean
  kCoverage,  ///< fixed-budget corpus-guided coverage half: must stay clean
  kParallel,  ///< ParallelTestingEngine run: must stay clean
};

struct Job {
  std::string label;  ///< unique within the workload, e.g. "race/pct#2"
  std::string shape;  ///< set-up shape: jobs of one shape set up alike
  JobKind kind = JobKind::kBugTrial;
  systest::api::SessionConfig cfg;
  /// First half of a resumed campaign: its corpus directory starts empty.
  bool fresh_corpus_dir = false;
  /// Traced run of a stateful-scale job also runs a stateless twin on the
  /// same seeds, from which fingerprint.refresh_ns is derived.
  bool stateless_twin = false;
};

struct Workload {
  std::string name;
  std::string why;
  bool stateful = false;  ///< reports states_per_s / distinct_states
  bool bug_hunting = false;  ///< reports time-to-bug metrics
  std::vector<Job> jobs;
  std::vector<std::uint64_t> trial_seeds;  ///< every derived seed, in order
};

/// Builds `name` for `base_seed`. `work_dir` holds the workload's corpus
/// directories; `workers` is the parallel-explore worker count. Throws
/// std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t base_seed,
                      const std::string& work_dir, int workers);

/// Deterministic seed derivation: distinct, well-spread 63-bit seeds for
/// consecutive `index` values, so no two trials share an iteration-seed
/// sequence (each execution reseeds from seed + iteration).
std::uint64_t DeriveSeed(std::uint64_t base_seed, std::uint64_t index);

}  // namespace perfbench
