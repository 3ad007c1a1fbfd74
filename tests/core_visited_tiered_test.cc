// Tiered visited-set tests (core/fingerprint.h TieredFingerprintSet): the
// load-bearing property is that the tiered set is OBSERVATIONALLY IDENTICAL
// to the flat FingerprintSet — same Insert() verdict for every fingerprint in
// any stream under the same total budget, no matter how often the hot level
// compacts — so engine prune decisions (and therefore traces and reports)
// cannot depend on the tiering. Pinned three ways: stream equivalence against
// the flat reference (randomized at boundary hot sizes, and over adversarial
// fingerprint families that defeat naive index or filter bits), engine-level
// bit-for-bit report/trail equality on samplerepl and vnext with compaction
// forced vs disabled, and spill round-trips that serve probes from
// mmap-ed disk runs. Plus the new TestConfig::Validate rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/systest.h"
#include "explore/sharded_fingerprint_set.h"
#include "samplerepl/harness.h"
#include "vnext/harness.h"

namespace {

using systest::Fingerprint;
using systest::FingerprintSet;
using systest::TestConfig;
using systest::TestingEngine;
using systest::TieredFingerprintSet;
using systest::TieredOptions;
using systest::VisitedStats;

/// Duplicate-heavy fingerprint stream: values drawn from a bounded domain so
/// revisits are common, hashed up so they spread across shards/probe chains
/// like real fingerprints. Deterministic per seed.
std::vector<Fingerprint> MakeStream(std::uint64_t seed, std::size_t length,
                                    std::uint64_t domain) {
  std::mt19937_64 rng(seed);
  std::vector<Fingerprint> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint64_t raw = rng() % domain;
    stream.push_back(raw * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  }
  return stream;
}

void ExpectStreamEquivalence(const std::vector<Fingerprint>& stream,
                             std::size_t max_entries, std::size_t hot) {
  FingerprintSet flat(max_entries);
  TieredFingerprintSet tiered({max_entries, hot, std::string{}});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(flat.Insert(stream[i]), tiered.Insert(stream[i]))
        << "diverged at element " << i << " (hot=" << hot
        << ", budget=" << max_entries << ")";
  }
  EXPECT_EQ(flat.Size(), tiered.Size());
}

TEST(TieredEquivalence, MatchesFlatVerdictsAtBoundaryHotSizes) {
  const std::vector<Fingerprint> stream = MakeStream(11, 6000, 1500);
  // hot=1 compacts on every novel state; hot=2/3 exercise tiny runs plus
  // repeated k-way merges; hot just below/at/above the budget exercises the
  // freeze boundary interacting with compaction; huge hot never compacts.
  for (const std::size_t hot : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                std::size_t{127}, std::size_t{1499},
                                std::size_t{1500}, std::size_t{1501},
                                std::size_t{1u << 20}}) {
    for (const std::size_t budget :
         {std::size_t{1}, std::size_t{64}, std::size_t{1000},
          std::size_t{1500}, std::size_t{1u << 20}}) {
      ExpectStreamEquivalence(stream, budget, hot);
    }
  }
}

TEST(TieredEquivalence, ShardedTieredMatchesFlatSingleThreaded) {
  const std::vector<Fingerprint> stream = MakeStream(12, 4000, 900);
  // Unbounded budget: the sharded set's global count enforcement is
  // check-then-insert (approximate under concurrency), so exact freeze-point
  // equivalence is only guaranteed single-threaded below the cap — which is
  // what this pins: shard routing + per-shard compaction change no verdicts.
  FingerprintSet flat(1u << 20);
  TieredOptions options;
  options.max_entries = 1u << 20;
  options.hot_entries = 256;  // 4 per shard: constant per-shard compaction
  systest::explore::ShardedFingerprintSet sharded(options);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(flat.Insert(stream[i]), sharded.Insert(stream[i]))
        << "diverged at element " << i;
  }
  EXPECT_EQ(flat.Size(), sharded.Size());
  const VisitedStats stats = sharded.Stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.hot_entries + stats.run_entries, sharded.Size());
}

/// Fingerprint families with structure a well-mixed digest never has, aimed
/// at the bits the tiered set consumes: the hot level's index, the back-level
/// filter's block and bits, and the sharded wrapper's shard.
enum class Family { kSmallIntegers, kShiftedBy40, kOneShardClass };

std::vector<Fingerprint> FamilyStream(Family family, std::size_t distinct) {
  const auto member = [family](std::uint64_t i) -> Fingerprint {
    switch (family) {
      case Family::kSmallIntegers:
        return i + 1;  // 1..N
      case Family::kShiftedBy40:
        return i << 40;  // every low bit zero
      case Family::kOneShardClass:
        return (i << 6) | 37;  // one low-6-bit residue: a single shard
    }
    return i;
  };
  // Every member once, in order, each followed by a revisit of a random
  // earlier member, so hits come from the hot level and from every run.
  std::mt19937_64 rng(static_cast<std::uint64_t>(family) + 40);
  std::vector<Fingerprint> stream;
  stream.reserve(distinct * 2);
  for (std::uint64_t i = 0; i < distinct; ++i) {
    stream.push_back(member(i));
    stream.push_back(member(rng() % (i + 1)));
  }
  return stream;
}

void ExpectFamilyEquivalence(Family family, const std::string& spill_dir) {
  const std::vector<Fingerprint> stream = FamilyStream(family, 6000);
  FingerprintSet flat(1u << 20);
  TieredFingerprintSet tiered({1u << 20, 128, spill_dir});
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_EQ(flat.Insert(stream[i]), tiered.Insert(stream[i]))
        << "diverged at element " << i << " (family "
        << static_cast<int>(family) << ")";
  }
  EXPECT_EQ(flat.Size(), tiered.Size());
  for (const Fingerprint fp : stream) ASSERT_TRUE(tiered.Contains(fp));
  const VisitedStats stats = tiered.Stats();
  EXPECT_GE(stats.compactions, 20u);
  EXPECT_GE(stats.merges, 2u);
  EXPECT_GT(stats.bloom_true_positives, 0u);
  EXPECT_EQ(stats.run_probes,
            stats.bloom_true_positives + stats.bloom_false_positives);
  EXPECT_EQ(stats.hot_entries + stats.run_entries, tiered.Size());
  if (!spill_dir.empty()) {
    EXPECT_GT(stats.spilled_runs, 0u);
    EXPECT_EQ(stats.spilled_runs, stats.runs);
  }
}

TEST(TieredEquivalence, AdversarialFamiliesMatchFlat) {
  for (const Family family : {Family::kSmallIntegers, Family::kShiftedBy40,
                              Family::kOneShardClass}) {
    ExpectFamilyEquivalence(family, std::string{});
  }
}

TEST(TieredEquivalence, AdversarialFamiliesMatchFlatWhenSpilled) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "systest-tiered-family-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  for (const Family family : {Family::kSmallIntegers, Family::kShiftedBy40,
                              Family::kOneShardClass}) {
    ExpectFamilyEquivalence(family, dir.string());
  }
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(TieredCompaction, CompactsMergesAndKeepsMembershipExact) {
  TieredFingerprintSet set({1u << 20, 64, std::string{}});
  // 64 * kMaxRuns novel states: enough to trigger at least one k-way merge.
  const std::size_t n = 64 * TieredFingerprintSet::kMaxRuns;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1));
  }
  EXPECT_EQ(set.Size(), n);
  const VisitedStats stats = set.Stats();
  EXPECT_GE(stats.compactions, TieredFingerprintSet::kMaxRuns);
  EXPECT_GE(stats.merges, 1u);
  EXPECT_LT(stats.runs, TieredFingerprintSet::kMaxRuns);
  EXPECT_EQ(stats.hot_entries + stats.run_entries, n);
  // Every state remains a hit, wherever compaction moved it.
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_FALSE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1)) << i;
    ASSERT_TRUE(set.Contains(i * 0x9e3779b97f4a7c15ull + 1)) << i;
  }
}

TEST(TieredCompaction, FreezesAtTotalBudgetLikeFlat) {
  TieredFingerprintSet set({10, 4, std::string{}});  // compacts twice en route
  for (Fingerprint fp = 1; fp <= 10; ++fp) ASSERT_TRUE(set.Insert(fp));
  EXPECT_EQ(set.Size(), 10u);
  // Frozen: known states hit, unseen states are reported novel uncounted.
  for (Fingerprint fp = 1; fp <= 10; ++fp) ASSERT_FALSE(set.Insert(fp));
  EXPECT_TRUE(set.Insert(999));
  EXPECT_TRUE(set.Insert(999));  // still not recorded
  EXPECT_EQ(set.Size(), 10u);
}

/// Per-iteration fingerprint trails + end report: everything about a stateful
/// run that pruning decisions could perturb.
struct StatefulRunOutcome {
  std::map<std::uint64_t, std::vector<Fingerprint>> trails;
  std::map<std::uint64_t, bool> pruned;
  systest::TestReport report;
};

StatefulRunOutcome RunStateful(const systest::Harness& harness,
                               TestConfig config, std::uint64_t hot) {
  config.max_visited_hot = hot;
  config.record_fingerprint_trail = true;
  config.stop_on_first_bug = false;
  StatefulRunOutcome outcome;
  TestingEngine engine(config, harness);
  engine.SetIterationCallback(
      [&outcome](std::uint64_t i, const systest::ExecutionResult& r) {
        outcome.trails[i] = r.fingerprint_trail;
        outcome.pruned[i] = r.pruned;
      });
  outcome.report = engine.Run();
  return outcome;
}

void ExpectEngineEquivalence(const systest::Harness& harness,
                             TestConfig config) {
  // Hot = total budget: never compacts, i.e. the historical flat behavior.
  // Hot = 32: compacts constantly. Identical seeds must give bit-identical
  // prune decisions, trails and aggregate stats either way.
  const StatefulRunOutcome flat = RunStateful(harness, config, config.max_visited);
  const StatefulRunOutcome tiered = RunStateful(harness, config, 32);
  EXPECT_GT(tiered.report.visited.compactions, 0u);
  EXPECT_EQ(flat.report.visited.compactions, 0u);
  EXPECT_EQ(flat.report.executions, tiered.report.executions);
  EXPECT_EQ(flat.report.pruned_executions, tiered.report.pruned_executions);
  EXPECT_EQ(flat.report.fingerprint_hits, tiered.report.fingerprint_hits);
  EXPECT_EQ(flat.report.fingerprint_misses, tiered.report.fingerprint_misses);
  EXPECT_EQ(flat.report.distinct_states, tiered.report.distinct_states);
  EXPECT_EQ(flat.report.total_steps, tiered.report.total_steps);
  ASSERT_EQ(flat.trails.size(), tiered.trails.size());
  for (const auto& [iteration, trail] : flat.trails) {
    EXPECT_EQ(tiered.pruned.at(iteration), flat.pruned.at(iteration))
        << "iteration " << iteration;
    EXPECT_EQ(tiered.trails.at(iteration), trail) << "iteration " << iteration;
  }
}

TEST(TieredEngineEquivalence, SampleReplRunsBitForBitIdentical) {
  samplerepl::HarnessOptions options;
  const systest::Harness harness = samplerepl::MakeHarness(options);
  TestConfig config;
  config.strategy = "random";
  config.seed = 7;
  config.iterations = 40;
  config.max_steps = 500;
  config.stateful = true;
  ExpectEngineEquivalence(harness, config);
}

TEST(TieredEngineEquivalence, VNextRunsBitForBitIdentical) {
  vnext::DriverOptions options;
  const systest::Harness harness = vnext::MakeExtentRepairHarness(options);
  TestConfig config = vnext::DefaultConfig("random");
  config.seed = 7;
  config.iterations = 25;
  config.max_steps = 400;
  config.stateful = true;
  config.fingerprint_payloads = true;
  ExpectEngineEquivalence(harness, config);
}

TEST(TieredSpill, RoundTripsRunsThroughDisk) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "systest-tiered-spill-test";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::size_t n = 64 * TieredFingerprintSet::kMaxRuns * 2;
  {
    TieredFingerprintSet set({1u << 20, 64, dir.string()});
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1));
    }
    const VisitedStats stats = set.Stats();
    EXPECT_GT(stats.spilled_runs, 0u);
    EXPECT_EQ(stats.spilled_runs, stats.runs);  // every run went to disk
    EXPECT_GT(stats.spilled_bytes, 0u);
    // The spill files are live on disk while the set serves from them.
    EXPECT_FALSE(std::filesystem::is_empty(dir));
    // Every membership probe below the hot level is answered from mmap.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_FALSE(set.Insert(i * 0x9e3779b97f4a7c15ull + 1)) << i;
    }
    EXPECT_EQ(set.Size(), n);
  }
  // Destruction unlinks the run files: the spill dir is left empty.
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

TEST(TieredSpill, FallsBackToMemoryWhenDirUnusable) {
  // Nonexistent directory: every spill fails, the set silently keeps runs in
  // memory and stays exact.
  TieredFingerprintSet set(
      {1u << 20, 16, "/nonexistent-systest-spill-dir/sub"});
  for (Fingerprint fp = 1; fp <= 200; ++fp) ASSERT_TRUE(set.Insert(fp));
  for (Fingerprint fp = 1; fp <= 200; ++fp) ASSERT_FALSE(set.Insert(fp));
  const VisitedStats stats = set.Stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_EQ(stats.spilled_runs, 0u);
  EXPECT_EQ(stats.spilled_bytes, 0u);
}

TEST(TieredConfigValidate, RejectsStatefulWithZeroHotLevel) {
  TestConfig config;
  config.stateful = true;
  config.max_visited_hot = 0;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.max_visited_hot = 1;
  EXPECT_NO_THROW(config.Validate());
}

TEST(TieredConfigValidate, RejectsSpillDirWithoutStateful) {
  TestConfig config;
  config.visited_spill_dir = "/tmp/spill";
  EXPECT_THROW(config.Validate(), std::invalid_argument);
  config.stateful = true;
  EXPECT_NO_THROW(config.Validate());
}

TEST(TieredStats, CountsHotHitsAndBloomTraffic) {
  TieredFingerprintSet set({1u << 20, 64, std::string{}});
  for (Fingerprint fp = 1; fp <= 200; ++fp) set.Insert(fp);  // compacts 3x
  for (Fingerprint fp = 1; fp <= 200; ++fp) set.Insert(fp);  // all hits
  const VisitedStats stats = set.Stats();
  EXPECT_GT(stats.hot_hits, 0u);
  EXPECT_GT(stats.run_probes, 0u);
  EXPECT_GT(stats.bloom_true_positives, 0u);
  // Exactness invariant: every run probe resolves to a definite answer.
  EXPECT_EQ(stats.run_probes,
            stats.bloom_true_positives + stats.bloom_false_positives);
  // 200 states, all still tracked.
  EXPECT_EQ(stats.hot_entries + stats.run_entries, 200u);
}

}  // namespace
