// Parameterized workload/topology sweeps: the fixed systems must stay clean
// and the paper bugs must stay findable as the harness dimensions change —
// protocol correctness cannot be an artifact of one particular workload
// size. (The paper's harnesses parameterize the same dimensions: number of
// nodes/services, operations per service, replica targets.)
#include <gtest/gtest.h>

#include <string>

#include "core/systest.h"
#include "mtable/harness.h"
#include "samplerepl/harness.h"
#include "vnext/harness.h"

namespace {

using systest::TestConfig;
using systest::TestingEngine;
using systest::TestReport;

// ---------------------------------------------------------------------------
// vNext: vary the number of extent nodes (the replica target stays 3, so
// larger clusters add bystander nodes and heartbeat traffic).

class VNextTopologySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VNextTopologySweep, FixedManagerRepairsAtEveryClusterSize) {
  vnext::DriverOptions options;
  options.manager.fix_stale_sync_report = true;
  options.num_nodes = GetParam();
  options.initial_replicas = 3;
  TestConfig config = vnext::DefaultConfig("random");
  config.iterations = 150;
  // Repair latency grows superlinearly with cluster size (every extra node
  // adds two producer timers competing for the Extent Manager's queue), so
  // the bounded-infinite bound must scale with it — the same bound-choice
  // sensitivity the ablation_liveness_bound bench quantifies.
  config.max_steps = 3'000 * GetParam();
  config.liveness_temperature_threshold = config.max_steps * 2 / 5;
  const TestReport report =
      TestingEngine(config, vnext::MakeExtentRepairHarness(options)).Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

TEST_P(VNextTopologySweep, BuggyManagerIsCaughtAtEveryClusterSize) {
  vnext::DriverOptions options;
  options.manager.fix_stale_sync_report = false;
  options.num_nodes = GetParam();
  options.initial_replicas = 3;
  TestConfig config = vnext::DefaultConfig("random");
  config.iterations = 3'000;
  config.max_steps = 3'000 * GetParam();
  config.liveness_temperature_threshold = config.max_steps * 2 / 5;
  config.time_budget_seconds = 60;
  const TestReport report =
      TestingEngine(config, vnext::MakeExtentRepairHarness(options)).Run();
  EXPECT_TRUE(report.bug_found) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, VNextTopologySweep,
                         ::testing::Values(3, 4, 6),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return "nodes" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// MigratingTable: vary services x ops; the fixed protocol must pass the
// differential checker for every mix.

struct MTableWorkload {
  int services;
  int ops;
};

class MTableWorkloadSweep : public ::testing::TestWithParam<MTableWorkload> {};

TEST_P(MTableWorkloadSweep, FixedProtocolPassesDifferentialTesting) {
  mtable::MigrationHarnessOptions options;
  options.num_services = GetParam().services;
  options.ops_per_service = GetParam().ops;
  TestConfig config = mtable::DefaultConfig("random");
  config.iterations = 800;
  config.time_budget_seconds = 60;
  const TestReport report =
      TestingEngine(config, mtable::MakeMigrationHarness(options)).Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, MTableWorkloadSweep,
    ::testing::Values(MTableWorkload{1, 8}, MTableWorkload{2, 6},
                      MTableWorkload{3, 4}, MTableWorkload{4, 3}),
    [](const ::testing::TestParamInfo<MTableWorkload>& info) {
      std::string name = "s";
      name += std::to_string(info.param.services);
      name += 'x';
      name += std::to_string(info.param.ops);
      return name;
    });

// Single-partition workload: the per-partition protocol must degenerate
// cleanly (no cross-partition interleavings to hide behind).
TEST(MTableWorkloadEdge, SinglePartitionFixedPasses) {
  mtable::MigrationHarnessOptions options;
  options.partitions = {"P0"};
  TestConfig config = mtable::DefaultConfig("random");
  config.iterations = 1'500;
  config.time_budget_seconds = 60;
  const TestReport report =
      TestingEngine(config, mtable::MakeMigrationHarness(options)).Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

// Empty initial data set: migration of nothing must still converge (state
// rows, sweep, verification).
TEST(MTableWorkloadEdge, EmptyInitialTableFixedPasses) {
  mtable::MigrationHarnessOptions options;
  options.initial_rows = {
      // one marker row so initial_rows is non-empty but trivial
  };
  options.ops_per_service = 2;
  TestConfig config = mtable::DefaultConfig("random");
  config.iterations = 1'000;
  const TestReport report =
      TestingEngine(config, mtable::MakeMigrationHarness(options)).Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

// ---------------------------------------------------------------------------
// SampleRepl: vary replica target and request count; bugs must remain
// findable and the fixed server clean.

struct ReplShape {
  std::size_t nodes;
  std::size_t target;
  std::size_t requests;
};

class SampleReplShapeSweep : public ::testing::TestWithParam<ReplShape> {};

TEST_P(SampleReplShapeSweep, FixedServerPasses) {
  samplerepl::HarnessOptions options;
  options.num_nodes = GetParam().nodes;
  options.replica_target = GetParam().target;
  options.num_requests = GetParam().requests;
  TestConfig config;
  config.iterations = 1'000;
  config.max_steps = 4'000;
  config.seed = 2016;
  const TestReport report =
      TestingEngine(config, samplerepl::MakeHarness(options)).Run();
  EXPECT_FALSE(report.bug_found) << report.Summary();
}

TEST_P(SampleReplShapeSweep, NonUniqueCountBugFound) {
  samplerepl::HarnessOptions options;
  options.bugs.non_unique_replica_count = true;
  options.num_nodes = GetParam().nodes;
  options.replica_target = GetParam().target;
  options.num_requests = GetParam().requests;
  TestConfig config;
  config.iterations = 50'000;
  config.max_steps = 4'000;
  config.seed = 2016;
  config.time_budget_seconds = 30;
  const TestReport report =
      TestingEngine(config, samplerepl::MakeHarness(options)).Run();
  EXPECT_TRUE(report.bug_found) << report.Summary();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SampleReplShapeSweep,
    ::testing::Values(ReplShape{3, 3, 1}, ReplShape{3, 3, 3},
                      ReplShape{4, 3, 2}, ReplShape{5, 5, 2}),
    [](const ::testing::TestParamInfo<ReplShape>& info) {
      std::string name = "n";
      name += std::to_string(info.param.nodes);
      name += 't';
      name += std::to_string(info.param.target);
      name += 'r';
      name += std::to_string(info.param.requests);
      return name;
    });

}  // namespace
