// Reproduces the MigratingTable block of Table 2 (case study "2"): the
// eleven re-introducible bugs, each explored with the P#-style random and
// randomized priority-based (PCT) schedulers under a 100,000-execution
// budget. Bugs the default harness misses are retried with a custom test
// case (marked "custom:" — the paper's dagger rows).
#include <vector>

#include "bench/bench_util.h"
#include "mtable/harness.h"

namespace {

systest::TestConfig Config(systest::StrategyName strategy) {
  systest::TestConfig config = mtable::DefaultConfig(strategy);
  config.iterations = 100'000;      // the paper's budget
  config.time_budget_seconds = 60;  // wall-clock cap per row
  return config;
}

/// Custom test case pinning DeletePrimaryKey: an operation in one partition
/// followed by a delete in another.
std::vector<std::vector<mtable::ScriptedOp>> DeletePrimaryKeyScript() {
  using mtable::ScriptedOp;
  ScriptedOp touch;
  touch.kind = ScriptedOp::Kind::kRetrieve;
  touch.partition = 0;
  ScriptedOp del;
  del.kind = ScriptedOp::Kind::kDelete;
  del.partition = 1;
  return {{touch, del}};
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseArgs(argc, argv);
  if (!bench::JsonMode()) {
    std::printf("Table 2 — MigratingTable (case study 2)\n");
    std::printf("100,000-execution budget (60s wall-clock cap per row); "
                "PCT budget: 2 priority change points\n");
  }

  for (const char* strategy : {"random", "pct"}) {
    bench::PrintHeader(std::string("scheduler: ") + strategy);
    for (const mtable::MTableBugId id : mtable::kAllMTableBugs) {
      mtable::MigrationHarnessOptions options;
      options.bugs = EnableBug(id);
      const bool found =
          bench::RunRow(std::string(ToString(id)), Config(strategy),
                        mtable::MakeMigrationHarness(options));
      if (!found && id == mtable::MTableBugId::kDeletePrimaryKey) {
        options.scripts = DeletePrimaryKeyScript();
        options.num_services = 1;
        bench::RunRow("custom:" + std::string(ToString(id)), Config(strategy),
                      mtable::MakeMigrationHarness(options));
      }
    }
  }
  return 0;
}
