// Table 2 as an executable oracle: the paper's bug matrix (every
// re-introducible case-study bug, found by the schedulers within budget; every
// fixed system clean) declared as data and checked by one generic runner.
//
// Rows are the registry rows perfbench's bug-hunt workload runs: every
// `buggy`-tagged scenario, one `mtable-migration bug=<Name>` row per
// MigratingTable bug, and every `fixed`-tagged control. Each bug row names the
// shape of its bug (kind plus a message substring); controls have none.
// Columns are the built-in strategies. A cell records, out of kSeeds seeds,
// how many sessions reported the row's shape and how many reported anything
// else: "3", "0", or "1+2" (one match, two other reports). Every match must
// replay through TestingEngine::Replay to the same kind.
//
// The table records today's behaviour exactly, known defects included, so a
// change to the scheduler, the runtime or a model shows up as cell flips. On a
// mismatch the test names each wrong cell and prints the whole actual matrix
// in the table's own syntax, plus each seed's executions-to-bug.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/scenario_registry.h"
#include "api/session.h"
#include "core/rng.h"
#include "mtable/bugs.h"

namespace {

using systest::BugKind;
using systest::api::ParamMap;
using systest::api::ScenarioRegistry;
using systest::api::SessionConfig;
using systest::api::TestSession;

constexpr std::array<const char*, 5> kStrategies = {
    "random", "pct", "pct(5)", "round-robin", "delay-bounded"};
constexpr int kSeeds = 3;
/// Per-session execution caps, the same as perfbench bug-hunt's.
constexpr std::uint64_t kBugCap = 400;
constexpr std::uint64_t kControlCap = 100;
/// The kSeeds session seeds are drawn from this base through SplitMix64,
/// never counted up from it: base seeds s and s+k share all but k of their
/// per-iteration seeds.
constexpr std::uint64_t kBaseSeed = 2016;

struct Shape {
  BugKind kind;
  const char* message;  ///< substring of the bug message
};

constexpr Shape Safety(const char* message) {
  return {BugKind::kSafety, message};
}
constexpr Shape Liveness(const char* message) {
  return {BugKind::kLiveness, message};
}
constexpr std::nullopt_t kClean = std::nullopt;

struct Row {
  const char* name;  ///< scenario, or "mtable-migration bug=<Name>"
  std::optional<Shape> shape;  ///< kClean for controls
  std::array<const char*, kStrategies.size()> cells;
};

// The mtable-migration control is clean under every strategy, so a safety
// report from the differential checker ('Tables(1)') comes from the injected
// bug.
// clang-format off
const Row kTable2[] = {
  // row                                               shape                                          random pct    pct(5)  rr     db
  {"chaintable-lost-update",                           Safety("lost update"),                         {"3",   "3",   "3",   "3",   "3"}},
  {"fabric-failover",                                  Safety("only a secondary can be promoted"),    {"3",   "3",   "3",   "3",   "3"}},
  {"fabric-pipeline",                                  Safety("null dereference"),                    {"3",   "3",   "3",   "3",   "3"}},
  {"mtable-backupnewstream",                           Safety("'Tables(1)'"),                         {"0",   "0",   "0",   "0",   "0"}},
  {"race",                                             Safety("arrived first"),                       {"3",   "3",   "3",   "3",   "3"}},
  // pct finds only the false "stayed hot" shape, on the same iterations as
  // on samplerepl-fixed, and pct(5) finds it on two of three seeds (ROADMAP
  // "Fair liveness checking").
  {"samplerepl-liveness",                              Liveness("at quiescence"),                     {"3",   "0+3", "1+2", "3",   "0"}},
  {"samplerepl-node-crash",                            Safety("distinct up-to-date replicas"),        {"3",   "3",   "3",   "0",   "0"}},
  {"samplerepl-safety",                                Safety("distinct up-to-date replicas"),        {"3",   "3",   "3",   "3",   "0"}},
  {"vnext-liveness",                                   Liveness("'RepairMonitor' stayed hot"),        {"3",   "3",   "3",   "0",   "3"}},
  {"mtable-migration bug=QueryAtomicFilterShadowing",  Safety("'Tables(1)'"),                         {"0",   "0",   "0",   "0",   "0"}},
  {"mtable-migration bug=QueryStreamedLock",           Safety("'Tables(1)'"),                         {"3",   "0",   "0",   "0",   "0"}},
  {"mtable-migration bug=QueryStreamedBackUpNewStream",Safety("'Tables(1)'"),                         {"0",   "0",   "0",   "0",   "0"}},
  {"mtable-migration bug=DeleteNoLeaveTombstonesEtag", Safety("'Tables(1)'"),                         {"3",   "3",   "3",   "0",   "0"}},
  {"mtable-migration bug=DeletePrimaryKey",            Safety("'Tables(1)'"),                         {"3",   "3",   "3",   "3",   "0"}},
  {"mtable-migration bug=EnsurePartitionSwitchedFromPopulated", Safety("'Tables(1)'"),                {"3",   "3",   "3",   "3",   "3"}},
  {"mtable-migration bug=TombstoneOutputETag",         Safety("'Tables(1)'"),                         {"1",   "0",   "0",   "0",   "0"}},
  {"mtable-migration bug=QueryStreamedFilterShadowing",Safety("'Tables(1)'"),                         {"1",   "0",   "0",   "0",   "0"}},
  {"mtable-migration bug=MigrateSkipPreferOld",        Safety("'Tables(1)'"),                         {"3",   "0",   "1",   "3",   "0"}},
  {"mtable-migration bug=MigrateSkipUseNewWithTombstones", Safety("'Tables(1)'"),                     {"0",   "0",   "0",   "0",   "0"}},
  {"mtable-migration bug=InsertBehindMigrator",        Safety("'Tables(1)'"),                         {"3",   "3",   "3",   "3",   "0"}},
  {"chaintable-cas",                                   kClean,                                        {"0",   "0",   "0",   "0",   "0"}},
  {"fabric-failover-fixed",                            kClean,                                        {"0",   "0",   "0",   "0",   "0"}},
  {"fabric-pipeline-fixed",                            kClean,                                        {"0",   "0",   "0",   "0",   "0"}},
  {"fabric-primary-crash-during-reconfig",             kClean,                                        {"0",   "0",   "0",   "0",   "0"}},
  {"mtable-migration",                                 kClean,                                        {"0",   "0",   "0",   "0",   "0"}},
  {"mtable-migrator-crash-mid-move",                   kClean,                                        {"0",   "0",   "0",   "0",   "0"}},
  // False liveness reports under the unfair strategies (ROADMAP "Fair
  // liveness checking").
  {"samplerepl-fixed",                                 kClean,                                        {"0",   "0+3", "0+3", "0",   "0"}},
  {"samplerepl-partition-heal",                        kClean,                                        {"0",   "0",   "0",   "0",   "0"}},
  // False liveness reports under the unfair strategies (ROADMAP "Fair
  // liveness checking").
  {"vnext-fixed",                                      kClean,                                        {"0",   "0+3", "0+3", "0",   "0+3"}},
  // False liveness reports under the unfair strategies (ROADMAP "Fair
  // liveness checking").
  {"vnext-repair-under-crash",                         kClean,                                        {"0",   "0+3", "0+3", "0",   "0+3"}},
};
// clang-format on

/// One matrix row as the registry defines it.
struct RegistryRow {
  std::string name;
  std::string scenario;
  ParamMap params;
};

/// The bug-hunt row list: buggy scenarios, the MigratingTable bugs, controls.
std::vector<RegistryRow> RegistryRows() {
  const ScenarioRegistry& registry = ScenarioRegistry::Instance();
  std::vector<RegistryRow> rows;
  for (const auto* scenario : registry.WithTag("buggy")) {
    rows.push_back({scenario->name, scenario->name, {}});
  }
  for (const mtable::MTableBugId id : mtable::kAllMTableBugs) {
    const std::string bug(mtable::ToString(id));
    rows.push_back({"mtable-migration bug=" + bug, "mtable-migration",
                    ParamMap{{"bug", bug}}});
  }
  for (const auto* scenario : registry.WithTag("fixed")) {
    rows.push_back({scenario->name, scenario->name, {}});
  }
  return rows;
}

using Seeds = std::array<std::uint64_t, kSeeds>;

Seeds DeriveSeeds() {
  Seeds seeds{};
  std::uint64_t state = kBaseSeed;
  for (std::uint64_t& seed : seeds) seed = systest::SplitMix64(state);
  return seeds;
}

const Row* FindRow(std::string_view name) {
  for (const Row& row : kTable2) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

/// The outcome of one cell across its seeds.
struct Cell {
  int found = 0;  ///< sessions that reported the row's shape
  int other = 0;  ///< sessions that reported anything else
  std::string executions;  ///< per seed: executions-to-bug, or "-"
  std::vector<std::string> replay_failures;  ///< "<seed>: <message>"

  [[nodiscard]] std::string Text() const {
    std::string text = std::to_string(found);
    if (other > 0) {
      text += '+';
      text += std::to_string(other);
    }
    return text;
  }
};

bool Matches(const std::optional<Shape>& shape,
             const systest::TestReport& report) {
  return shape.has_value() && report.bug_kind == shape->kind &&
         report.bug_message.find(shape->message) != std::string::npos;
}

Cell RunCell(const RegistryRow& row, const std::optional<Shape>& shape,
             const char* strategy, const Seeds& seeds) {
  Cell cell;
  for (const std::uint64_t seed : seeds) {
    SessionConfig config;
    config.scenario = row.scenario;
    config.params = row.params;
    config.strategy = strategy;
    config.seed = seed;
    config.iterations = shape.has_value() ? kBugCap : kControlCap;
    config.stop_on_first_bug = true;
    TestSession session(config);
    const systest::TestReport report = session.Run().report;
    if (!cell.executions.empty()) cell.executions += ' ';
    if (!report.bug_found) {
      cell.executions += '-';
      continue;
    }
    cell.executions += std::to_string(report.bug_iteration);
    if (!Matches(shape, report)) {
      ++cell.other;
      continue;
    }
    ++cell.found;
    systest::TestingEngine replayer(
        session.ResolveConfig(),
        ScenarioRegistry::Instance().Get(row.scenario).make(row.params));
    const systest::TestReport replayed = replayer.Replay(report.bug_trace);
    if (!replayed.bug_found || replayed.bug_kind != report.bug_kind) {
      cell.replay_failures.push_back(std::to_string(seed) + ": " +
                                     replayed.bug_message);
    }
  }
  return cell;
}

std::string ShapeText(const std::optional<Shape>& shape) {
  if (!shape.has_value()) return "kClean";
  std::string out = shape->kind == BugKind::kLiveness ? "Liveness(\""
                                                      : "Safety(\"";
  out += shape->message;
  out += "\")";
  return out;
}

TEST(Table2, TableHoldsExactlyTheRegistryRows) {
  std::set<std::string> registry;
  for (const RegistryRow& row : RegistryRows()) {
    EXPECT_TRUE(registry.insert(row.name).second) << "duplicate " << row.name;
    EXPECT_NE(FindRow(row.name), nullptr)
        << "registry row '" << row.name << "' has no Table 2 entry";
  }
  std::set<std::string> table;
  for (const Row& row : kTable2) {
    EXPECT_TRUE(table.insert(row.name).second) << "duplicate " << row.name;
    EXPECT_TRUE(registry.contains(row.name))
        << "Table 2 entry '" << row.name << "' is not a registry row";
  }
  EXPECT_EQ(registry.size(), 30u);
}

TEST(Table2, EveryCellMatches) {
  const Seeds seeds = DeriveSeeds();
  std::ostringstream actual;
  std::ostringstream executions;
  bool mismatch = false;
  for (const RegistryRow& registry_row : RegistryRows()) {
    const Row* row = FindRow(registry_row.name);
    ASSERT_NE(row, nullptr) << registry_row.name;
    actual << "  {\"" << registry_row.name << "\", " << ShapeText(row->shape)
           << ", {";
    executions << "  " << registry_row.name;
    for (std::size_t s = 0; s < kStrategies.size(); ++s) {
      const Cell cell =
          RunCell(registry_row, row->shape, kStrategies[s], seeds);
      if (cell.Text() != row->cells[s]) {
        mismatch = true;
        ADD_FAILURE() << registry_row.name << " / " << kStrategies[s]
                      << ": expected \"" << row->cells[s] << "\", got \""
                      << cell.Text() << "\"";
      }
      for (const std::string& failure : cell.replay_failures) {
        ADD_FAILURE() << registry_row.name << " / " << kStrategies[s]
                      << ": a match did not replay to the same kind (seed "
                      << failure << ")";
      }
      actual << (s == 0 ? "\"" : ", \"") << cell.Text() << '"';
      executions << "  " << kStrategies[s] << ": " << cell.executions;
    }
    actual << "}},\n";
    executions << '\n';
  }
  if (mismatch) {
    std::printf("actual Table 2:\n%s\nexecutions-to-bug per seed:\n%s",
                actual.str().c_str(), executions.str().c_str());
  }
}

}  // namespace
