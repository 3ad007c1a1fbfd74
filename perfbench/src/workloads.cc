#include "workloads.h"

#include <stdexcept>

#include "api/scenario_registry.h"
#include "mtable/bugs.h"

namespace perfbench {
namespace {

using systest::api::ParamMap;
using systest::api::SessionConfig;

// ---- bug-hunt: the Table 2 matrix -----------------------------------------

constexpr const char* kBugStrategies[] = {"random", "pct"};
constexpr int kTrialsPerCell = 3;  ///< 20 rows x 2 strategies x 3 = 120 trials
/// Per-trial execution cap. Rows that need more (the hard mtable cells)
/// miss and are charged the cap.
constexpr std::uint64_t kBugCap = 400;
constexpr std::uint64_t kControlBudget = 100;
/// Fixed-budget sweep of every (row, strategy) cell without early stop:
/// the same work for every seed, which is what exec_per_s measures.
constexpr std::uint64_t kSweepBudget = 100;

// ---- stateful-scale ---------------------------------------------------------

/// Far above any state count the budgets below reach: never saturates.
constexpr std::uint64_t kVisitedBudget = std::uint64_t{1} << 26;
/// Small enough that the hot level compacts several times per job.
constexpr std::uint64_t kVisitedHot = std::uint64_t{1} << 17;
constexpr std::uint64_t kScaleVnextIterations = 400;
constexpr std::uint64_t kScaleSampleReplIterations = 1500;
constexpr std::uint64_t kScaleMTableIterations = 40'000;

// ---- guided-faults ----------------------------------------------------------

constexpr int kGuidedTrials = 12;
constexpr std::uint64_t kGuidedCap = 1500;
/// Independent coverage campaigns: how long a mutate campaign's executions
/// run depends on its seed, so several campaigns average that out.
constexpr int kCoverageCampaigns = 6;
constexpr std::uint64_t kCoverageHalfIterations = 100;
constexpr std::uint64_t kCoverageVisitedBudget = std::uint64_t{1} << 24;
/// Corpus bound of a coverage campaign: small enough that saving and
/// reloading it (file I/O, whose speed the host does not hold steady) stays
/// a minor share of a half's wall time.
constexpr std::uint64_t kCoverageCorpusMax = 128;

// ---- parallel-explore -------------------------------------------------------

constexpr std::uint64_t kParallelFabricIterations = 300'000;
constexpr std::uint64_t kParallelSampleReplIterations = 6000;

ParamMap ScaledSampleRepl() {
  return ParamMap{{"nodes", "5"}, {"requests", "4"}, {"value-space", "5"}};
}

std::string Describe(const std::string& scenario, const ParamMap& params) {
  std::string out = scenario;
  const std::string p = params.ToString();
  if (!p.empty()) out += "[" + p + "]";
  return out;
}

class SeedSource {
 public:
  SeedSource(std::uint64_t base, Workload& w) : base_(base), w_(w) {}
  std::uint64_t Next() {
    const std::uint64_t seed = DeriveSeed(base_, next_++);
    w_.trial_seeds.push_back(seed);
    return seed;
  }

 private:
  std::uint64_t base_;
  Workload& w_;
  std::uint64_t next_ = 0;
};

Job MakeJob(std::string label, std::string shape, JobKind kind,
            SessionConfig cfg) {
  Job job;
  job.label = std::move(label);
  job.shape = std::move(shape);
  job.kind = kind;
  job.cfg = std::move(cfg);
  return job;
}

void AddBugHunt(Workload& w, std::uint64_t base) {
  SeedSource seeds(base, w);
  const auto& registry = systest::api::ScenarioRegistry::Instance();
  std::vector<std::pair<std::string, ParamMap>> rows;
  for (const auto* scenario : registry.WithTag("buggy")) {
    rows.emplace_back(scenario->name, ParamMap{});
  }
  for (const mtable::MTableBugId id : mtable::kAllMTableBugs) {
    rows.emplace_back("mtable-migration",
                      ParamMap{{"bug", std::string(mtable::ToString(id))}});
  }
  for (const auto& [scenario, params] : rows) {
    const std::string row = Describe(scenario, params);
    for (const char* strategy : kBugStrategies) {
      for (int t = 0; t < kTrialsPerCell; ++t) {
        SessionConfig cfg;
        cfg.scenario = scenario;
        cfg.params = params;
        cfg.strategy = strategy;
        cfg.seed = seeds.Next();
        cfg.iterations = kBugCap;
        cfg.stop_on_first_bug = true;
        w.jobs.push_back(MakeJob(row + "/" + strategy + "#" + std::to_string(t),
                                 row, JobKind::kBugTrial, std::move(cfg)));
      }
      SessionConfig cfg;
      cfg.scenario = scenario;
      cfg.params = params;
      cfg.strategy = strategy;
      cfg.seed = seeds.Next();
      cfg.iterations = kSweepBudget;
      cfg.stop_on_first_bug = false;
      w.jobs.push_back(MakeJob(row + "/" + strategy + "/sweep", row,
                               JobKind::kSweep, std::move(cfg)));
    }
  }
  for (const auto* scenario : registry.WithTag("fixed")) {
    SessionConfig cfg;
    cfg.scenario = scenario->name;
    cfg.strategy = "random";
    cfg.seed = seeds.Next();
    cfg.iterations = kControlBudget;
    w.jobs.push_back(MakeJob(scenario->name + "/control", scenario->name,
                             JobKind::kControl, std::move(cfg)));
  }
}

SessionConfig StatefulConfig(const std::string& scenario, ParamMap params,
                             std::uint64_t iterations, std::uint64_t seed,
                             bool payloads) {
  SessionConfig cfg;
  cfg.scenario = scenario;
  cfg.params = std::move(params);
  cfg.strategy = "random";
  cfg.seed = seed;
  cfg.iterations = iterations;
  cfg.stop_on_first_bug = false;
  cfg.stateful = true;
  cfg.fingerprint_payloads = payloads;
  cfg.max_visited = kVisitedBudget;
  cfg.max_visited_hot = kVisitedHot;
  return cfg;
}

void AddStatefulScale(Workload& w, std::uint64_t base) {
  SeedSource seeds(base, w);
  Job vnext = MakeJob("vnext-fixed/stateful", "vnext-fixed", JobKind::kScale,
                      StatefulConfig("vnext-fixed", {}, kScaleVnextIterations,
                                     seeds.Next(), true));
  vnext.stateless_twin = true;
  w.jobs.push_back(std::move(vnext));
  Job repl = MakeJob(
      "samplerepl-fixed[scaled]/stateful", "samplerepl-fixed[scaled]",
      JobKind::kScale,
      StatefulConfig("samplerepl-fixed", ScaledSampleRepl(),
                     kScaleSampleReplIterations, seeds.Next(), true));
  repl.stateless_twin = true;
  w.jobs.push_back(std::move(repl));
  // Structural fingerprints only: every execution reconverges and is
  // pruned, which is the visited set's prune fast path.
  w.jobs.push_back(MakeJob("mtable-migration/stateful-pruned",
                           "mtable-migration", JobKind::kScale,
                           StatefulConfig("mtable-migration", {},
                                          kScaleMTableIterations, seeds.Next(),
                                          false)));
}

void AddGuidedFaults(Workload& w, std::uint64_t base,
                     const std::string& work_dir) {
  SeedSource seeds(base, w);
  const ParamMap hard_crash{
      {"nodes", "7"}, {"replica-target", "7"}, {"requests", "3"}};
  for (int t = 0; t < kGuidedTrials; ++t) {
    SessionConfig cfg;
    cfg.scenario = "samplerepl-node-crash";
    cfg.params = hard_crash;
    cfg.strategy = "mutate";
    cfg.seed = seeds.Next();
    cfg.iterations = kGuidedCap;
    cfg.stop_on_first_bug = true;
    cfg.coverage = true;  // heat feeds corpus energy
    w.jobs.push_back(MakeJob("samplerepl-node-crash[scaled]/mutate#" +
                                 std::to_string(t),
                             "samplerepl-node-crash[scaled]",
                             JobKind::kBugTrial, std::move(cfg)));
  }
  // Fixed-budget coverage campaigns, each saved after its first half and
  // resumed from disk for the second.
  for (int c = 0; c < kCoverageCampaigns; ++c) {
    const std::uint64_t seed = seeds.Next();
    const std::string label =
        "samplerepl-partition-heal#" + std::to_string(c) + "/mutate-";
    SessionConfig cfg;
    cfg.scenario = "samplerepl-partition-heal";
    cfg.strategy = "mutate";
    cfg.iterations = kCoverageHalfIterations;
    cfg.stop_on_first_bug = false;
    cfg.coverage = true;
    cfg.max_visited = kCoverageVisitedBudget;
    // A fixed hot level, so peak memory does not step with the seed's state
    // count (the hot table doubles as it fills).
    cfg.max_visited_hot = kVisitedHot;
    cfg.corpus_dir = work_dir + "/corpus-" + std::to_string(c);
    cfg.corpus_max = kCoverageCorpusMax;
    cfg.seed = seed;
    Job first = MakeJob(label + "first-half", "samplerepl-partition-heal/fresh",
                        JobKind::kCoverage, cfg);
    first.fresh_corpus_dir = true;
    w.jobs.push_back(std::move(first));
    // Continue the same seed sequence, as a resumed campaign would.
    cfg.seed = seed + kCoverageHalfIterations;
    w.jobs.push_back(MakeJob(label + "resumed-half",
                             "samplerepl-partition-heal/resume",
                             JobKind::kCoverage, std::move(cfg)));
  }
}

void AddParallelExplore(Workload& w, std::uint64_t base, int workers) {
  SeedSource seeds(base, w);
  SessionConfig fabric;
  fabric.scenario = "fabric-failover-fixed";
  fabric.strategy = "random";
  fabric.seed = seeds.Next();
  fabric.iterations = kParallelFabricIterations;
  fabric.stop_on_first_bug = false;
  fabric.threads = workers;
  fabric.metrics = true;
  w.jobs.push_back(MakeJob("fabric-failover-fixed/parallel",
                           "fabric-failover-fixed/parallel",
                           JobKind::kParallel, std::move(fabric)));
  SessionConfig repl =
      StatefulConfig("samplerepl-fixed", ScaledSampleRepl(),
                     kParallelSampleReplIterations, seeds.Next(), true);
  repl.threads = workers;
  repl.metrics = true;
  w.jobs.push_back(MakeJob("samplerepl-fixed[scaled]/parallel-stateful",
                           "samplerepl-fixed[scaled]/parallel",
                           JobKind::kParallel, std::move(repl)));
}

}  // namespace

std::uint64_t DeriveSeed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64 finalizer over a golden-ratio stride.
  std::uint64_t z = base_seed * 0x9e3779b97f4a7c15ull +
                    (index + 1) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z >> 1;
}

Workload MakeWorkload(const std::string& name, std::uint64_t base_seed,
                      const std::string& work_dir, int workers) {
  Workload w;
  w.name = name;
  if (name == "bug-hunt") {
    w.why = "Table 2 matrix: short stateless executions, runner/strategy/"
            "runtime bound";
    w.bug_hunting = true;
    AddBugHunt(w, base_seed);
  } else if (name == "stateful-scale") {
    w.why = "stateful full budgets: fingerprint refresh and visited probe "
            "bound, state count above every cache";
    w.stateful = true;
    AddStatefulScale(w, base_seed);
  } else if (name == "guided-faults") {
    w.why = "mutate + corpus + coverage under crashes/partitions: corpus, "
            "prefix replay, trace v2/v3 and obs do real work";
    w.stateful = true;
    w.bug_hunting = true;
    AddGuidedFaults(w, base_seed, work_dir);
  } else if (name == "parallel-explore") {
    w.why = "ParallelTestingEngine on a shared sharded visited set: explore "
            "sharding and cross-worker obs";
    w.stateful = true;
    AddParallelExplore(w, base_seed, workers);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
