#include "driver.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <system_error>

#include "api/scenario_registry.h"
#include "api/session.h"
#include "api/strategy_registry.h"
#include "core/engine.h"
#include "corpus/trace_corpus.h"
#include "obs/campaign.h"
#include "obs/metrics.h"

namespace perfbench {
namespace {

namespace api = systest::api;
namespace fs = std::filesystem;

double SecondsSince(std::int64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

void FillFromReport(JobResult& r, const systest::TestReport& rep) {
  r.executions = rep.executions;
  r.steps = rep.total_steps;
  r.stateful = rep.stateful;
  r.distinct_states = rep.distinct_states;
  r.pruned = rep.pruned_executions;
  r.bug_found = rep.bug_found;
  r.bug_kind = rep.bug_kind;
  r.bug_message = rep.bug_message;
  r.bug_iteration = rep.bug_iteration;
  r.witness = rep.bug_trace;
  r.visited = rep.visited;
}

void ClearDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

/// Records the time of the first completed execution.
class FirstIteration final : public api::RunObserver {
 public:
  [[nodiscard]] bool WantsIterations() const override { return true; }
  void OnIteration(const api::IterationInfo& /*info*/) override {
    if (first_ns == 0) first_ns = NowNs();
  }
  std::int64_t first_ns = 0;
};

/// The harness, config and scenario of a job, resolved the way TestSession
/// resolves them.
struct Resolved {
  systest::TestConfig config;
  systest::Harness harness;
};

Resolved Resolve(const Job& job) {
  const api::Scenario& scenario =
      api::ScenarioRegistry::Instance().Get(job.cfg.scenario);
  Resolved out;
  out.config = api::TestSession(job.cfg).ResolveConfig();
  out.harness = scenario.make(job.cfg.params);
  return out;
}

Resolved ResolveTimed(const Job& job, SpanRecorder& rec, std::uint32_t parent,
                      std::uint32_t trial, LayerStats& stats) {
  const ScopedSpan span(rec, parent, "api", "ResolveConfig+Scenario::make",
                        trial);
  const std::int64_t t0 = NowNs();
  Resolved out = Resolve(job);
  stats.resolve_ns.push_back(static_cast<double>(NowNs() - t0));
  out.config.Validate();
  return out;
}

bool MetricsOn(const api::SessionConfig& cfg) {
  return cfg.metrics || cfg.progress || !cfg.metrics_out.empty() ||
         cfg.coverage;
}

/// Folds one traced serial job's wrapper spans into the layer stats.
void FoldSerial(const SpanRecorder& rec, std::uint32_t runner,
                std::uint32_t decide, std::uint32_t prepare,
                std::uint32_t insert, std::uint32_t harness,
                std::uint32_t corpus_add, const JobResult& r,
                std::uint64_t insert_hits, LayerStats& s) {
  s.runner_ns += rec.Get(runner).busy;
  s.decisions += rec.Get(decide).count;
  s.decide_ns += rec.Get(decide).busy;
  s.prepares += rec.Get(prepare).count;
  s.prepare_ns += rec.Get(prepare).busy;
  s.inserts += rec.Get(insert).count;
  s.timed_inserts += rec.Get(insert).count;
  s.insert_ns += rec.Get(insert).busy;
  s.insert_hits += insert_hits;
  s.harness_calls += rec.Get(harness).count;
  s.harness_ns += rec.Get(harness).busy;
  s.corpus_add_ns += rec.Get(corpus_add).busy;
  s.executions += r.executions;
  s.serial_executions += r.executions;
  s.steps += r.steps;
  s.serial_steps += r.steps;
  if (r.stateful) {
    s.stateful_executions += r.executions;
    s.pruned += r.pruned;
    s.compactions += r.visited.compactions;
    s.bloom_fp += r.visited.bloom_false_positives;
    s.run_probes += r.visited.run_probes;
  }
}

JobResult RunTracedSerial(const Job& job, std::uint32_t trial,
                          SpanRecorder& rec, LayerStats& stats) {
  const std::int64_t job_t0 = NowNs();
  const ScopedSpan job_span(rec, 0, "bench", job.label, trial);
  if (job.fresh_corpus_dir) ClearDir(job.cfg.corpus_dir);
  const Resolved resolved = ResolveTimed(job, rec, job_span.Id(), trial, stats);
  const systest::TestConfig& tc = resolved.config;

  std::unique_ptr<systest::corpus::TraceCorpus> corpus;
  if (tc.corpus_mutation) {
    corpus = std::make_unique<systest::corpus::TraceCorpus>(
        job.cfg.corpus_max.value_or(
            systest::corpus::TraceCorpus::kDefaultMaxEntries));
    if (!job.cfg.corpus_dir.empty() &&
        fs::exists(fs::path(job.cfg.corpus_dir) / "corpus.index")) {
      const ScopedSpan span(rec, job_span.Id(), "corpus",
                            "TraceCorpus::LoadDir", trial);
      const std::int64_t t0 = NowNs();
      corpus->LoadDir(job.cfg.corpus_dir);
      stats.corpus_load_ns.push_back(static_cast<double>(NowNs() - t0));
    }
  }
  // The registry's "mutate" factory reaches the corpus through this handle,
  // exactly as inside TestSession::Run.
  const systest::corpus::ScopedActiveCorpus active(corpus.get());
  const auto inner = systest::StrategyRegistry::Instance().Create(
      tc.strategy, tc.seed, tc.strategy_budget);

  const std::uint32_t runner_span = rec.Aggregate(
      job_span.Id(), "core.runner", "ExecutionRunner::RunOne", trial);
  const std::uint32_t decide_span =
      rec.Aggregate(runner_span, "core.strategy", "decide", trial);
  const std::uint32_t prepare_span =
      rec.Aggregate(runner_span, "core.strategy", "PrepareIteration", trial);
  const std::uint32_t insert_span =
      rec.Aggregate(runner_span, "core.fingerprint", "VisitedSet::Insert",
                    trial);
  const std::uint32_t harness_span =
      rec.Aggregate(runner_span, "harness", "Harness", trial);
  const std::uint32_t add_span =
      rec.Aggregate(job_span.Id(), "corpus", "TraceCorpus::Add", trial);

  TimedStrategy strategy(*inner, rec, decide_span, prepare_span);
  systest::TieredOptions visited_options;
  visited_options.max_entries = static_cast<std::size_t>(tc.max_visited);
  visited_options.hot_entries = static_cast<std::size_t>(tc.max_visited_hot);
  visited_options.spill_dir = tc.visited_spill_dir;
  systest::TieredFingerprintSet base_set(visited_options);
  TimedVisitedSet visited(base_set, rec, insert_span);
  systest::VisitedSet* visited_ptr = tc.stateful ? &visited : nullptr;

  std::unique_ptr<systest::obs::MetricsRegistry> registry;
  std::unique_ptr<systest::obs::CampaignMetrics> metrics;
  std::unique_ptr<systest::obs::WorkerObs> worker_obs;
  if (MetricsOn(job.cfg)) {
    registry = std::make_unique<systest::obs::MetricsRegistry>();
    metrics = std::make_unique<systest::obs::CampaignMetrics>(*registry);
    worker_obs = std::make_unique<systest::obs::WorkerObs>(
        *metrics, /*worker_index=*/0, job.cfg.coverage);
  }
  const systest::Harness& harness = resolved.harness;
  const systest::Harness timed_harness = [&rec, &harness,
                                          harness_span](systest::Runtime& rt) {
    const std::int64_t t0 = NowNs();
    harness(rt);
    rec.Add(harness_span, NowNs() - t0);
  };

  // TestingEngine::Run's loop, around the same ExecutionRunner.
  JobResult r;
  r.stateful = tc.stateful;
  {
    systest::ExecutionRunner runner(tc, timed_harness, strategy,
                                    worker_obs.get());
    for (std::uint64_t it = 0; it < tc.iterations; ++it) {
      const bool recycled = runner.Recycling();
      const std::int64_t t0 = NowNs();
      systest::ExecutionResult result = runner.RunOne(it, visited_ptr);
      const std::int64_t dt = NowNs() - t0;
      rec.Add(runner_span, dt);
      stats.exec_ns.push_back(static_cast<double>(dt));
      if (it == 0) stats.first_exec_ns.push_back(static_cast<double>(dt));
      if (recycled) ++stats.recycled;
      stats.faults += result.faults.Total();
      ++r.executions;
      r.steps += result.steps;
      if (tc.stateful && result.pruned) ++r.pruned;
      if (corpus != nullptr && tc.stateful &&
          (result.fingerprint_misses > 0 || result.bug_found)) {
        const std::int64_t a0 = NowNs();
        const bool added = corpus->Add(
            result.trace, result.fingerprint_misses,
            worker_obs != nullptr ? worker_obs->LastNewStateCells() : 0);
        rec.Add(add_span, NowNs() - a0);
        ++stats.corpus_adds;
        if (added) ++stats.corpus_accepted;
      }
      if (result.bug_found) {
        if (!r.bug_found) {
          r.bug_found = true;
          r.bug_kind = result.bug_kind;
          r.bug_message = result.bug_message;
          r.bug_iteration = it + 1;
          r.witness = std::move(result.trace);
        }
        if (tc.stop_on_first_bug) break;
      }
    }
  }
  for (const std::uint32_t id : {runner_span, decide_span, prepare_span,
                                 insert_span, harness_span, add_span}) {
    rec.Close(id);
  }
  if (tc.stateful) {
    r.distinct_states = base_set.Size();
    r.visited = base_set.Stats();
  }
  if (corpus != nullptr && !job.cfg.corpus_dir.empty()) {
    const ScopedSpan span(rec, job_span.Id(), "corpus", "TraceCorpus::SaveDir",
                          trial);
    const std::int64_t t0 = NowNs();
    corpus->SaveDir(job.cfg.corpus_dir);
    stats.corpus_save_ns.push_back(static_cast<double>(NowNs() - t0));
    stats.corpus_entries = corpus->Size();
  }
  FoldSerial(rec, runner_span, decide_span, prepare_span, insert_span,
             harness_span, add_span, r, visited.Hits(), stats);
  r.wall_s = SecondsSince(job_t0);
  return r;
}

JobResult RunTracedParallel(const Job& job, std::uint32_t trial,
                            TracedContext& ctx) {
  SpanRecorder& rec = ctx.rec;
  LayerStats& stats = ctx.stats;
  const std::int64_t job_t0 = NowNs();
  const ScopedSpan job_span(rec, 0, "bench", job.label, trial);
  const Resolved resolved = ResolveTimed(job, rec, job_span.Id(), trial, stats);
  const systest::TestConfig& tc = resolved.config;
  const int threads = job.cfg.threads;

  // The harness runs concurrently on every worker: accumulate atomically.
  std::atomic<std::int64_t> harness_ns{0};
  std::atomic<std::uint64_t> harness_calls{0};
  const systest::Harness& harness = resolved.harness;
  const systest::Harness timed_harness =
      [&harness, &harness_ns, &harness_calls](systest::Runtime& rt) {
        const std::int64_t t0 = NowNs();
        harness(rt);
        harness_ns.fetch_add(NowNs() - t0, std::memory_order_relaxed);
        harness_calls.fetch_add(1, std::memory_order_relaxed);
      };

  auto run = [&](int workers, bool obs_on, bool coverage,
                 const std::function<void(int, std::uint64_t,
                                          const systest::ExecutionResult&)>&
                     on_iteration) {
    std::unique_ptr<systest::obs::MetricsRegistry> registry;
    std::unique_ptr<systest::obs::CampaignMetrics> metrics;
    systest::explore::ParallelOptions options;
    options.threads = workers;
    options.verify_replay = job.cfg.verify_replay;
    if (obs_on) {
      registry = std::make_unique<systest::obs::MetricsRegistry>();
      metrics = std::make_unique<systest::obs::CampaignMetrics>(*registry);
      options.metrics = metrics.get();
      options.coverage = coverage;
    }
    options.on_iteration = on_iteration;
    systest::explore::ParallelTestingEngine engine(tc, timed_harness, options);
    return engine.Run();
  };

  // Per-worker execution durations: the gap between a worker's successive
  // iteration callbacks (the first gap includes the worker's set-up).
  std::vector<std::int64_t> last(static_cast<std::size_t>(threads), 0);
  std::vector<std::vector<double>> gaps(static_cast<std::size_t>(threads));
  const auto on_iteration = [&last, &gaps](int w, std::uint64_t,
                                           const systest::ExecutionResult&) {
    const std::int64_t now = NowNs();
    const auto i = static_cast<std::size_t>(w);
    gaps[i].push_back(static_cast<double>(now - last[i]));
    last[i] = now;
  };

  systest::explore::ParallelTestReport preport;
  double wall = 0.0;
  {
    const ScopedSpan span(rec, job_span.Id(), "explore",
                          "ParallelTestingEngine::Run", trial);
    const std::int64_t t0 = NowNs();
    std::fill(last.begin(), last.end(), t0);
    preport = run(threads, MetricsOn(job.cfg), job.cfg.coverage, on_iteration);
    wall = SecondsSince(t0);
  }
  const systest::TestReport& agg = preport.aggregate;
  JobResult r;
  r.executions = agg.executions;
  r.steps = agg.total_steps;
  r.stateful = agg.stateful;
  r.distinct_states = agg.distinct_states;
  r.pruned = agg.pruned_executions;
  r.bug_found = agg.bug_found;
  r.bug_kind = agg.bug_kind;
  r.bug_message = agg.bug_message;
  r.bug_iteration = agg.bug_iteration;
  r.witness = agg.bug_trace;
  r.visited = agg.visited;
  r.wall_s = SecondsSince(job_t0);

  for (const std::vector<double>& g : gaps) {
    if (!g.empty()) stats.first_exec_ns.push_back(g.front());
    stats.exec_ns.insert(stats.exec_ns.end(), g.begin(), g.end());
  }
  stats.harness_calls += harness_calls.load();
  stats.harness_ns += harness_ns.load();
  stats.executions += r.executions;
  stats.steps += r.steps;
  for (const systest::explore::WorkerReport& w : preport.workers) {
    stats.faults += w.injected_faults.Total();
  }
  if (r.stateful) {
    stats.stateful_executions += r.executions;
    stats.pruned += r.pruned;
    stats.inserts += agg.fingerprint_hits + agg.fingerprint_misses;
    stats.insert_hits += agg.fingerprint_hits;
    stats.compactions += agg.visited.compactions;
    stats.shard_compactions += agg.visited.compactions;
    stats.bloom_fp += agg.visited.bloom_false_positives;
    stats.run_probes += agg.visited.run_probes;
  }
  stats.parallel_execs += static_cast<double>(r.executions);
  stats.parallel_wall_s += wall;
  double min_rate = 0.0;
  double max_rate = 0.0;
  for (const systest::explore::WorkerReport& w : preport.workers) {
    stats.worker_busy_s += w.seconds;
    if (w.executions == 0 || w.seconds <= 0.0) continue;
    const double rate = static_cast<double>(w.executions) / w.seconds;
    min_rate = min_rate == 0.0 ? rate : std::min(min_rate, rate);
    max_rate = std::max(max_rate, rate);
  }
  stats.worker_capacity_s += static_cast<double>(threads) * wall;
  if (min_rate > 0.0) stats.imbalance = std::max(stats.imbalance, max_rate / min_rate);

  // Scaling baseline: the same job on one worker.
  {
    const ScopedSpan span(rec, job_span.Id(), "explore",
                          "ParallelTestingEngine::Run(workers=1)", trial);
    const std::int64_t t0 = NowNs();
    const systest::explore::ParallelTestReport single =
        run(1, MetricsOn(job.cfg), job.cfg.coverage, nullptr);
    stats.single_wall_s += SecondsSince(t0);
    stats.single_execs += static_cast<double>(single.aggregate.executions);
  }

  // obs cost: alternating paired slices of the stateless job with the
  // metrics + coverage plane off and on; exploration is identical either
  // way, so the time ratio is the plane's cost.
  if (!tc.stateful) {
    constexpr int kPairs = 6;
    systest::TestConfig slice = tc;
    slice.iterations = std::max<std::uint64_t>(tc.iterations / 6, 1);
    for (int pair = 0; pair < kPairs; ++pair) {
      double seconds[2] = {0.0, 0.0};  // [off, on]
      for (int k = 0; k < 2; ++k) {
        const bool on = (k + pair) % 2 == 1;
        const ScopedSpan span(rec, job_span.Id(), "bench",
                              on ? "obs slice (metrics+coverage on)"
                                 : "obs slice (off)",
                              trial);
        std::unique_ptr<systest::obs::MetricsRegistry> registry;
        std::unique_ptr<systest::obs::CampaignMetrics> metrics;
        systest::explore::ParallelOptions options;
        options.threads = threads;
        if (on) {
          registry = std::make_unique<systest::obs::MetricsRegistry>();
          metrics = std::make_unique<systest::obs::CampaignMetrics>(*registry);
          options.metrics = metrics.get();
          options.coverage = true;
        }
        systest::explore::ParallelTestingEngine engine(slice, harness, options);
        const std::int64_t t0 = NowNs();
        (void)engine.Run();
        seconds[on ? 1 : 0] = SecondsSince(t0);
      }
      if (seconds[0] > 0.0) stats.obs_ratio.push_back(seconds[1] / seconds[0]);
    }
  }
  return r;
}

void Append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

void LayerStats::Merge(const LayerStats& o) {
  Append(resolve_ns, o.resolve_ns);
  harness_calls += o.harness_calls;
  harness_ns += o.harness_ns;
  Append(first_exec_ns, o.first_exec_ns);
  Append(exec_ns, o.exec_ns);
  executions += o.executions;
  serial_executions += o.serial_executions;
  recycled += o.recycled;
  steps += o.steps;
  serial_steps += o.serial_steps;
  faults += o.faults;
  runner_ns += o.runner_ns;
  decisions += o.decisions;
  decide_ns += o.decide_ns;
  prepares += o.prepares;
  prepare_ns += o.prepare_ns;
  inserts += o.inserts;
  timed_inserts += o.timed_inserts;
  insert_ns += o.insert_ns;
  insert_hits += o.insert_hits;
  stateful_executions += o.stateful_executions;
  pruned += o.pruned;
  compactions += o.compactions;
  bloom_fp += o.bloom_fp;
  run_probes += o.run_probes;
  Append(serialize_ns, o.serialize_ns);
  Append(deserialize_ns, o.deserialize_ns);
  Append(replay_ns, o.replay_ns);
  Append(ndc, o.ndc);
  corpus_adds += o.corpus_adds;
  corpus_accepted += o.corpus_accepted;
  corpus_add_ns += o.corpus_add_ns;
  corpus_entries = std::max(corpus_entries, o.corpus_entries);
  Append(corpus_save_ns, o.corpus_save_ns);
  Append(corpus_load_ns, o.corpus_load_ns);
  parallel_execs += o.parallel_execs;
  parallel_wall_s += o.parallel_wall_s;
  single_execs += o.single_execs;
  single_wall_s += o.single_wall_s;
  worker_busy_s += o.worker_busy_s;
  worker_capacity_s += o.worker_capacity_s;
  imbalance = std::max(imbalance, o.imbalance);
  shard_compactions += o.shard_compactions;
  Append(obs_ratio, o.obs_ratio);
}

std::string JobResult::Signature(bool parallel) const {
  std::string s = "executions=" + std::to_string(executions);
  if (parallel) return s;
  s += " steps=" + std::to_string(steps);
  s += " bug_iteration=" + std::to_string(bug_iteration);
  if (stateful) s += " distinct_states=" + std::to_string(distinct_states);
  return s;
}

JobResult RunUntraced(const Job& job) {
  if (job.fresh_corpus_dir) ClearDir(job.cfg.corpus_dir);
  const std::int64_t t0 = NowNs();
  api::SessionReport rep = api::TestSession(job.cfg).Run();
  JobResult r;
  r.wall_s = SecondsSince(t0);
  FillFromReport(r, rep.report);
  return r;
}

double ProbeSetup(const Job& job, std::uint64_t round,
                  const std::string& saved_corpus,
                  const std::string& scratch_dir) {
  api::SessionConfig cfg = job.cfg;
  // Probe seeds do not depend on the base seed: set-up time is a property
  // of the shape, not of the trials the base seed picks.
  cfg.seed = DeriveSeed(kProbeSeed, round);
  // One execution per worker: every worker's first execution is set-up.
  cfg.iterations = static_cast<std::uint64_t>(std::max(cfg.threads, 1));
  if (!cfg.corpus_dir.empty()) {
    ClearDir(scratch_dir);
    if (!saved_corpus.empty()) {
      std::error_code ec;
      fs::copy(saved_corpus, scratch_dir, fs::copy_options::recursive, ec);
      if (ec) {
        throw std::runtime_error("cannot copy corpus " + saved_corpus + ": " +
                                 ec.message());
      }
    }
    cfg.corpus_dir = scratch_dir;
  }
  FirstIteration first;
  const std::int64_t t0 = NowNs();
  api::TestSession session(cfg);
  session.AddObserver(&first);
  (void)session.Run();
  if (first.first_ns == 0) {
    throw std::runtime_error("set-up probe of " + job.label +
                             " completed no execution");
  }
  return static_cast<double>(first.first_ns - t0) / 1e9;
}

ReplayOutcome CheckWitness(const Job& job, const JobResult& result,
                           SpanRecorder* rec, std::uint32_t parent,
                           std::uint32_t trial) {
  ReplayOutcome out;
  Resolved resolved = Resolve(job);
  systest::TestConfig& tc = resolved.config;
  // No fault flags: the witness alone must carry its failure schedule.
  tc.max_crashes = 0;
  tc.max_restarts = 0;
  tc.drop_probability_den = 0;
  tc.max_duplications = 0;
  tc.max_partitions = 0;
  tc.fault_placement_points = 0;
  tc.stateful = false;
  tc.fingerprint_payloads = false;
  tc.corpus_mutation = false;
  tc.visited_spill_dir.clear();

  auto timed = [&](const char* name, std::int64_t& ns, auto&& fn) {
    const std::uint32_t id =
        rec != nullptr ? rec->Open(parent, "core.trace", name, trial) : 0;
    const std::int64_t t0 = NowNs();
    fn();
    ns = NowNs() - t0;
    if (rec != nullptr) rec->Close(id);
  };

  std::string text;
  timed("Trace::Serialize", out.serialize_ns,
        [&] { text = result.witness.Serialize(); });
  systest::Trace back;
  try {
    timed("Trace::Deserialize", out.deserialize_ns,
          [&] { back = systest::Trace::Deserialize(text); });
  } catch (const std::exception& e) {
    out.why = std::string("witness does not deserialize: ") + e.what();
    return out;
  }
  if (!(back == result.witness)) {
    out.why = "serialize/deserialize changed the witness";
    return out;
  }
  systest::TestReport replayed;
  timed("TestingEngine::Replay", out.replay_ns, [&] {
    systest::TestingEngine engine(tc, resolved.harness);
    replayed = engine.Replay(back);
  });
  if (!replayed.bug_found) {
    out.why = "replay did not reproduce the bug";
  } else if (replayed.bug_kind == systest::BugKind::kReplayDivergence) {
    out.why = "replay diverged: " + replayed.bug_message;
  } else if (replayed.bug_kind != result.bug_kind) {
    out.why = std::string("replay reproduced a ") +
              std::string(systest::ToString(replayed.bug_kind)) +
              " bug instead of a " +
              std::string(systest::ToString(result.bug_kind)) + " bug";
  } else {
    out.ok = true;
  }
  return out;
}

JobResult RunTraced(const Job& job, std::uint32_t trial, TracedContext& ctx) {
  if (job.cfg.threads > 1) return RunTracedParallel(job, trial, ctx);
  if (!job.stateless_twin) return RunTracedSerial(job, trial, ctx.rec, ctx.stats);
  LayerStats main_only;
  JobResult r = RunTracedSerial(job, trial, ctx.rec, main_only);
  Job twin = job;
  twin.label += "/stateless-twin";
  twin.cfg.stateful = false;
  twin.cfg.fingerprint_payloads = false;
  twin.cfg.max_visited.reset();
  twin.cfg.max_visited_hot.reset();
  (void)RunTracedSerial(twin, trial, ctx.rec, ctx.twin_stats);
  ctx.twin_main_stats.Merge(main_only);
  ctx.stats.Merge(main_only);
  return r;
}

}  // namespace perfbench
