#include "traced_world.h"

#include <chrono>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "control/collector.h"
#include "control/online.h"
#include "control/recipe.h"
#include "search/pruner.h"
#include "search/shrinker.h"
#include "sim/sidecar.h"
#include "workloads.h"

namespace perfbench {

namespace gc = gremlin::campaign;
namespace gctl = gremlin::control;
namespace gs = gremlin::search;
using gremlin::Duration;
using gremlin::TimePoint;

namespace {

constexpr Duration kTick = Duration(1);

void append_load_key(std::string* key, const gctl::LoadOptions& load) {
  *key += std::to_string(load.count);
  *key += '|';
  *key += std::to_string(load.gap.count());
  *key += '|';
  *key += load.id_prefix;
  *key += '|';
  *key += load.uri;
  *key += '|';
  *key += load.method;
  *key += '|';
  *key += load.body;
  *key += '|';
  *key += load.closed_loop ? '1' : '0';
  *key += '|';
  *key += std::to_string(load.horizon.count());
  *key += '|';
}

uint64_t rule_matches(gremlin::sim::Simulation* sim) {
  uint64_t total = 0;
  for (const auto& agent : sim->deployment().all_agents()) {
    if (auto* a = dynamic_cast<gremlin::sim::SimAgent*>(agent.get())) {
      total += a->engine().total_matches();
    }
  }
  return total;
}

// Adds the experiment's checks to `online`; true when they run online
// (early exit on, and every check decides incrementally).
bool add_online_checks(const gc::Experiment& experiment,
                       const gc::ExecOptions& exec,
                       const gremlin::topology::AppGraph* graph,
                       gctl::OnlineChecker* online) {
  if (!exec.early_exit || experiment.checks.empty()) return false;
  for (const auto& spec : experiment.checks) {
    online->add(spec.incremental(graph, experiment.load.count));
  }
  return online->all_incremental();
}

}  // namespace

TracedWorld::TracedWorld(gc::AppSpec app, gc::ExecutionContext* ctx,
                         Tracer* tracer, LayerCounts* counts)
    : app_(std::move(app)), ctx_(ctx), tracer_(tracer), counts_(counts) {}

std::string TracedWorld::resolve_target(const gc::Experiment& e) const {
  if (!e.target.empty()) return e.target;
  for (const auto& entry : graph_.entry_points()) {
    if (entry != e.client) return entry;
  }
  for (const auto& edge : graph_.edges()) {
    if (edge.src == e.client) return edge.dst;
  }
  return {};
}

void TracedWorld::count_after_run(const gc::ExperimentResult& result) {
  Tracer::Scope span(tracer_, "trace.counters");
  ++counts_->experiments;
  if (result.early_terminated) ++counts_->early_terminated;
  counts_->rules_installed += result.rules_installed;
  counts_->online_offers += offers_;
  counts_->rule_matches += rule_matches(sim_.get());
  const auto& store = sim_->log_store();
  counts_->records_appended += store.size() + store.dropped();
  counts_->records_dropped += store.dropped();
}

gc::ExperimentResult TracedWorld::run(const gc::Experiment& experiment,
                                      const gc::ExecOptions& exec,
                                      int32_t experiment_id) {
  Tracer::Scope root(tracer_, "campaign.experiment", experiment_id);
  if (experiment.custom || !app_.reusable) {
    Tracer::Scope span(tracer_, "campaign.cold_fallback");
    return gc::CampaignRunner::run_one(experiment, exec);
  }
  offers_ = 0;
  const bool fresh = sim_ == nullptr;
  if (fresh) {
    Tracer::Scope span(tracer_, "campaign.world_build");
    gremlin::sim::SimulationConfig cfg;
    cfg.seed = experiment.seed;
    cfg.event_pool = &ctx_->event_pool();
    cfg.memory = &ctx_->memory();
    cfg.use_timer_wheel = exec.use_timer_wheel;
    sim_ = std::make_unique<gremlin::sim::Simulation>(cfg);
    graph_ = app_.instantiate(sim_.get());
  }
  gc::ExperimentResult result;
  bool done = false;
  if (exec.use_snapshots) {
    if (auto r = run_from_snapshot(experiment, exec)) {
      result = std::move(*r);
      done = true;
    } else {
      Tracer::Scope span(tracer_, "campaign.reset");
      sim_->reset(experiment.seed);
    }
  } else if (!fresh) {
    Tracer::Scope span(tracer_, "campaign.reset");
    sim_->reset(experiment.seed);
  }
  if (!done) result = run_prepared(experiment, exec);
  count_after_run(result);
  return result;
}

std::optional<gc::ExperimentResult> TracedWorld::run_from_snapshot(
    const gc::Experiment& experiment, const gc::ExecOptions& exec) {
  gremlin::sim::Simulation* sim = sim_.get();
  const gremlin::topology::AppGraph* graph = &graph_;
  Prefix* entry = nullptr;
  bool rebuild = false;
  {
    Tracer::Scope span(tracer_, "campaign.snapshot_lookup");
    if (experiment.custom || experiment.failures.empty()) return std::nullopt;
    Duration min_after = experiment.failures.front().after;
    for (const auto& spec : experiment.failures) {
      if (spec.kind == gctl::FailureSpec::Kind::kInstanceCrash) {
        return std::nullopt;
      }
      if (spec.after < min_after) min_after = spec.after;
    }
    if (min_after < kTick) return std::nullopt;
    if (experiment.load.horizon > gremlin::kDurationZero &&
        min_after > experiment.load.horizon) {
      return std::nullopt;
    }
    const std::string target = resolve_target(experiment);
    if (target.empty()) return std::nullopt;

    const TimePoint t_act = TimePoint{} + min_after;
    const TimePoint t_snap = t_act - kTick;
    std::string key = std::to_string(experiment.seed);
    key += '|';
    append_load_key(&key, experiment.load);
    key += experiment.client;
    key += '|';
    key += target;
    for (auto& e : prefixes_) {
      if (e->key == key) {
        entry = e.get();
        break;
      }
    }
    rebuild = entry == nullptr || entry->t_snap >= t_act;
    if (rebuild) {
      Tracer::Scope build(tracer_, "campaign.snapshot");
      if (entry == nullptr) {
        // SnapshotCache keeps at most 4 entries, evicting the oldest.
        if (prefixes_.size() >= 4) prefixes_.erase(prefixes_.begin());
        prefixes_.push_back(std::make_unique<Prefix>());
        entry = prefixes_.back().get();
        entry->key = std::move(key);
      }
      ++counts_->snapshot_misses;
      entry->snap = gremlin::sim::SimSnapshot{};
      entry->response_tape.clear();
      entry->prefix_result = gctl::LoadResult{};
      {
        Tracer::Scope reset(tracer_, "campaign.reset");
        sim->reset(experiment.seed);
      }
      sim->begin_snapshot_capture();
      entry->injector = std::make_unique<gctl::LoadDriver>(
          sim, experiment.client, target, experiment.load);
      entry->prefix_result.latencies.resize(experiment.load.count);
      entry->prefix_result.statuses.resize(experiment.load.count);
      entry->injector->bind(&entry->prefix_result,
                          [tape = &entry->response_tape](bool failed) {
                            tape->push_back(failed);
                          });
      entry->injector->schedule_all();
      {
        Tracer::Scope prefix(tracer_, "sim.prefix_run");
        sim->run_until(t_snap);
      }
      entry->events_at_snapshot = sim->events_processed();
      entry->t_snap = t_snap;
      {
        Tracer::Scope capture(tracer_, "campaign.snapshot_capture");
        entry->snap = sim->snapshot();
      }
      sim->end_snapshot_capture();
      entry->injector->bind(nullptr, {});
    }
  }

  gctl::OnlineChecker online;
  const bool use_online = add_online_checks(experiment, exec, graph, &online);
  if (use_online) {
    for (const bool failed : entry->response_tape) {
      online.on_user_response(failed);
      if (online.all_decided()) return std::nullopt;
    }
  }
  if (!rebuild) {
    ++counts_->snapshot_hits;
    counts_->prefix_events_skipped += entry->events_at_snapshot;
  }

  gc::ExperimentResult result;
  result.id = experiment.id;
  result.seed = experiment.seed;
  result.snapshot_path = rebuild ? 1 : 2;
  if (!rebuild) result.prefix_events_skipped = entry->events_at_snapshot;

  {
    Tracer::Scope span(tracer_, "campaign.restore");
    sim->restore(entry->snap);
  }
  gctl::TestSession session(sim, graph);
  for (const auto& spec : experiment.failures) {
    Tracer::Scope span(tracer_, "control.apply");
    auto installed = session.apply(spec, &rule_cache_);
    if (!installed.ok()) {
      result.error = "apply " + std::string(spec.kind_name()) + ": " +
                     installed.error().message;
      return result;
    }
    result.rules_installed += installed.value();
  }

  return run_and_check(
      experiment, exec, &session, &online, use_online,
      /*start_collector=*/false, std::move(result), entry->prefix_result,
      [&](gctl::LoadResult* load, std::function<void(bool)> observer) {
        entry->injector->bind(load, std::move(observer));
        if (experiment.load.horizon > gremlin::kDurationZero) {
          sim->run_until(TimePoint{} + experiment.load.horizon);
        } else {
          sim->run();
        }
        load->stopped_early = sim->stop_requested();
      },
      [&] { entry->injector->bind(nullptr, {}); });
}

gc::ExperimentResult TracedWorld::run_prepared(const gc::Experiment& experiment,
                                               const gc::ExecOptions& exec) {
  gremlin::sim::Simulation& sim = *sim_;
  const gremlin::topology::AppGraph* graph = &graph_;
  gc::ExperimentResult result;
  result.id = experiment.id;
  result.seed = experiment.seed;
  gctl::TestSession session(&sim, graph);

  for (const auto& spec : experiment.failures) {
    Tracer::Scope span(tracer_, "control.apply");
    auto installed = session.apply(spec, &rule_cache_);
    if (!installed.ok()) {
      result.error = "apply " + std::string(spec.kind_name()) + ": " +
                     installed.error().message;
      return result;
    }
    result.rules_installed += installed.value();
  }

  const std::string target = resolve_target(experiment);
  if (target.empty()) {
    result.error = "no load target: graph has no entry point";
    return result;
  }

  gctl::OnlineChecker online;
  const bool use_online = add_online_checks(experiment, exec, graph, &online);
  return run_and_check(
      experiment, exec, &session, &online, use_online,
      /*start_collector=*/true, std::move(result), gctl::LoadResult{},
      [&](gctl::LoadResult* load, std::function<void(bool)> observer) {
        session.set_response_observer(std::move(observer));
        *load = session.run_load(experiment.client, target, experiment.load);
      },
      [&] { session.set_response_observer(nullptr); });
}

gc::ExperimentResult TracedWorld::run_and_check(
    const gc::Experiment& experiment, const gc::ExecOptions& exec,
    gctl::TestSession* session, gctl::OnlineChecker* online, bool use_online,
    bool start_collector, gc::ExperimentResult result, gctl::LoadResult load,
    const std::function<void(gctl::LoadResult*, std::function<void(bool)>)>&
        run_load,
    const std::function<void()>& unbind) {
  gremlin::sim::Simulation* sim = sim_.get();
  const bool wants_records = use_online && online->wants_records();
  const bool suppress_records =
      use_online && !exec.preserve_log && !wants_records;
  const bool bounded =
      wants_records && !exec.preserve_log && exec.retention_limit > 0;
  const bool stream = wants_records;

  std::optional<gctl::SimStreamCollector> collector;
  if (stream) {
    collector.emplace(sim, gctl::SimStreamCollector::Mode::kAppendToStore,
                      exec.stream_interval);
  }
  if (suppress_records) sim->set_recording(false);
  if (wants_records) {
    sim->log_store().set_observer(
        [this, online, sim](const gremlin::logstore::LogRecord& record) {
          ++offers_;
          online->offer(record);
          if (online->all_decided()) sim->request_stop();
        });
    if (bounded) sim->log_store().set_retention_limit(exec.retention_limit);
  }
  std::function<void(bool)> observer;
  if (use_online) {
    observer = [online, sim](bool failed) {
      online->on_user_response(failed);
      if (online->all_decided()) sim->request_stop();
    };
    if (stream && start_collector) collector->start();
  }

  {
    Tracer::Scope span(tracer_, "sim.run_load");
    const uint64_t before = sim->events_processed();
    run_load(&load, std::move(observer));
    counts_->events += sim->events_processed() - before;
  }
  result.requests = load.total();
  result.failures = load.failures;
  result.early_terminated = load.stopped_early;
  if (exec.keep_latencies) {
    result.latencies = load.latencies;
    result.statuses = load.statuses;
  }

  if (stream) {
    Tracer::Scope span(tracer_, "control.collect");
    collector->drain_now();
  }
  if (wants_records) {
    sim->log_store().set_observer(nullptr);
    sim->log_store().set_retention_limit(0);
  }
  if (suppress_records) sim->set_recording(true);
  sim->cancel_pending();
  unbind();

  const bool skip_collect = use_online && !exec.preserve_log;
  if (!skip_collect) {
    Tracer::Scope span(tracer_, "control.collect");
    auto collected = session->collect();
    if (!collected.ok()) {
      result.error = "collect: " + collected.error().message;
      return result;
    }
  }

  Tracer::Scope span(tracer_, "control.check");
  if (use_online) {
    const gctl::LoadSummary summary{load.total(), load.failures};
    for (size_t i = 0; i < online->size(); ++i) {
      gctl::CheckResult outcome = online->check(i)->finalize(summary);
      if (outcome.passed) ++result.checks_passed;
      result.checks.push_back(std::move(outcome));
    }
  } else {
    const gctl::AssertionChecker checker = session->checker();
    for (const auto& check : experiment.checks) {
      gctl::CheckResult outcome = check.evaluate(checker, load);
      if (outcome.passed) ++result.checks_passed;
      result.checks.push_back(std::move(outcome));
    }
  }
  result.ok = true;
  return result;
}

namespace {

gc::Experiment search_experiment(const gc::AppSpec& app,
                                 const std::vector<gs::FaultPoint>& points,
                                 const gs::Combination& combo,
                                 const gs::SearchOptions& options,
                                 const std::string& target,
                                 const std::vector<gc::CheckSpec>& checks) {
  gc::Experiment e;
  e.id = combo.label;
  e.app = app;
  for (const size_t index : combo.points) {
    e.failures.push_back(points[index].spec);
  }
  e.client = options.client;
  e.target = target;
  e.load = options.load;
  e.checks = checks;
  e.seed = options.seed;
  return e;
}

}  // namespace

gs::SearchOutcome traced_search(const gc::AppSpec& app,
                                const gs::SearchOptions& options,
                                Tracer* tracer, LayerCounts* counts) {
  Tracer::Scope root(tracer, "search.search");
  const auto start = std::chrono::steady_clock::now();
  gs::SearchOutcome outcome;
  outcome.app = app.name;
  outcome.seed = options.seed;
  ++counts->searches;

  gremlin::topology::AppGraph graph;
  std::string target;
  std::vector<gc::CheckSpec> checks = options.checks;
  std::vector<gs::FaultPoint> points;
  std::vector<gs::Combination> combos;
  {
    Tracer::Scope span(tracer, "search.generate");
    graph = app.probe_graph();
    target = search_target(graph, options);
    if (target.empty()) {
      outcome.error = "no load target: graph has no entry point";
      return outcome;
    }
    if (checks.empty()) checks.push_back(gc::CheckSpec::max_user_failures(0));
    const std::set<std::string> excluded = {options.client, target};
    points = gs::enumerate_fault_points(graph, options.generator, excluded);
    size_t truncated = 0;
    combos = gs::generate_combinations(points, options.generator, &truncated);
    outcome.truncated = truncated;
  }
  outcome.fault_points = points.size();
  outcome.generated = combos.size();
  counts->combinations_generated += combos.size();

  // The search thread's own context and a traced stand-in for the warm
  // world run_search takes from it; the baseline and every shrink probe
  // run there.
  gc::ExecutionContext search_ctx(options.warm);
  gremlin::ScopedShardSymbols bind_symbols(&search_ctx.symbols());
  TracedWorld world(app, &search_ctx, tracer, counts);
  int32_t next_id = 0;

  gs::Baseline baseline;
  {
    Tracer::Scope span(tracer, "search.baseline");
    gc::Experiment clean = search_experiment(app, points, gs::Combination{},
                                             options, target, checks);
    clean.id = "baseline";
    gc::ExecOptions exec;
    exec.keep_latencies = false;
    exec.early_exit = false;
    exec.preserve_log = true;
    baseline.result = world.run(clean, exec, next_id++);
    Tracer::Scope cg(tracer, "logstore.call_graph");
    baseline.call_graph = world.simulation()->log_store().call_graph();
  }
  search_ctx.merge();
  outcome.baseline_passed = baseline.result.passed();
  outcome.baseline_requests = baseline.result.requests;
  outcome.observed_edges = baseline.call_graph.edges.size();
  outcome.observed_paths = baseline.call_graph.paths.size();
  if (!baseline.result.ok) {
    outcome.error = "baseline run failed: " + baseline.result.error;
    return outcome;
  }
  if (!outcome.baseline_passed) {
    outcome.error =
        "baseline violates its own checks (" +
        gctl::failure_signature(baseline.result.checks) +
        "); fix the app or the checks before searching for fault-induced "
        "failures";
    return outcome;
  }

  outcome.combos.reserve(combos.size());
  std::vector<gc::Experiment> experiments;
  std::vector<size_t> experiment_combo;
  {
    Tracer::Scope span(tracer, "search.prune");
    for (const gs::Combination& combo : combos) {
      gs::ComboOutcome row;
      row.label = combo.label;
      row.k = combo.points.size();
      if (options.prune) {
        const gs::PruneDecision decision =
            gs::decide(points, combo, baseline.call_graph);
        row.verdict = decision.verdict;
        row.prune_detail = decision.detail;
      }
      if (row.verdict == gs::PruneVerdict::kKeep) {
        experiments.push_back(
            search_experiment(app, points, combo, options, target, checks));
        experiment_combo.push_back(outcome.combos.size());
      } else {
        ++outcome.pruned;
        if (row.verdict == gs::PruneVerdict::kUnreachableFault) {
          ++outcome.pruned_unreachable;
        } else {
          ++outcome.pruned_no_shared_path;
        }
      }
      outcome.combos.push_back(std::move(row));
    }
  }
  counts->combinations_pruned += outcome.pruned;

  gc::CampaignResult campaign;
  {
    Tracer::Scope span(tracer, "search.campaign");
    gc::RunnerOptions runner_options;
    runner_options.threads = options.threads;
    runner_options.procs = options.procs;
    runner_options.keep_latencies = false;
    runner_options.early_exit = options.early_exit;
    runner_options.warm_worlds = options.warm;
    campaign = gc::CampaignRunner(runner_options).run(experiments);
  }
  outcome.threads = campaign.threads;
  outcome.procs = campaign.procs;
  outcome.ran = campaign.experiments.size();

  std::map<std::string, size_t> finding_index;
  for (size_t i = 0; i < campaign.experiments.size(); ++i) {
    const gc::ExperimentResult& r = campaign.experiments[i];
    gs::ComboOutcome& row = outcome.combos[experiment_combo[i]];
    row.ran = true;
    if (!r.ok) {
      row.error = true;
      ++outcome.errors;
      continue;
    }
    if (r.passed()) {
      row.passed = true;
      ++outcome.passed;
      continue;
    }
    ++outcome.failed;

    gs::Finding finding;
    finding.combination = r.id;
    finding.seed = r.seed;
    finding.faults_before = experiments[i].failures.size();
    if (options.shrink) {
      Tracer::Scope span(tracer, "search.shrink");
      gc::ExecOptions shrink_exec;
      shrink_exec.keep_latencies = false;
      shrink_exec.early_exit = options.early_exit;
      gs::ShrinkResult shrunk = gs::shrink(
          experiments[i],
          [&](const gc::Experiment& e) {
            return world.run(e, shrink_exec, next_id++);
          },
          options.shrink_options);
      outcome.shrink_runs += shrunk.runs;
      finding.flaky = shrunk.flaky;
      finding.signature = shrunk.signature;
      finding.shrink_runs = shrunk.runs;
      finding.load_count = shrunk.minimal.load.count;
      finding.faults = shrunk.minimal.failures;
    } else {
      finding.signature = gctl::failure_signature(r.checks);
      finding.load_count = experiments[i].load.count;
      finding.faults = experiments[i].failures;
    }
    std::string minimal;
    for (const auto& spec : finding.faults) {
      if (!minimal.empty()) minimal += " + ";
      minimal += gs::describe(spec);
    }
    finding.minimal =
        finding.flaky ? "(flaky) " + finding.combination : minimal;

    const auto it = finding_index.find(finding.minimal);
    if (it != finding_index.end()) {
      ++outcome.findings[it->second].occurrences;
    } else {
      finding_index.emplace(finding.minimal, outcome.findings.size());
      outcome.findings.push_back(std::move(finding));
    }
  }
  counts->shrink_runs += outcome.shrink_runs;
  counts->findings += outcome.findings.size();
  counts->rule_cache_hits += world.rule_cache().hits();
  counts->rule_cache_misses += world.rule_cache().misses();

  outcome.ok = true;
  outcome.wall_clock = std::chrono::duration_cast<Duration>(
      std::chrono::steady_clock::now() - start);
  return outcome;
}

}  // namespace perfbench
