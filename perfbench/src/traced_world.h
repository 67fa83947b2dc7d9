// The traced re-drive: one worker executes a workload's experiments through
// the library's public layer calls, in the order the campaign runner makes
// them, with a span around each call.
//
// TracedWorld mirrors campaign::WarmWorld (a long-lived deployment reset
// between experiments), its SnapshotCache (fault-free prefix snapshots for
// windowed faults) and CampaignRunner::run_prepared (apply, online checks,
// run_load, collect, checks). The copy exists only so that each layer call
// can be timed from outside the library; it must stay faithful, and the
// benchmark proves that it is by requiring every per-experiment
// fingerprint(), verdict_fingerprint() and execution path (snapshot path,
// prefix events skipped, early exit, requests) to equal the untraced
// runner's.
// If a library change makes the copy drift, the traced run fails instead
// of measuring a different program.
//
// traced_search() does the same for search::run_search.
//
// Not thread-safe; one traced world per thread.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/execution_context.h"
#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "control/load_driver.h"
#include "control/online.h"
#include "control/recipe.h"
#include "control/rule_cache.h"
#include "search/search.h"
#include "sim/simulation.h"
#include "sim/snapshot.h"
#include "stats.h"
#include "tracer.h"

namespace perfbench {

class TracedWorld {
 public:
  // `ctx` lends the event and memory pools (as a campaign worker's context
  // does); `tracer` and `counts` receive spans and layer counters.
  TracedWorld(gremlin::campaign::AppSpec app,
              gremlin::campaign::ExecutionContext* ctx, Tracer* tracer,
              LayerCounts* counts);

  TracedWorld(const TracedWorld&) = delete;
  TracedWorld& operator=(const TracedWorld&) = delete;

  // As campaign::WarmWorld::run.
  gremlin::campaign::ExperimentResult run(
      const gremlin::campaign::Experiment& experiment,
      const gremlin::campaign::ExecOptions& exec, int32_t experiment_id);

  gremlin::sim::Simulation* simulation() { return sim_.get(); }
  const gremlin::control::RuleCache& rule_cache() const { return rule_cache_; }

 private:
  struct Prefix {
    std::string key;
    gremlin::TimePoint t_snap{};
    std::unique_ptr<gremlin::control::LoadDriver> injector;
    gremlin::control::LoadResult prefix_result;
    std::vector<bool> response_tape;
    uint64_t events_at_snapshot = 0;
    gremlin::sim::SimSnapshot snap;
  };

  std::optional<gremlin::campaign::ExperimentResult> run_from_snapshot(
      const gremlin::campaign::Experiment& experiment,
      const gremlin::campaign::ExecOptions& exec);
  gremlin::campaign::ExperimentResult run_prepared(
      const gremlin::campaign::Experiment& experiment,
      const gremlin::campaign::ExecOptions& exec);
  // The part both paths share once faults are applied: online checks wired
  // to records and responses, the load (`run_load` binds the response
  // observer and runs the simulation into `load`), teardown (`unbind` drops
  // the observer), collect and checks. As the tail of run_prepared and of
  // SnapshotCache::run.
  gremlin::campaign::ExperimentResult run_and_check(
      const gremlin::campaign::Experiment& experiment,
      const gremlin::campaign::ExecOptions& exec,
      gremlin::control::TestSession* session,
      gremlin::control::OnlineChecker* online, bool use_online,
      bool start_collector, gremlin::campaign::ExperimentResult result,
      gremlin::control::LoadResult load,
      const std::function<void(gremlin::control::LoadResult*,
                               std::function<void(bool)>)>& run_load,
      const std::function<void()>& unbind);
  std::string resolve_target(const gremlin::campaign::Experiment& e) const;
  void count_after_run(const gremlin::campaign::ExperimentResult& result);

  gremlin::campaign::AppSpec app_;
  gremlin::campaign::ExecutionContext* ctx_;
  Tracer* tracer_;
  LayerCounts* counts_;
  std::unique_ptr<gremlin::sim::Simulation> sim_;
  gremlin::topology::AppGraph graph_;
  gremlin::control::RuleCache rule_cache_;
  // After sim_, so destroyed first: saved events pin request-path objects
  // whose destructors unlink from the simulation.
  std::vector<std::unique_ptr<Prefix>> prefixes_;
  uint64_t offers_ = 0;  // records offered to online checks, this run
};

// As search::run_search, with spans around each pipeline stage and around
// every layer call of the baseline and the shrink probes.
gremlin::search::SearchOutcome traced_search(
    const gremlin::campaign::AppSpec& app,
    const gremlin::search::SearchOptions& options, Tracer* tracer,
    LayerCounts* counts);

}  // namespace perfbench
