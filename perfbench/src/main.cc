// Gremlin-CPP benchmark program.
//
//   gremlin_perfbench --workload <sweep_patterns|windowed_mega|search_shrink>
//                     [--seed N] [--seconds S] [--trace 0|1]
//                     [--trace-out FILE] [--git-commit SHA]
//                     [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics: min(nproc - 1, 4) workers run the
// workload for S seconds of wall clock, timed from outside the library.
// --trace 1 is the separate traced run: one worker alternates an untraced
// pass and a traced re-drive (traced_world.h) over the same experiment
// lists and reports per-layer metrics; the trace's spans are written to
// --trace-out at exit.
//
// Every run checks its outputs (samples against the cold-construction
// oracle, pinned results at the default seed, traced-vs-untraced
// fingerprints), prints one "metric <name> <value> <unit>" line per metric
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. Exit status is 0 only when the outputs are correct.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/execution_context.h"
#include "report/campaign_report.h"
#include "report/search_report.h"
#include "stats.h"
#include "traced_world.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace gc = gremlin::campaign;
namespace gs = gremlin::search;

// setup_s is the median of kSetupSamples samples. A sample repeats the
// set-up until kSetupSampleS has passed and divides by the repeats, so it is
// long enough to time even where one set-up takes a tenth of a millisecond.
constexpr int kSetupSamples = 21;
constexpr double kSetupSampleS = 0.025;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 30;
  int trace = 0;
  std::string trace_out;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count or base, printed but not in the JSON
};

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void problem(const std::string& what) { problems.push_back(what); }
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Times the workload's set-up for setup_s. The samples are spread over the
// run instead of taken in one burst before it, so that outside load in one
// part of the run does not decide the figure: one sample before the first
// runner call, one each time the run passes the next of kSetupSamples
// evenly spaced marks, and the missing ones at the end. Each sample builds
// a fresh copy of the set-up that nothing else uses.
class SetupSampler {
 public:
  SetupSampler(std::function<void()> setup, double run_seconds)
      : setup_(std::move(setup)), every_s_(run_seconds / kSetupSamples) {
    sample();
  }

  // Takes a sample if the run has passed the next mark; never blocks
  // behind another thread's sample.
  void maybe_sample(Clock::time_point run_start) {
    std::unique_lock lock(mu_, std::try_to_lock);
    if (!lock.owns_lock() || per_setup_s_.size() >= kSetupSamples) return;
    if (seconds_since(run_start) < every_s_ * per_setup_s_.size()) return;
    sample();
  }

  // The samples, after topping them up to kSetupSamples.
  std::vector<double> finish() {
    std::lock_guard lock(mu_);
    while (per_setup_s_.size() < kSetupSamples) sample();
    return per_setup_s_;
  }

 private:
  void sample() {
    int repeats = 0;
    double elapsed = 0;
    const auto t0 = Clock::now();
    do {
      setup_();
      ++repeats;
    } while ((elapsed = seconds_since(t0)) < kSetupSampleS);
    per_setup_s_.push_back(elapsed / repeats);
  }

  std::function<void()> setup_;
  double every_s_;
  std::mutex mu_;
  std::vector<double> per_setup_s_;
};

std::string setup_note(const std::vector<double>& per_setup_s) {
  return "median of " + std::to_string(per_setup_s.size()) +
         " samples of >= " + std::to_string(int(kSetupSampleS * 1e3)) +
         " ms of set-ups, spread over the run";
}

// What the traced run must reproduce of one experiment: its result and
// verdict fingerprints and how it executed (snapshot path, prefix events
// skipped, early exit, requests), none of which the fingerprints cover.
std::string result_key(const gc::ExperimentResult& r) {
  return r.fingerprint() + r.verdict_fingerprint() + "path=" +
         std::to_string(r.snapshot_path) +
         " skipped=" + std::to_string(r.prefix_events_skipped) +
         " early=" + (r.early_terminated ? "1" : "0") +
         " requests=" + std::to_string(r.requests);
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a->workload = value;
    } else if (flag == "--seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a->trace = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      a->trace_out = value;
    } else if (flag == "--git-commit") {
      a->git_commit = value;
    } else if (flag == "--source-digest") {
      a->source_digest = value;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// --- timed runs (--trace 0) ---------------------------------------------

// The cold-construction oracle for one experiment result: fingerprint()
// against a cold run with the same execution options, verdict_fingerprint()
// against a cold full run (no early exit).
void check_against_oracle(const gc::Experiment& e,
                          const gc::ExperimentResult& r, Outcome* out,
                          uint64_t* mismatches) {
  gc::ExecOptions same;  // what CampaignRunner::run passes by default
  gc::ExecOptions full;
  full.early_exit = false;
  const bool fp = gc::CampaignRunner::run_one(e, same).fingerprint() ==
                  r.fingerprint();
  const bool vfp = gc::CampaignRunner::run_one(e, full).verdict_fingerprint() ==
                   r.verdict_fingerprint();
  if (!fp || !vfp) {
    ++*mismatches;
    out->problem("oracle mismatch on '" + e.id + "' (" +
                 (fp ? "" : "fingerprint ") + (vfp ? "" : "verdict") + ")");
  }
}

Outcome timed_sweep(Workload w, const Args& a, int workers) {
  Outcome out;
  const SweepSetup setup = setup_sweep(w, a.seed);
  SweepSetup scratch;
  SetupSampler setup_sampler([&] { scratch = setup_sweep(w, a.seed); },
                             a.seconds);

  // Per-experiment host time: the interval between consecutive on_result
  // calls on one worker thread (the runner serializes the calls).
  std::unordered_map<std::thread::id, Clock::time_point> last_result;
  std::vector<double> experiment_ms;
  gc::RunnerOptions options;
  options.threads = workers;
  options.on_result = [&](const gc::ExperimentResult&) {
    const auto now = Clock::now();
    const auto [it, first] =
        last_result.try_emplace(std::this_thread::get_id(), now);
    if (!first) {
      experiment_ms.push_back(
          std::chrono::duration<double, std::milli>(now - it->second).count());
      it->second = now;
    }
  };
  const gc::CampaignRunner runner(options);

  // A few untimed experiments let lazy set-up and the allocator settle.
  std::vector<gc::Experiment> warm_up = sweep_batch(setup, a.seed);
  warm_up.resize(std::min<size_t>(warm_up.size(), 4 * workers));
  runner.run(warm_up);
  experiment_ms.clear();

  std::vector<double> sweep_s;
  uint64_t experiments = 0;
  uint64_t errors = 0;
  std::vector<gc::Experiment> first_list, last_list;
  gc::CampaignResult first, last;
  const auto start = Clock::now();
  for (uint64_t b = 0;; ++b) {
    std::vector<gc::Experiment> list = sweep_batch(setup, a.seed + b);
    last_result.clear();
    const auto t0 = Clock::now();
    gc::CampaignResult result = runner.run(list);
    sweep_s.push_back(seconds_since(t0));
    experiments += list.size();
    errors += result.errors();
    if (b == 0) {
      first = std::move(result);
      first_list = std::move(list);
    } else {
      last = std::move(result);
      last_list = std::move(list);
    }
    setup_sampler.maybe_sample(start);
    if (seconds_since(start) >= a.seconds) break;
  }
  const std::vector<double> setup_s = setup_sampler.finish();
  const double rss = peak_rss_mb();
  // Throughput is the median of the per-sweep rates: a burst of
  // interference from outside slows a few sweeps, not the median.
  std::vector<double> sweep_rate;
  for (const double s : sweep_s) {
    sweep_rate.push_back(static_cast<double>(setup.base.size()) / s);
  }

  // Correctness, outside the timed region: an evenly spaced sample of the
  // first and last batch against the oracle, and the pinned counts.
  const size_t per_batch = w == Workload::kSweepPatterns ? 8 : 3;
  uint64_t mismatches = 0;
  size_t sampled = 0;
  auto sample = [&](const std::vector<gc::Experiment>& list,
                    const gc::CampaignResult& result) {
    for (size_t k = 0; k < per_batch && !list.empty(); ++k) {
      const size_t i = k * list.size() / per_batch;
      check_against_oracle(list[i], result.experiments[i], &out, &mismatches);
      ++sampled;
    }
  };
  sample(first_list, first);
  sample(last_list, last);
  std::printf("check oracle: %zu sampled experiments, %" PRIu64
              " mismatches\n",
              sampled, mismatches);
  if (a.seed == kDefaultSeed) {
    const Pinned pin = pinned(w);
    std::printf("check pinned: passed %zu (want %zu), failed %zu (want %zu)\n",
                first.passed(), pin.passed, first.failed(), pin.failed);
    if (first.passed() != pin.passed || first.failed() != pin.failed) {
      out.problem("pass/fail counts differ from the pinned default-seed "
                  "result");
    }
  }

  out.attempted = experiments;
  out.failed = errors + mismatches;
  const size_t n = experiment_ms.size();
  if (reportable_percentile(n) < 90) {
    std::printf("warning: %zu samples leave fewer than 10 beyond p90\n", n);
  }
  const std::string samples = "n=" + std::to_string(n);
  out.metrics = {
      {"setup_s", median(setup_s), "s", setup_note(setup_s)},
      {"experiments_per_s", median(sweep_rate), "1/s",
       "median over " + std::to_string(sweep_s.size()) + " sweeps, " +
           std::to_string(experiments) + " experiments"},
      {"experiment_ms_p50", percentile(experiment_ms, 50), "ms", samples},
      {"experiment_ms_p90", percentile(experiment_ms, 90), "ms", samples},
      {"search_s_p50", median(sweep_s), "s",
       "one sweep to all verdicts, n=" + std::to_string(sweep_s.size())},
      {"peak_rss_mb", rss, "MB", "whole process"},
  };
  return out;
}

Outcome timed_search(const Args& a, int workers) {
  Outcome out;
  const SearchSetup setup = setup_search(a.seed);
  SearchSetup scratch;
  SetupSampler setup_sampler([&] { scratch = setup_search(a.seed); },
                             a.seconds);

  // One untimed search lets lazy set-up and the allocator settle.
  gs::run_search(setup.app, search_options(setup, a.seed));

  // Workers pull the next seed until the deadline; searches that started
  // before it finish and count.
  std::mutex mu;
  std::vector<double> search_s, experiment_ms;
  uint64_t runs = 0;
  uint64_t errors = 0;
  gs::SearchOutcome first;
  std::atomic<uint64_t> next{0};
  const auto start = Clock::now();
  auto worker = [&] {
    for (;;) {
      const uint64_t i = next.fetch_add(1);
      if (i > 0 && seconds_since(start) >= a.seconds) return;
      const auto t0 = Clock::now();
      gs::SearchOutcome o =
          gs::run_search(setup.app, search_options(setup, a.seed + i));
      const double s = seconds_since(t0);
      const uint64_t n = 1 + o.ran + o.shrink_runs;  // baseline included
      std::unique_lock lock(mu);
      search_s.push_back(s);
      experiment_ms.push_back(s * 1e3 / static_cast<double>(n));
      runs += n;
      if (!o.ok || o.generated != setup.combinations) ++errors;
      if (i == 0) first = std::move(o);
      lock.unlock();
      setup_sampler.maybe_sample(start);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < workers; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  const double wall = seconds_since(start);
  const std::vector<double> setup_s = setup_sampler.finish();
  const double rss = peak_rss_mb();

  // Correctness: the base-seed search against a cold, full-run search (the
  // oracle), and the pinned finding set at the default seed.
  gs::SearchOptions oracle_options = search_options(setup, a.seed);
  oracle_options.warm = false;
  oracle_options.early_exit = false;
  const gs::SearchOutcome oracle = gs::run_search(setup.app, oracle_options);
  uint64_t mismatches = 0;
  if (search_fingerprint(oracle) != search_fingerprint(first)) {
    ++mismatches;
    out.problem("search result differs from the cold full-run oracle");
  }
  std::printf("check oracle: base-seed search vs cold full-run search: %s\n",
              mismatches == 0 ? "equal" : "DIFFERENT");
  const std::string set_digest = digest(finding_set(first));
  if (a.seed == kDefaultSeed) {
    const Pinned pin = pinned(Workload::kSearchShrink);
    std::printf("check pinned: findings %zu (want %zu), digest %s (want %s)\n",
                first.findings.size(), pin.findings, set_digest.c_str(),
                pin.finding_digest);
    if (first.findings.size() != pin.findings ||
        set_digest != pin.finding_digest) {
      out.problem("finding set differs from the pinned default-seed result");
    }
  }

  out.attempted = search_s.size();
  out.failed = errors + mismatches;
  const size_t n = search_s.size();
  if (reportable_percentile(n) < 90) {
    std::printf("warning: %zu searches leave fewer than 10 beyond p90\n", n);
  }
  const std::string samples = "n=" + std::to_string(n) + " searches";
  out.metrics = {
      {"setup_s", median(setup_s), "s", setup_note(setup_s)},
      {"experiments_per_s", static_cast<double>(runs) / wall, "1/s",
       std::to_string(runs) + " experiments (baseline, campaign, shrink)"},
      {"experiment_ms_p50", percentile(experiment_ms, 50), "ms",
       "per-search mean, " + samples},
      {"experiment_ms_p90", percentile(experiment_ms, 90), "ms",
       "per-search mean, " + samples},
      {"search_s_p50", median(search_s), "s", samples},
      {"peak_rss_mb", rss, "MB", "whole process"},
  };
  return out;
}

// --- traced run (--trace 1) -----------------------------------------------

double mean_us(const std::map<std::string, LayerTime>& t, const char* name) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : ratio(it->second.total_ns / 1e3, it->second.count);
}

double per_search_ms(const std::map<std::string, LayerTime>& t,
                     const char* name, uint64_t searches) {
  const auto it = t.find(name);
  return it == t.end() ? 0 : ratio(it->second.total_ns / 1e6, searches);
}

// Alternates an untraced pass (one runner thread, fingerprints, report)
// and a traced re-drive over the same sweep, starting no pair that would
// end past the run's seconds (but always one); returns the number of traced
// results that differ.
uint64_t trace_sweeps(Workload w, const Args& a, Tracer* tracer,
                      LayerCounts* counts, Outcome* out) {
  const auto start = Clock::now();
  const SweepSetup setup = setup_sweep(w, a.seed);
  gc::RunnerOptions options;
  options.threads = 1;
  const gc::CampaignRunner runner(options);
  const gc::ExecOptions exec;  // what CampaignRunner::run passes
  uint64_t mismatches = 0;
  int32_t next_id = 0;
  double pair_s = 0;  // the last untraced + traced pair
  for (uint64_t b = 0;
       b == 0 || seconds_since(start) + pair_s <= a.seconds; ++b) {
    const std::vector<gc::Experiment> list = sweep_batch(setup, a.seed + b);

    const auto pair_start = Clock::now();
    auto t0 = Clock::now();
    const gc::CampaignResult plain = runner.run(list);
    std::vector<std::string> plain_fp;
    for (const auto& r : plain.experiments) {
      plain_fp.push_back(result_key(r));
    }
    gremlin::report::build_campaign_report(plain, workload_name(w));
    counts->untraced_wall_s += seconds_since(t0);

    t0 = Clock::now();
    std::vector<std::string> traced_fp;
    {
      Tracer::Scope batch(tracer, "campaign.batch");
      gc::ExecutionContext ctx(true);
      gremlin::ScopedShardSymbols bind_symbols(&ctx.symbols());
      TracedWorld world(setup.app, &ctx, tracer, counts);
      gc::CampaignResult result;
      result.experiments.reserve(list.size());
      for (const auto& e : list) {
        result.experiments.push_back(world.run(e, exec, next_id++));
        ctx.merge();
      }
      {
        Tracer::Scope merge(tracer, "campaign.merge");
        for (const auto& r : result.experiments) {
          traced_fp.push_back(result_key(r));
          if (!r.ok) ++out->failed;
        }
      }
      {
        Tracer::Scope report(tracer, "report.build");
        gremlin::report::build_campaign_report(result, workload_name(w));
      }
      counts->rule_cache_hits += world.rule_cache().hits();
      counts->rule_cache_misses += world.rule_cache().misses();
    }
    counts->traced_wall_s += seconds_since(t0);

    for (size_t i = 0; i < list.size(); ++i) {
      if (plain_fp[i] != traced_fp[i]) {
        ++mismatches;
        out->problem("traced result differs on '" + list[i].id + "'");
      }
    }
    out->attempted += list.size();
    pair_s = seconds_since(pair_start);
  }
  return mismatches;
}

// As trace_sweeps, one search per seed.
uint64_t trace_searches(const Args& a, Tracer* tracer, LayerCounts* counts,
                        Outcome* out) {
  const auto start = Clock::now();
  const SearchSetup setup = setup_search(a.seed);
  uint64_t mismatches = 0;
  double pair_s = 0;
  for (uint64_t i = 0;
       i == 0 || seconds_since(start) + pair_s <= a.seconds; ++i) {
    const gs::SearchOptions options = search_options(setup, a.seed + i);
    const auto pair_start = Clock::now();
    auto t0 = Clock::now();
    gs::SearchOutcome plain = gs::run_search(setup.app, options);
    const std::string plain_fp = search_fingerprint(plain);
    gremlin::report::build_search_report(std::move(plain), "search");
    counts->untraced_wall_s += seconds_since(t0);

    t0 = Clock::now();
    gs::SearchOutcome t = traced_search(setup.app, options, tracer, counts);
    const std::string traced_fp = search_fingerprint(t);
    if (!t.ok) ++out->failed;
    {
      Tracer::Scope report(tracer, "report.build");
      gremlin::report::build_search_report(std::move(t), "search");
    }
    counts->traced_wall_s += seconds_since(t0);
    if (plain_fp != traced_fp) {
      ++mismatches;
      out->problem("traced search differs at seed " +
                   std::to_string(options.seed));
    }
    ++out->attempted;
    pair_s = seconds_since(pair_start);
  }
  return mismatches;
}

Outcome traced(Workload w, const Args& a) {
  Outcome out;
  Tracer tracer;
  LayerCounts counts;
  const uint64_t mismatches =
      is_sweep(w) ? trace_sweeps(w, a, &tracer, &counts, &out)
                  : trace_searches(a, &tracer, &counts, &out);
  std::printf("check trace: %" PRIu64 " %s re-driven, %" PRIu64
              " differ from the untraced run\n",
              out.attempted, is_sweep(w) ? "experiments" : "searches",
              mismatches);
  out.failed += mismatches;

  const auto times = tracer.layer_times();
  double traced_ns = 0;  // self times partition the traced wall
  for (const auto& [name, t] : times) traced_ns += t.self_ns;
  std::printf("%-28s %10s %12s %12s %7s\n", "layer", "calls", "total_ms",
              "self_ms", "self%");
  for (const auto& [name, t] : times) {
    std::printf("%-28s %10" PRIu64 " %12.3f %12.3f %6.1f%%\n", name.c_str(),
                t.count, t.total_ns / 1e6, t.self_ns / 1e6,
                100.0 * ratio(t.self_ns, traced_ns));
  }
  if (const auto it = times.find("sim.run_load"); it != times.end()) {
    counts.run_load_ns = it->second.total_ns;
  }

  out.metrics = {
      {"campaign.world_build_ms", mean_us(times, "campaign.world_build") / 1e3,
       "ms", "per world build"},
      {"campaign.reset_us", mean_us(times, "campaign.reset"), "us",
       "per reset"},
      {"control.apply_us", mean_us(times, "control.apply"), "us",
       "per FailureSpec applied"},
      {"control.check_us", mean_us(times, "control.check"), "us",
       "per experiment"},
      {"sim.run_load_us", mean_us(times, "sim.run_load"), "us",
       "per experiment"},
      {"report.build_ms", mean_us(times, "report.build") / 1e3, "ms",
       "per report"},
  };
  for (const DerivedMetric& m : derive_layer_metrics(counts)) {
    out.metrics.push_back({m.name, m.value, m.unit, ""});
  }

  // Printed for every workload but kept out of the JSON (see NOTES.md):
  // layer times that are zero by construction on some workload, and the
  // evictions no workload causes.
  const uint64_t searches = counts.searches;
  const Metric extra[] = {
      {"logstore.records_dropped",
       ratio(counts.records_dropped, counts.experiments), "count/exp",
       "evicted records per experiment"},
      {"campaign.snapshot_ms", mean_us(times, "campaign.snapshot") / 1e3, "ms",
       "per prefix snapshot built"},
      {"campaign.restore_us", mean_us(times, "campaign.restore"), "us",
       "per restore"},
      {"campaign.merge_ms", mean_us(times, "campaign.merge") / 1e3, "ms",
       "per batch"},
      {"control.collect_us", mean_us(times, "control.collect"), "us",
       "per collect or final drain"},
      {"logstore.call_graph_us", mean_us(times, "logstore.call_graph"), "us",
       "per extraction"},
      {"search.baseline_ms", per_search_ms(times, "search.baseline", searches),
       "ms", "per search"},
      {"search.prune_us",
       per_search_ms(times, "search.prune", searches) * 1e3, "us",
       "per search"},
      {"search.campaign_ms", per_search_ms(times, "search.campaign", searches),
       "ms", "per search"},
      {"search.shrink_ms", per_search_ms(times, "search.shrink", searches),
       "ms", "per search"},
  };
  for (const Metric& m : extra) {
    std::printf("layer-metric %s %.6g %s (%s)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }

  if (!a.trace_out.empty()) {
    if (tracer.write_json(a.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  a.trace_out.c_str());
    } else {
      out.problem("cannot write " + a.trace_out);
    }
  }
  return out;
}

void print_meta(const Args& a, Workload w, int workers) {
  std::printf(
      "# meta {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"workers\": %d, \"nproc\": %d, "
      "\"hardware_concurrency\": %u, \"compiler\": \"%s\", \"build_type\": "
      "\"%s\", \"lto\": %s, \"git_commit\": \"%s\", \"source_digest\": "
      "\"%s\"}\n",
      workload_name(w), a.seed, a.seconds, a.trace, workers, nproc(),
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, PERFBENCH_LTO ? "true" : "false",
      a.git_commit.c_str(), a.source_digest.c_str());
}

int emit(Outcome out) {
  for (const Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) out.problem(m.name + " is not a finite number");
  }
  for (const Metric& m : out.metrics) {
    std::printf("metric %s %.6g %s%s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : " (", m.note.c_str(),
                m.note.empty() ? "" : ")");
  }
  std::printf("metric error_ratio %.6g ratio (%" PRIu64 " failed / %" PRIu64
              " attempted)\n",
              ratio(out.failed, out.attempted), out.failed, out.attempted);
  for (const std::string& p : out.problems) std::printf("MISMATCH %s\n", p.c_str());
  const bool correct = out.problems.empty() && out.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);  // refused above
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gremlin_perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--git-commit SHA] [--source-digest HEX]\n");
    return 2;
  }
  const auto workload = parse_workload(args.workload);
  if (!workload) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // One CPU is left to the OS and to whatever else shares the host: with a
  // worker on every CPU, one slowed CPU slows a whole worker and doubles
  // the p90 (measured on a 4-vCPU VM), while throughput barely gains.
  const int workers = std::max(1, std::min(nproc() - 1, 4));
  print_meta(args, *workload, args.trace == 1 ? 1 : workers);
  Outcome out;
  if (args.trace == 1) {
    out = traced(*workload, args);
  } else if (is_sweep(*workload)) {
    out = timed_sweep(*workload, args, workers);
  } else {
    out = timed_search(args, workers);
  }
  return emit(std::move(out));
}
