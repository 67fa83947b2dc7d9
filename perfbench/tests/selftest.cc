// Unit tests for the benchmark's own arithmetic: the percentile rule and
// the base of every ratio it reports. Run: perfbench_selftest (exit 0 when
// every check holds).
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "stats.h"
#include "tracer.h"

namespace {

int failures = 0;

void expect_eq(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::printf("FAIL %s: got %.17g want %.17g\n", what, got, want);
    ++failures;
  }
}

void percentile_rule() {
  using perfbench::reportable_percentile;
  expect_eq(reportable_percentile(0), 0, "no samples");
  expect_eq(reportable_percentile(19), 0, "19 samples: median has 9 beyond");
  expect_eq(reportable_percentile(20), 50, "20 samples: p50");
  expect_eq(reportable_percentile(99), 50, "99 samples: p90 has 9 beyond");
  expect_eq(reportable_percentile(100), 90, "100 samples: p90");
  expect_eq(reportable_percentile(999), 90, "999 samples: p99 has 9 beyond");
  expect_eq(reportable_percentile(1000), 99, "1000 samples: p99");
  expect_eq(reportable_percentile(9999), 99, "9999: p99.9 has 9 beyond");
  expect_eq(reportable_percentile(10000), 99.9, "10000 samples: p99.9");
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  expect_eq(perfbench::percentile(v, 50), 50, "p50 of 1..100");
  expect_eq(perfbench::percentile(v, 90), 90, "p90 of 1..100");
  expect_eq(perfbench::percentile(v, 100), 100, "p100 of 1..100");
  expect_eq(perfbench::median({3, 1, 2}), 2, "median of 3");
  expect_eq(perfbench::median({}), 0, "median of none");
}

void ratio_bases() {
  perfbench::LayerCounts c;
  c.experiments = 10;
  c.early_terminated = 4;
  c.snapshot_hits = 3;
  c.snapshot_misses = 1;
  c.prefix_events_skipped = 300;
  c.rules_installed = 20;
  c.rule_cache_hits = 9;
  c.rule_cache_misses = 1;
  c.online_offers = 50;
  c.events = 1000;
  c.run_load_ns = 250000;
  c.rule_matches = 70;
  c.records_appended = 500;
  c.searches = 2;
  c.combinations_generated = 200;
  c.combinations_pruned = 150;
  c.shrink_runs = 40;
  c.findings = 8;
  c.traced_wall_s = 3;
  c.untraced_wall_s = 2;
  const std::map<std::string, double> want = {
      {"campaign.snapshot_hit_ratio", 0.75},   // hits / (hits + misses)
      {"campaign.prefix_events_skipped", 30},  // / experiments
      {"control.rules_installed", 2},          // / experiments
      {"control.rule_cache_hit_ratio", 0.9},   // hits / (hits + misses)
      {"control.online_offers", 5},            // / experiments
      {"control.early_exit_ratio", 0.4},       // / experiments
      {"sim.events", 100},                     // / experiments
      {"sim.ns_per_event", 250},               // run_load ns / events
      {"faults.rule_matches", 7},              // / experiments
      {"logstore.records_appended", 50},       // / experiments
      {"search.pruned_ratio", 0.75},           // pruned / generated
      {"search.shrink_runs", 20},              // / searches
      {"search.shrink_runs_per_finding", 5},   // / findings
      {"trace.overhead_ratio", 1.5},           // traced / untraced wall
  };
  const auto got = perfbench::derive_layer_metrics(c);
  if (got.size() != want.size()) {
    std::printf("FAIL derived metric count %zu, want %zu\n", got.size(),
                want.size());
    ++failures;
  }
  for (const auto& m : got) {
    const auto it = want.find(m.name);
    if (it == want.end()) {
      std::printf("FAIL unexpected metric %s\n", m.name);
      ++failures;
      continue;
    }
    expect_eq(m.value, it->second, m.name);
  }
  // A zero base reads 0: the layer did no work of that kind.
  for (const auto& m : perfbench::derive_layer_metrics({})) {
    expect_eq(m.value, 0, m.name);
  }
}

void self_time() {
  perfbench::Tracer tracer;
  {
    perfbench::Tracer::Scope outer(&tracer, "outer", 7);
    perfbench::Tracer::Scope inner(&tracer, "inner");
  }
  const auto& spans = tracer.spans();
  if (spans.size() != 2 || spans[1].parent != 0 || spans[1].experiment != 7) {
    std::printf("FAIL span parent/experiment links\n");
    ++failures;
    return;
  }
  const auto times = tracer.layer_times();
  const double outer = spans[0].end_ns - spans[0].start_ns;
  const double inner = spans[1].end_ns - spans[1].start_ns;
  expect_eq(times.at("outer").self_ns, outer - inner, "outer self time");
  expect_eq(times.at("inner").self_ns, inner, "inner self time");
}

}  // namespace

int main() {
  percentile_rule();
  percentiles();
  ratio_bases();
  self_time();
  std::printf("%s (%d failures)\n", failures == 0 ? "selftest ok" : "FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
