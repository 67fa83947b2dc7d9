// Summary statistics and the derived ratios the benchmark reports.
//
// Every ratio the benchmark prints is computed here from raw counts, so the
// base of each one is written down once and unit-tested
// (tests/selftest.cc). A ratio whose base is zero reads 0: the layer did no
// work of that kind on the workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// Percentile by the nearest-rank rule over an unsorted sample; 0 for an
// empty sample.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

// The highest of p50, p90, p99 and p99.9 that has at least ten samples
// beyond it in a sample of `n`, or 0 when even the median has fewer than
// ten (n < 20). A timing is reported as its median plus this percentile.
double reportable_percentile(size_t n);

// num / base, or 0 when base is 0.
double ratio(double num, double base);

// Raw counts gathered by one traced pass over a workload.
struct LayerCounts {
  // campaign
  uint64_t experiments = 0;     // experiments the traced worlds executed
  uint64_t early_terminated = 0;
  uint64_t snapshot_hits = 0;
  uint64_t snapshot_misses = 0;
  uint64_t prefix_events_skipped = 0;
  // control
  uint64_t rules_installed = 0;
  uint64_t rule_cache_hits = 0;
  uint64_t rule_cache_misses = 0;
  uint64_t online_offers = 0;   // log records offered to online checks
  // sim
  uint64_t events = 0;          // events simulated inside run_load spans
  double run_load_ns = 0;       // total run_load span time
  // faults
  uint64_t rule_matches = 0;
  // logstore
  uint64_t records_appended = 0;
  uint64_t records_dropped = 0;
  // search
  uint64_t searches = 0;
  uint64_t combinations_generated = 0;
  uint64_t combinations_pruned = 0;
  uint64_t shrink_runs = 0;
  uint64_t findings = 0;
  // trace
  double traced_wall_s = 0;     // traced re-drive of the lists
  double untraced_wall_s = 0;   // one untraced worker over the same lists
};

// The count-based per-layer metrics, each with its base:
//   campaign.snapshot_hit_ratio      hits / (hits + misses)
//   campaign.prefix_events_skipped   skipped prefix events / experiments
//   control.rules_installed          rules / experiments
//   control.rule_cache_hit_ratio     cache hits / (hits + misses)
//   control.online_offers            offered records / experiments
//   control.early_exit_ratio         early-terminated / experiments
//   sim.events                       simulated events / experiments
//   sim.ns_per_event                 run_load ns / simulated events
//   faults.rule_matches              rule matches / experiments
//   logstore.records_appended        appended records / experiments
//   search.pruned_ratio              pruned / generated combinations
//   search.shrink_runs               shrink probes / searches
//   search.shrink_runs_per_finding   shrink probes / findings
//   trace.overhead_ratio             traced wall / untraced wall
struct DerivedMetric {
  const char* name;
  const char* unit;
  double value;
};
std::vector<DerivedMetric> derive_layer_metrics(const LayerCounts& c);

}  // namespace perfbench
