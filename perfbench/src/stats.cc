#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// 1-based nearest rank of the p-th percentile among n samples. The epsilon
// keeps products such as 0.999 * 10000 from rounding up a whole rank.
size_t nearest_rank(double p, size_t n) {
  const double exact = p / 100.0 * static_cast<double>(n);
  return static_cast<size_t>(std::max(1.0, std::ceil(exact - 1e-9)));
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = std::min(values.size(), nearest_rank(p, values.size()));
  return values[rank - 1];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

double reportable_percentile(size_t n) {
  double best = 0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    // Samples strictly above the p-th percentile under nearest rank.
    if (n >= 20 && n - nearest_rank(p, n) >= 10) best = p;
  }
  return best;
}

double ratio(double num, double base) { return base == 0 ? 0 : num / base; }

std::vector<DerivedMetric> derive_layer_metrics(const LayerCounts& c) {
  const double exps = static_cast<double>(c.experiments);
  return {
      {"campaign.snapshot_hit_ratio", "ratio",
       ratio(c.snapshot_hits, c.snapshot_hits + c.snapshot_misses)},
      {"campaign.prefix_events_skipped", "count/exp",
       ratio(c.prefix_events_skipped, exps)},
      {"control.rules_installed", "count/exp", ratio(c.rules_installed, exps)},
      {"control.rule_cache_hit_ratio", "ratio",
       ratio(c.rule_cache_hits, c.rule_cache_hits + c.rule_cache_misses)},
      {"control.online_offers", "count/exp", ratio(c.online_offers, exps)},
      {"control.early_exit_ratio", "ratio", ratio(c.early_terminated, exps)},
      {"sim.events", "count/exp", ratio(c.events, exps)},
      {"sim.ns_per_event", "ns", ratio(c.run_load_ns, c.events)},
      {"faults.rule_matches", "count/exp", ratio(c.rule_matches, exps)},
      {"logstore.records_appended", "count/exp",
       ratio(c.records_appended, exps)},
      {"search.pruned_ratio", "ratio",
       ratio(c.combinations_pruned, c.combinations_generated)},
      {"search.shrink_runs", "count/search", ratio(c.shrink_runs, c.searches)},
      {"search.shrink_runs_per_finding", "count/finding",
       ratio(c.shrink_runs, c.findings)},
      {"trace.overhead_ratio", "ratio",
       ratio(c.traced_wall_s, c.untraced_wall_s)},
  };
}

}  // namespace perfbench
