#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace perfbench {

namespace gc = gremlin::campaign;
namespace gs = gremlin::search;
using gremlin::msec;
using gremlin::usec;

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "sweep_patterns") return Workload::kSweepPatterns;
  if (name == "windowed_mega") return Workload::kWindowedMega;
  if (name == "search_shrink") return Workload::kSearchShrink;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSweepPatterns:
      return "sweep_patterns";
    case Workload::kWindowedMega:
      return "windowed_mega";
    case Workload::kSearchShrink:
      return "search_shrink";
  }
  return "?";
}

bool is_sweep(Workload w) { return w != Workload::kSearchShrink; }

SweepSetup setup_sweep(Workload w, uint64_t seed) {
  SweepSetup setup;
  gc::SweepOptions sweep;
  sweep.seed = seed;
  if (w == Workload::kSweepPatterns) {
    setup.app = gc::AppSpec::buggy_tree(4);
    sweep.load.count = 100;
    sweep.load.gap = msec(5);
    sweep.checks = {
        gc::CheckSpec::max_user_failures(0),
        gc::CheckSpec::has_timeouts("svc0", msec(500)),
        gc::CheckSpec::error_rate_below("svc0", "svc1", 0.5),
    };
  } else {
    setup.app = gc::AppSpec::mega(3, 6);
    sweep.load.count = 2000;
    sweep.load.gap = usec(500);
    sweep.windows.push_back({msec(800), gremlin::Duration{}});
  }
  setup.base = gc::generate_sweep(setup.app, setup.app.probe_graph(), sweep);
  return setup;
}

std::vector<gc::Experiment> sweep_batch(const SweepSetup& setup,
                                        uint64_t seed) {
  return gc::replicate_seeds(setup.base, {seed});
}

SearchSetup setup_search(uint64_t seed) {
  SearchSetup setup;
  setup.app = gc::AppSpec::redundant();
  setup.options.generator.max_k = 3;
  setup.options.load.count = 250;
  setup.options.load.gap = msec(5);
  setup.options.prune = true;
  setup.options.shrink = true;
  // The benchmark's workers run whole searches side by side, so each
  // search's own campaign stays on its worker's thread.
  setup.options.threads = 1;
  setup.options.seed = seed;

  const gremlin::topology::AppGraph graph = setup.app.probe_graph();
  const std::string target = search_target(graph, setup.options);
  const auto points = gs::enumerate_fault_points(
      graph, setup.options.generator, {setup.options.client, target});
  setup.combinations =
      gs::generate_combinations(points, setup.options.generator).size();
  return setup;
}

std::string search_target(const gremlin::topology::AppGraph& graph,
                          const gs::SearchOptions& options) {
  if (!options.target.empty()) return options.target;
  for (const auto& entry : graph.entry_points()) {
    if (options.generator.exclude.count(entry) == 0 &&
        entry != options.client) {
      return entry;
    }
  }
  for (const auto& edge : graph.edges()) {
    if (edge.src == options.client) return edge.dst;
  }
  return {};
}

gs::SearchOptions search_options(const SearchSetup& setup, uint64_t seed) {
  gs::SearchOptions options = setup.options;
  options.seed = seed;
  return options;
}

std::string search_fingerprint(const gs::SearchOutcome& o) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "ok=%d err=%s app=%s seed=%" PRIu64
                " baseline=%d/%zu edges=%zu paths=%zu points=%zu gen=%zu "
                "trunc=%zu pruned=%zu/%zu/%zu ran=%zu pass=%zu fail=%zu "
                "errors=%zu shrink=%zu\n",
                o.ok ? 1 : 0, o.error.c_str(), o.app.c_str(), o.seed,
                o.baseline_passed ? 1 : 0, o.baseline_requests,
                o.observed_edges, o.observed_paths, o.fault_points,
                o.generated, o.truncated, o.pruned, o.pruned_unreachable,
                o.pruned_no_shared_path, o.ran, o.passed, o.failed, o.errors,
                o.shrink_runs);
  out += buf;
  for (const auto& c : o.combos) {
    out += c.label;
    out += '|';
    out += gs::to_string(c.verdict);
    out += '|';
    out += c.prune_detail;
    out += c.ran ? "|ran" : "|-";
    out += c.passed ? "|pass" : "|-";
    out += c.error ? "|error\n" : "|-\n";
  }
  for (const auto& f : o.findings) {
    std::snprintf(buf, sizeof buf,
                  "|seed=%" PRIu64 " load=%zu flaky=%d runs=%zu before=%zu "
                  "occ=%zu|",
                  f.seed, f.load_count, f.flaky ? 1 : 0, f.shrink_runs,
                  f.faults_before, f.occurrences);
    out += f.combination;
    out += '|';
    out += f.minimal;
    out += buf;
    out += f.signature;
    out += '\n';
  }
  return out;
}

std::string finding_set(const gs::SearchOutcome& o) {
  std::vector<std::string> lines;
  for (const auto& f : o.findings) lines.push_back(f.minimal + " | " + f.signature);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& line : lines) out += line + "\n";
  return out;
}

std::string digest(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

Pinned pinned(Workload w) {
  switch (w) {
    case Workload::kSweepPatterns:
      return {63, 7, 0, ""};
    case Workload::kWindowedMega:
      return {42, 120, 0, ""};
    case Workload::kSearchShrink:
      return {0, 0, 25, "874c9b3770ecd470"};
  }
  return {0, 0, 0, ""};
}

}  // namespace perfbench
