// The benchmark's three workloads: what each one runs and how its inputs
// are made from the seed. NOTES.md says why each was chosen.
//
//   sweep_patterns  AppSpec::buggy_tree(4), the default 5-kind sweep (70
//                   experiments), 100 requests 5 ms apart, checks
//                   MaxUserFailures(0) + HasTimeouts(svc0, 500ms) +
//                   ErrorRateBelow(svc0->svc1, 0.5). One batch is the sweep
//                   at one seed; batches take consecutive seeds.
//   windowed_mega   AppSpec::mega(3, 6) (19 services, fan-out 3), default
//                   sweep (162 experiments), 2000 requests 500 us apart,
//                   every fault active from 800 ms, check
//                   MaxUserFailures(0). Batches as above.
//   search_shrink   search::run_search on AppSpec::redundant(), max_k = 3,
//                   250 requests 5 ms apart, pruning and shrinking on. One
//                   search per seed; searches take consecutive seeds.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "campaign/app_spec.h"
#include "campaign/experiment.h"
#include "campaign/runner.h"
#include "search/search.h"

namespace perfbench {

enum class Workload { kSweepPatterns, kWindowedMega, kSearchShrink };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);
bool is_sweep(Workload w);

// The seed the pinned results below belong to.
constexpr uint64_t kDefaultSeed = 1;

// Everything a sweep workload builds before its first runner call: the
// app, its probe graph, and the sweep at the base seed.
struct SweepSetup {
  gremlin::campaign::AppSpec app;
  std::vector<gremlin::campaign::Experiment> base;
};
SweepSetup setup_sweep(Workload w, uint64_t seed);

// The sweep re-seeded to `seed` (ids suffixed " seed=<seed>").
std::vector<gremlin::campaign::Experiment> sweep_batch(const SweepSetup& setup,
                                                       uint64_t seed);

// The search workload's app and options, and the combinations its searches
// generate (probe graph, fault points, k <= 3 combinations): the same for
// every seed, so each search's funnel is checked against it.
struct SearchSetup {
  gremlin::campaign::AppSpec app;
  gremlin::search::SearchOptions options;
  size_t combinations = 0;
};
SearchSetup setup_search(uint64_t seed);

// search::run_search's load target: the first entry point that is neither
// excluded nor the client, else the service the client calls.
std::string search_target(const gremlin::topology::AppGraph& graph,
                          const gremlin::search::SearchOptions& options);
gremlin::search::SearchOptions search_options(const SearchSetup& setup,
                                              uint64_t seed);

// Everything a search outcome says about the program under test (funnel,
// per-combination verdicts, findings), excluding wall clock and thread
// counts. Equal strings mean the same search result.
std::string search_fingerprint(const gremlin::search::SearchOutcome& o);

// The finding set alone: one "minimal | signature" line per finding,
// sorted.
std::string finding_set(const gremlin::search::SearchOutcome& o);

// FNV-1a 64-bit digest, hex.
std::string digest(const std::string& bytes);

// Results pinned for kDefaultSeed, checked whenever the benchmark runs at
// that seed: pass/fail counts of the base-seed sweep, and the search's
// finding count and finding-set digest.
struct Pinned {
  size_t passed;
  size_t failed;
  size_t findings;
  const char* finding_digest;  // empty for the sweeps
};
Pinned pinned(Workload w);

}  // namespace perfbench
