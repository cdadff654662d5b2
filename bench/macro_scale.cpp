// Large-arena macro benchmark: events/sec and per-subsystem event
// attribution for fixed-seed runs at 1k / 5k / 10k nodes, with the
// field density-scaled to the paper's 50 nodes per 1000 m x 1000 m.
// Results are recorded in BENCH_scale.json; the scale bookkeeping
// (mobility legs live vs generated, index rebuild allocations) is
// printed alongside so a memory regression shows up in the same place
// as a throughput one.  This is a timing driver only: the bounds on
// that bookkeeping are asserted by tests/integration/scale_test.cpp.
//
// Environment overrides (a malformed value warns and keeps the default):
//   MTS_BENCH_SIM_TIME  seconds simulated per run   (default 60)
//   MTS_BENCH_NODES     comma list of node counts   (default 1000,5000,10000)
//   MTS_BENCH_REPS      wall-clock repetitions      (default 1; median)
//   MTS_BENCH_FLOWS     TCP flows per run           (default 10)
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "harness/campaign.hpp"

namespace {

using namespace mts;

/// Process-lifetime peak RSS in MiB (0 where getrusage is unavailable).
/// Printed per row: the sweep runs smallest-first, so a row's value is
/// effectively that scale's high-water mark.
double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
#if defined(__APPLE__)
    return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);
#else
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
#endif
  }
#endif
  return 0.0;
}

/// Paper density: 50 nodes per 1000 m x 1000 m, so the arena grows as
/// sqrt(n/50) and per-node neighbourhood size stays constant.
harness::ScenarioConfig scenario(std::uint32_t nodes, double sim_time,
                                 std::uint32_t flows) {
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::Protocol::kMts;
  cfg.node_count = nodes;
  const double side = 1000.0 * std::sqrt(nodes / 50.0);
  cfg.field = mobility::Field{side, side};
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::seconds(sim_time);
  cfg.flow_count = flows;
  cfg.seed = 42;
  return cfg;
}

}  // namespace

int main() {
  double sim_time = 60.0;
  std::uint64_t reps = 1;
  std::uint64_t flows = 10;
  std::vector<std::uint64_t> node_counts{1000, 5000, 10000};
  if (const char* v = std::getenv("MTS_BENCH_SIM_TIME")) {
    harness::parse_env_double("MTS_BENCH_SIM_TIME", v, sim_time);
  }
  if (const char* v = std::getenv("MTS_BENCH_REPS")) {
    harness::parse_env_u64("MTS_BENCH_REPS", v, 1, 1000, reps);
  }
  if (const char* v = std::getenv("MTS_BENCH_FLOWS")) {
    harness::parse_env_u64("MTS_BENCH_FLOWS", v, 1, 100000, flows);
  }
  if (const char* v = std::getenv("MTS_BENCH_NODES")) {
    auto counts = harness::parse_env_u64_list("MTS_BENCH_NODES", v, 2, 100000);
    if (!counts.empty()) node_counts = std::move(counts);
  }

  std::printf("macro_scale: MTS, %.0fs simulated, %llu flows, seed 42, "
              "density 50/km^2, median of %llu reps\n",
              sim_time, static_cast<unsigned long long>(flows),
              static_cast<unsigned long long>(reps));
  std::printf("%-6s %12s %10s %12s %9s %9s %7s %7s %8s\n", "nodes", "events",
              "wall_ms", "events_per_s", "legs_gen", "legs_live", "rebuilds",
              "allocs", "rss_mib");
  for (const std::uint64_t nodes : node_counts) {
    std::vector<double> wall_ms;
    harness::RunMetrics m;
    for (std::uint64_t r = 0; r < reps; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      m = harness::run_scenario(
          scenario(static_cast<std::uint32_t>(nodes), sim_time,
                   static_cast<std::uint32_t>(flows)));
      const auto t1 = std::chrono::steady_clock::now();
      wall_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::sort(wall_ms.begin(), wall_ms.end());
    const double med = wall_ms[wall_ms.size() / 2];
    const std::uint64_t live =
        m.mobility_legs_generated - m.mobility_legs_pruned;
    std::printf("%-6llu %12llu %10.1f %12.0f %9llu %9llu %7llu %7llu %8.1f\n",
                static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(m.events_executed), med,
                static_cast<double>(m.events_executed) / (med / 1000.0),
                static_cast<unsigned long long>(m.mobility_legs_generated),
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(m.neighbor_rebuilds),
                static_cast<unsigned long long>(m.neighbor_rebuild_allocs),
                peak_rss_mib());
    std::printf("       by_category:");
    for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
      std::printf(" %s=%llu",
                  sim::event_category_name(static_cast<sim::EventCategory>(c)),
                  static_cast<unsigned long long>(m.events_by_category[c]));
    }
    std::printf("  delivered=%llu\n",
                static_cast<unsigned long long>(m.segments_delivered));
  }
  return 0;
}
