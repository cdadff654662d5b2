#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "sim/error.hpp"
#include "stats/summary.hpp"

namespace mts::harness {

/// A full sweep: protocol x MAXSPEED x adversary x defense x
/// repetitions — the paper's grid (protocol x speed) plus the adversary
/// axis the extension benches sweep and the defense axis the
/// countermeasure study scores against it.  The default single
/// `AdversarySpec{}` / `DefenseSpec{}` (kind = kNone) reproduces the
/// paper's grid exactly.
struct CampaignConfig {
  ScenarioConfig base;  ///< speed/protocol/seed/adversary overwritten per cell
  std::vector<double> speeds{2, 5, 10, 15, 20};
  std::vector<Protocol> protocols{Protocol::kDsr, Protocol::kAodv,
                                  Protocol::kMts};
  std::vector<security::AdversarySpec> adversaries{security::AdversarySpec{}};
  std::vector<security::DefenseSpec> defenses{security::DefenseSpec{}};
  /// Traffic axis: user-plane workloads to sweep.  The default single
  /// disabled spec keeps the grid (and every cached CSV key) the
  /// pre-traffic one-cell product.
  std::vector<traffic::TrafficSpec> traffics{traffic::TrafficSpec{}};
  std::uint32_t repetitions = 5;  ///< paper: "repeated for 5 times"
  std::uint64_t seed_base = 1;
  unsigned threads = 0;  ///< 0 = hardware concurrency
};

/// Short human label for an adversary spec ("none", "colluding x4", ...).
std::string adversary_label(const security::AdversarySpec& spec);

/// Short human label for a defense spec ("none", "suite", ...).
std::string defense_label(const security::DefenseSpec& spec);

/// Short human label for a traffic spec ("off", "20/s x4gw", ...).
std::string traffic_label(const traffic::TrafficSpec& spec);

/// One grid cell of a campaign plus the seed range to run in it.
/// Indices point into the owning `CampaignConfig`'s lists, so a cell is
/// meaningful only next to the config that produced it.
struct WorkCell {
  std::uint32_t protocol = 0;   ///< index into cfg.protocols
  std::uint32_t speed = 0;      ///< index into cfg.speeds
  std::uint32_t adversary = 0;  ///< index into cfg.adversaries
  std::uint32_t defense = 0;    ///< index into cfg.defenses
  std::uint32_t traffic = 0;    ///< index into cfg.traffics
  std::uint32_t rep_begin = 0;  ///< first repetition (seed = seed_base + rep)
  std::uint32_t rep_end = 0;    ///< one past the last repetition

  [[nodiscard]] std::uint32_t runs() const { return rep_end - rep_begin; }
  bool operator==(const WorkCell&) const = default;
};

/// The one walk over the campaign grid: `fn(cell)` for every cell in
/// row-major order (protocol, speed, adversary, defense, traffic), each
/// spanning all repetitions.  Throws ConfigError on an empty spec axis.
template <class Fn>
void for_each_cell(const CampaignConfig& cfg, Fn&& fn) {
  sim::require_config(!cfg.adversaries.empty() && !cfg.defenses.empty() &&
                          !cfg.traffics.empty(),
                      "Campaign: empty spec axis (use a kNone/disabled spec)");
  for (std::uint32_t p = 0; p < cfg.protocols.size(); ++p) {
    for (std::uint32_t s = 0; s < cfg.speeds.size(); ++s) {
      for (std::uint32_t a = 0; a < cfg.adversaries.size(); ++a) {
        for (std::uint32_t d = 0; d < cfg.defenses.size(); ++d) {
          for (std::uint32_t t = 0; t < cfg.traffics.size(); ++t) {
            fn(WorkCell{p, s, a, d, t, 0, cfg.repetitions});
          }
        }
      }
    }
  }
}

/// The ScenarioConfig for one run of a cell: cfg.base with the cell's
/// protocol/speed/adversary/defense/traffic applied and
/// seed = seed_base + rep.  Throws ConfigError for a cell outside the
/// grid.
ScenarioConfig cell_scenario(const CampaignConfig& cfg, const WorkCell& cell,
                             std::uint32_t rep);

/// All runs, indexable by (protocol, speed, adversary, defense, traffic).
class CampaignResult {
 public:
  void add(RunMetrics m);

  /// Runs of one cell; the trailing indices default to the
  /// adversary-free, undefended, traffic-off paper grid.
  [[nodiscard]] const std::vector<RunMetrics>& runs(
      Protocol p, double speed, std::uint32_t adversary = 0,
      std::uint32_t defense = 0, std::uint32_t traffic = 0) const;

  [[nodiscard]] std::size_t total_runs() const { return count_; }

 private:
  static std::int64_t speed_key(double speed) {
    return static_cast<std::int64_t>(speed * 1000.0 + 0.5);
  }
  std::map<std::tuple<int, std::int64_t, std::uint32_t, std::uint32_t,
                      std::uint32_t>,
           std::vector<RunMetrics>>
      cells_;
  std::size_t count_ = 0;
};

/// Aggregates one metric across the `ok` runs of a cell (typically
/// `result.runs(...)`); failed placeholder rows are skipped.
stats::Summary summarize(
    const std::vector<RunMetrics>& runs,
    const std::function<double(const RunMetrics&)>& metric);

/// Runs the sweep.  Repetitions are embarrassingly parallel: each run
/// owns an isolated simulator, so the pool shares nothing but the work
/// queue (an atomic index) and writes results into pre-sized slots.
CampaignResult run_campaign(const CampaignConfig& cfg,
                            std::ostream* progress = nullptr);

/// Prints one paper figure: rows = MAXSPEED, one column (mean +/- 95 % CI
/// half-width) per protocol.
void print_figure(std::ostream& os, const CampaignResult& result,
                  const CampaignConfig& cfg, const std::string& title,
                  const std::string& unit,
                  const std::function<double(const RunMetrics&)>& metric,
                  int precision = 3);

/// Prints one table per adversary spec in the sweep: rows = MAXSPEED,
/// one column per protocol — the adversary-axis analogue of
/// `print_figure`.
void print_adversary_figure(
    std::ostream& os, const CampaignResult& result, const CampaignConfig& cfg,
    const std::string& title, const std::string& unit,
    const std::function<double(const RunMetrics&)>& metric, int precision = 3);

/// Reads the standard bench environment overrides
/// (MTS_BENCH_REPS, MTS_BENCH_SIM_TIME, MTS_BENCH_SPEEDS,
///  MTS_BENCH_THREADS, MTS_BENCH_NODES) into `cfg`.
void apply_bench_env(CampaignConfig& cfg);

// Strict parsers for the value `v` of the environment variable `name`,
// shared by every bench.  None throws: a malformed or out-of-range value
// warns on stderr and reports failure (false, or an empty list) so the
// caller keeps its default.

/// A decimal integer in [min, max].
bool parse_env_u64(const char* name, const char* v, std::uint64_t min,
                   std::uint64_t max, std::uint64_t& out);

/// A finite number in (0, 1e9]: the consumers multiply by 1e9
/// (Time::seconds) or feed mobility speeds, and an `inf` or 1e15 would
/// overflow int64 downstream.
bool parse_env_double(const char* name, const char* v, double& out);

/// Comma-separated lists of the above.  Empty elements are skipped; one
/// bad element invalidates the whole list.
std::vector<std::uint64_t> parse_env_u64_list(const char* name, const char* v,
                                              std::uint64_t min,
                                              std::uint64_t max);
std::vector<double> parse_env_double_list(const char* name, const char* v);

}  // namespace mts::harness
