#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/campaign.hpp"

namespace mts::harness {

/// A serializable batch of cells one worker process executes and writes
/// as one shard.  `cells_per_unit > 1` is the SoA batch mode: tiny
/// cells share a single process setup (fork, pools, shard fsync)
/// instead of paying it per cell.
struct WorkUnit {
  /// Deterministic identity: a hash of the campaign's cache key, the
  /// unit's first grid ordinal and its cell count.  Two invocations of
  /// the same (config, cells_per_unit) produce identical ids, so a
  /// resumed or sharded sweep finds exactly the shard files an earlier
  /// one wrote; any config change flips the campaign key and with it
  /// every id.
  std::uint64_t id = 0;
  std::uint32_t index = 0;  ///< position in the partition, 0-based
  std::vector<WorkCell> cells;

  [[nodiscard]] std::size_t total_runs() const {
    std::size_t n = 0;
    for (const WorkCell& c : cells) n += c.runs();
    return n;
  }
};

/// Splits the campaign grid (protocol x speed x adversary x defense x
/// traffic, row-major in that order, full repetition range per cell) into units
/// of `cells_per_unit` consecutive cells (0 acts as 1).  Pure function
/// of its inputs: any two runs partition identically.
std::vector<WorkUnit> partition_campaign(const CampaignConfig& cfg,
                                         std::size_t cells_per_unit);

/// Human label: "unit 3/12: AODV speed=5 adversary=1 defense=0 reps 0..4".
std::string work_unit_label(const CampaignConfig& cfg, const WorkUnit& unit,
                            std::size_t unit_count);

/// Wire form for handing a unit to a worker (`--work-unit` style):
/// "wu2|<id hex>|<index>|p:s:a:d:t:rb:re;...".  (wu1, the pre-traffic
/// 6-field form, is rejected: a stale unit spec must not silently run
/// with a defaulted traffic axis.)
std::string encode_work_unit(const WorkUnit& unit);
std::optional<WorkUnit> decode_work_unit(const std::string& text);

/// Placeholder row for one run of a cell whose unit exhausted its
/// retries: carries the full cell identity so the merged CSV keeps the
/// grid complete, `run_status = kFailed` so `summarize` skips it.
RunMetrics failed_run_metrics(const CampaignConfig& cfg, const WorkCell& cell,
                              std::uint32_t rep, std::uint32_t attempts,
                              const std::string& error);

}  // namespace mts::harness
