#include "harness/work_unit.hpp"

#include <algorithm>
#include <sstream>

#include "harness/campaign_cache.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace mts::harness {

std::vector<WorkUnit> partition_campaign(const CampaignConfig& cfg,
                                         std::size_t cells_per_unit) {
  sim::require_config(!cfg.protocols.empty() && !cfg.speeds.empty(),
                      "Fabric: empty protocol or speed axis");
  if (cells_per_unit == 0) cells_per_unit = 1;
  // The id namespace is the campaign itself: units of different
  // campaigns can never be confused even if a shard directory is
  // (mis)shared.
  const std::uint64_t campaign_hash =
      sim::fnv1a(CampaignCache::key_of(cfg));
  std::vector<WorkCell> cells;
  for_each_cell(cfg, [&](const WorkCell& cell) { cells.push_back(cell); });
  std::vector<WorkUnit> units;
  for (std::size_t first = 0; first < cells.size(); first += cells_per_unit) {
    WorkUnit unit;
    unit.index = static_cast<std::uint32_t>(units.size());
    const std::size_t last = std::min(cells.size(), first + cells_per_unit);
    unit.cells.assign(cells.begin() + first, cells.begin() + last);
    unit.id = sim::splitmix64(
        campaign_hash ^ sim::splitmix64(first) ^
        sim::splitmix64(static_cast<std::uint64_t>(unit.cells.size()) << 32));
    units.push_back(std::move(unit));
  }
  return units;
}

std::string work_unit_label(const CampaignConfig& cfg, const WorkUnit& unit,
                            std::size_t unit_count) {
  std::ostringstream os;
  os << "unit " << (unit.index + 1) << '/' << unit_count << ':';
  for (const WorkCell& c : unit.cells) {
    os << ' ' << protocol_name(cfg.protocols[c.protocol])
       << " speed=" << cfg.speeds[c.speed] << " adversary=" << c.adversary
       << " defense=" << c.defense << " traffic=" << c.traffic << " reps "
       << c.rep_begin << ".." << (c.rep_end == 0 ? 0 : c.rep_end - 1) << ';';
  }
  return os.str();
}

std::string encode_work_unit(const WorkUnit& unit) {
  std::ostringstream os;
  os << "wu2|" << std::hex << unit.id << std::dec << '|' << unit.index << '|';
  for (const WorkCell& c : unit.cells) {
    os << c.protocol << ':' << c.speed << ':' << c.adversary << ':'
       << c.defense << ':' << c.traffic << ':' << c.rep_begin << ':'
       << c.rep_end << ';';
  }
  return os.str();
}

std::optional<WorkUnit> decode_work_unit(const std::string& text) {
  std::istringstream is(text);
  std::string field;
  if (!std::getline(is, field, '|') || field != "wu2") return std::nullopt;
  WorkUnit unit;
  try {
    if (!std::getline(is, field, '|')) return std::nullopt;
    unit.id = std::stoull(field, nullptr, 16);
    if (!std::getline(is, field, '|')) return std::nullopt;
    unit.index = static_cast<std::uint32_t>(std::stoul(field));
    if (!std::getline(is, field, '|')) return std::nullopt;
    std::istringstream cells(field);
    std::string cell;
    while (std::getline(cells, cell, ';')) {
      if (cell.empty()) continue;
      std::istringstream cs(cell);
      std::string n;
      std::uint32_t v[7];
      for (std::uint32_t& slot : v) {
        if (!std::getline(cs, n, ':')) return std::nullopt;
        slot = static_cast<std::uint32_t>(std::stoul(n));
      }
      if (std::getline(cs, n, ':')) return std::nullopt;  // trailing junk
      if (v[6] < v[5]) return std::nullopt;
      unit.cells.push_back(WorkCell{v[0], v[1], v[2], v[3], v[4], v[5], v[6]});
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (unit.cells.empty()) return std::nullopt;
  return unit;
}

RunMetrics failed_run_metrics(const CampaignConfig& cfg, const WorkCell& cell,
                              std::uint32_t rep, std::uint32_t attempts,
                              const std::string& error) {
  RunMetrics m;
  m.protocol = cfg.protocols[cell.protocol];
  m.max_speed = cfg.speeds[cell.speed];
  m.seed = cfg.seed_base + rep;
  m.adversary_index = cell.adversary;
  m.adversary_kind = cfg.adversaries[cell.adversary].kind;
  m.adversary_count = cfg.adversaries[cell.adversary].count;
  m.defense_index = cell.defense;
  m.defense_kind = cfg.defenses[cell.defense].kind;
  m.traffic_index = cell.traffic;
  m.run_status = RunStatus::kFailed;
  m.attempts = attempts;
  m.run_error = error;
  return m;
}

}  // namespace mts::harness
