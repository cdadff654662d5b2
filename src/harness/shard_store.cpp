#include "harness/shard_store.hpp"

#include <sstream>

#include "harness/campaign_cache.hpp"
#include "harness/campaign_csv.hpp"

namespace mts::harness {

std::filesystem::path ShardStore::dir_for(const CampaignConfig& cfg) {
  return CampaignCache::directory() / "shards" / CampaignCache::key_of(cfg);
}

std::filesystem::path ShardStore::path_of(const WorkUnit& unit) const {
  std::ostringstream name;
  name << "unit-" << std::hex << unit.id << ".csv";
  return dir_ / name.str();
}

bool ShardStore::prepare() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code rm;
      std::filesystem::remove(entry.path(), rm);
    }
  }
  return !ec;
}

bool ShardStore::write(const WorkUnit& unit,
                       const std::vector<RunMetrics>& rows,
                       std::string* error) const {
  return csv::write_file(
      path_of(unit),
      [&](std::ostream& os) {
        os << csv::header() << '\n';
        for (const RunMetrics& m : rows) csv::write_row(os, m);
      },
      error);
}

ShardStore::State ShardStore::read(const WorkUnit& unit,
                                   std::vector<RunMetrics>& out) const {
  auto rows = csv::read_file(path_of(unit));
  if (!rows.has_value() || rows->size() != unit.total_runs()) {
    // Missing, truncated, corrupt or the wrong shape: delete it, so the
    // supervisor re-runs the unit instead of tripping on it forever.
    remove(unit);
    return State::kMissing;
  }
  out = std::move(*rows);
  for (const RunMetrics& m : out) {
    if (m.run_status != RunStatus::kOk) return State::kFailed;
  }
  return State::kOk;
}

void ShardStore::remove(const WorkUnit& unit) const {
  std::error_code ec;
  std::filesystem::remove(path_of(unit), ec);
}

}  // namespace mts::harness
