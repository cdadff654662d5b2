#include "harness/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "harness/progress.hpp"
#include "sim/error.hpp"
#include "stats/table.hpp"

namespace mts::harness {

std::string adversary_label(const security::AdversarySpec& spec) {
  if (!spec.enabled()) return "none";
  std::ostringstream os;
  // A wormhole is always an endpoint pair, whatever `count` says.
  const std::uint32_t n =
      spec.kind == security::AdversaryKind::kWormhole ? 2 : spec.count;
  os << security::adversary_kind_name(spec.kind) << " x" << n;
  switch (spec.kind) {
    case security::AdversaryKind::kWormhole:
    case security::AdversaryKind::kGrayhole:
      os << " p=" << spec.drop_prob;
      break;
    case security::AdversaryKind::kRreqFlood:
      os << " @" << spec.flood_rate << "/s";
      break;
    default:
      break;
  }
  return os.str();
}

std::string defense_label(const security::DefenseSpec& spec) {
  if (!spec.enabled()) return "none";
  std::ostringstream os;
  os << security::defense_kind_name(spec.kind);
  switch (spec.kind) {
    case security::DefenseKind::kAckedChecking:
      os << " @" << spec.probe_period.to_seconds() << "s";
      break;
    case security::DefenseKind::kFloodRateLimit:
      os << " @" << spec.rreq_rate << "/s";
      break;
    default:
      break;
  }
  return os.str();
}

std::string traffic_label(const traffic::TrafficSpec& spec) {
  if (!spec.enabled) return "off";
  std::ostringstream os;
  os << spec.session_rate << "/s x" << spec.gateway_count << "gw";
  if (!spec.diurnal.empty()) os << " diurnal" << spec.diurnal.size();
  return os.str();
}

void CampaignResult::add(RunMetrics m) {
  cells_[{static_cast<int>(m.protocol), speed_key(m.max_speed),
          m.adversary_index, m.defense_index, m.traffic_index}]
      .push_back(std::move(m));
  ++count_;
}

const std::vector<RunMetrics>& CampaignResult::runs(
    Protocol p, double speed, std::uint32_t adversary, std::uint32_t defense,
    std::uint32_t traffic) const {
  static const std::vector<RunMetrics> kEmpty;
  auto it = cells_.find(
      {static_cast<int>(p), speed_key(speed), adversary, defense, traffic});
  return it == cells_.end() ? kEmpty : it->second;
}

stats::Summary summarize(
    const std::vector<RunMetrics>& runs,
    const std::function<double(const RunMetrics&)>& metric) {
  // Honest accounting: `failed` placeholder rows from the fabric carry
  // zeros for every metric — averaging them in would silently bias
  // false_positive_rate, paired-seed deltas and every figure toward 0.
  // Only ok rows contribute; a fully failed cell reports count() == 0.
  stats::Summary s;
  for (const RunMetrics& m : runs) {
    if (m.run_status != RunStatus::kOk) continue;
    s.add(metric(m));
  }
  return s;
}

ScenarioConfig cell_scenario(const CampaignConfig& cfg, const WorkCell& cell,
                             std::uint32_t rep) {
  sim::require_config(cell.protocol < cfg.protocols.size() &&
                          cell.speed < cfg.speeds.size() &&
                          cell.adversary < cfg.adversaries.size() &&
                          cell.defense < cfg.defenses.size() &&
                          cell.traffic < cfg.traffics.size(),
                      "Campaign: work cell indexes outside the grid "
                      "(stale unit spec for a different config?)");
  ScenarioConfig sc = cfg.base;
  sc.protocol = cfg.protocols[cell.protocol];
  sc.max_speed = cfg.speeds[cell.speed];
  // Same seed across protocols, adversaries, defenses and traffic specs
  // for a given (speed, rep): paired comparisons see identical mobility
  // and flow placement (passive adversaries don't perturb runs at all,
  // so their cells differ only in what was observed).
  sc.seed = cfg.seed_base + rep;
  sc.adversary = cfg.adversaries[cell.adversary];
  sc.defense = cfg.defenses[cell.defense];
  sc.traffic = cfg.traffics[cell.traffic];
  return sc;
}

CampaignResult run_campaign(const CampaignConfig& cfg,
                            std::ostream* progress) {
  std::vector<std::pair<WorkCell, std::uint32_t>> work;  // (cell, rep)
  for_each_cell(cfg, [&](const WorkCell& cell) {
    for (std::uint32_t r = cell.rep_begin; r < cell.rep_end; ++r) {
      work.emplace_back(cell, r);
    }
  });
  std::vector<RunMetrics> results(work.size());
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  ProgressSink sink(progress);

  unsigned n_threads = cfg.threads != 0 ? cfg.threads
                                        : std::max(1u, std::thread::hardware_concurrency());
  n_threads = std::min<unsigned>(n_threads, static_cast<unsigned>(work.size()));

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= work.size()) return;
      const auto& [cell, rep] = work[i];
      const ScenarioConfig sc = cell_scenario(cfg, cell, rep);
      results[i] = run_scenario(sc);
      results[i].adversary_index = cell.adversary;
      results[i].defense_index = cell.defense;
      results[i].traffic_index = cell.traffic;
      const std::size_t d = done.fetch_add(1) + 1;
      if (sink.enabled()) {
        std::ostringstream os;
        os << "  [" << d << "/" << work.size() << "] "
           << protocol_name(sc.protocol) << " speed=" << sc.max_speed
           << " adversary=" << adversary_label(sc.adversary)
           << " defense=" << defense_label(sc.defense);
        if (cfg.traffics.size() > 1) {
          os << " traffic=" << traffic_label(sc.traffic);
        }
        os << " seed=" << sc.seed;
        sink.line(os.str());
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(n_threads);
  for (unsigned t = 0; t < n_threads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();

  CampaignResult out;
  for (RunMetrics& m : results) out.add(std::move(m));
  return out;
}

namespace {

/// The figure printers' shared body: title and unit, then one table per
/// adversary (adversary 0 only unless `per_adversary`).
void print_tables(std::ostream& os, const CampaignResult& result,
                  const CampaignConfig& cfg, const std::string& title,
                  const std::string& unit,
                  const std::function<double(const RunMetrics&)>& metric,
                  int precision, bool per_adversary) {
  os << "\n=== " << title << " ===\n";
  if (!unit.empty()) {
    os << "(" << unit << "; mean +/- 95% CI over " << cfg.repetitions
       << " runs)\n";
  }
  const std::size_t tables = per_adversary ? cfg.adversaries.size() : 1;
  for (std::uint32_t a = 0; a < tables; ++a) {
    if (per_adversary) {
      os << "\n--- adversary: " << adversary_label(cfg.adversaries[a])
         << " ---\n";
    }
    std::vector<std::string> header{"MAXSPEED (m/s)"};
    for (Protocol p : cfg.protocols) header.emplace_back(protocol_name(p));
    stats::Table table(std::move(header));
    for (double speed : cfg.speeds) {
      std::vector<std::string> row{stats::Table::fmt(speed, 0)};
      for (Protocol p : cfg.protocols) {
        const stats::Summary s = summarize(result.runs(p, speed, a), metric);
        row.push_back(stats::Table::fmt(s.mean(), precision) + " +/- " +
                      stats::Table::fmt(s.ci95(), precision));
      }
      table.add_row(std::move(row));
    }
    table.print(os);
  }
}

}  // namespace

void print_figure(std::ostream& os, const CampaignResult& result,
                  const CampaignConfig& cfg, const std::string& title,
                  const std::string& unit,
                  const std::function<double(const RunMetrics&)>& metric,
                  int precision) {
  print_tables(os, result, cfg, title, unit, metric, precision, false);
}

void print_adversary_figure(
    std::ostream& os, const CampaignResult& result, const CampaignConfig& cfg,
    const std::string& title, const std::string& unit,
    const std::function<double(const RunMetrics&)>& metric, int precision) {
  print_tables(os, result, cfg, title, unit, metric, precision, true);
}

bool parse_env_u64(const char* name, const char* v, std::uint64_t min,
                   std::uint64_t max, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < min || n > max) {
    std::cerr << "warning: ignoring " << name << "='" << v
              << "' (expected an integer in [" << min << ", " << max
              << "])\n";
    return false;
  }
  out = n;
  return true;
}

bool parse_env_double(const char* name, const char* v, double& out) {
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(d) ||
      !(d > 0.0) || d > 1e9) {
    std::cerr << "warning: ignoring " << name << "='" << v
              << "' (expected a positive number <= 1e9)\n";
    return false;
  }
  out = d;
  return true;
}

namespace {

template <class T, class ParseOne>
std::vector<T> parse_env_list(const char* v, ParseOne parse_one) {
  std::vector<T> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    T x{};
    if (!parse_one(item.c_str(), x)) return {};
    out.push_back(x);
  }
  return out;
}

}  // namespace

std::vector<std::uint64_t> parse_env_u64_list(const char* name, const char* v,
                                              std::uint64_t min,
                                              std::uint64_t max) {
  return parse_env_list<std::uint64_t>(
      v, [&](const char* item, std::uint64_t& x) {
        return parse_env_u64(name, item, min, max, x);
      });
}

std::vector<double> parse_env_double_list(const char* name, const char* v) {
  return parse_env_list<double>(v, [&](const char* item, double& x) {
    return parse_env_double(name, item, x);
  });
}

void apply_bench_env(CampaignConfig& cfg) {
  std::uint64_t n = 0;
  double d = 0.0;
  if (const char* v = std::getenv("MTS_BENCH_REPS")) {
    if (parse_env_u64("MTS_BENCH_REPS", v, 1, 100000, n)) {
      cfg.repetitions = static_cast<std::uint32_t>(n);
    }
  }
  if (const char* v = std::getenv("MTS_BENCH_SIM_TIME")) {
    if (parse_env_double("MTS_BENCH_SIM_TIME", v, d)) {
      cfg.base.sim_time = sim::Time::seconds(d);
    }
  }
  if (const char* v = std::getenv("MTS_BENCH_SPEEDS")) {
    auto speeds = parse_env_double_list("MTS_BENCH_SPEEDS", v);
    if (!speeds.empty()) cfg.speeds = std::move(speeds);
  }
  if (const char* v = std::getenv("MTS_BENCH_THREADS")) {
    if (parse_env_u64("MTS_BENCH_THREADS", v, 0, 4096, n)) {
      cfg.threads = static_cast<unsigned>(n);  // 0 = hardware concurrency
    } else {
      std::cerr << "warning: MTS_BENCH_THREADS falling back to hardware "
                   "concurrency ("
                << std::max(1u, std::thread::hardware_concurrency())
                << " threads)\n";
      cfg.threads = 0;
    }
  }
  if (const char* v = std::getenv("MTS_BENCH_NODES")) {
    if (parse_env_u64("MTS_BENCH_NODES", v, 2, 100000, n)) {
      cfg.base.node_count = static_cast<std::uint32_t>(n);
    }
  }
}

}  // namespace mts::harness
