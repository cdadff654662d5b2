#include "harness/campaign_cache.hpp"

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/campaign_csv.hpp"
#include "sim/rng.hpp"

namespace mts::harness {

namespace {

bool cache_disabled() {
  const char* v = std::getenv("MTS_BENCH_NO_CACHE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace

std::filesystem::path CampaignCache::directory() {
  if (const char* v = std::getenv("MTS_BENCH_CACHE_DIR")) {
    return std::filesystem::path(v);
  }
  return std::filesystem::path(".mts_bench_cache");
}

std::string CampaignCache::key_of(const CampaignConfig& cfg) {
  // Hash every result-affecting input.  Scenario knobs that the
  // ablation benches vary must be included or they would collide.
  std::ostringstream os;
  os << 'v' << csv::kVersion << '|' << cfg.repetitions << '|'
     << cfg.seed_base << '|' << cfg.base.node_count << '|'
     << cfg.base.sim_time.nanoseconds() << '|' << cfg.base.field.width << 'x'
     << cfg.base.field.height << '|' << cfg.base.min_speed << '|'
     << cfg.base.pause.nanoseconds() << '|' << cfg.base.radio_range << '|'
     << cfg.base.flow_count << '|' << cfg.base.min_flow_distance << '|'
     << cfg.base.tcp.segment_bytes << '|' << cfg.base.tcp.max_window << '|'
     << static_cast<int>(cfg.base.tcp.variant) << '|'
     << cfg.base.mts.max_paths << '|'
     << cfg.base.mts.check_period.nanoseconds() << '|'
     << cfg.base.mts.freshness_periods << '|'
     << cfg.base.mac.rts_threshold_bytes << '|'
     << cfg.base.channel.cs_range_factor << '|'
     << cfg.base.dsr.cache_expiry.nanoseconds() << '|'
     << cfg.base.aodv.active_route_timeout.nanoseconds() << '|'
     << cfg.base.aodv.local_repair << '|'
     << cfg.base.secrecy.enabled << ','
     << static_cast<int>(cfg.base.secrecy.key_bytes) << ','
     << cfg.base.secrecy.threshold << '|' << cfg.base.eavesdropper_enabled
     << '|' << cfg.base.fading_enabled;
  if (cfg.base.fading_enabled) {
    // Not fading.range_m: the scenario replaces it with radio_range.
    os << ',' << cfg.base.fading.faded_fraction << ','
       << cfg.base.fading.fade_probability << ','
       << cfg.base.fading.coherence_time.nanoseconds();
  }
  os << '|';
  for (const FlowSpec& f : cfg.base.explicit_flows) {
    os << f.src << ',' << f.dst << ',' << f.start.nanoseconds() << ';';
  }
  os << '|';
  // Exact bits: two layouts a millimetre apart must not share a key.
  for (const mobility::Vec2& p : cfg.base.static_positions) {
    os << std::bit_cast<std::uint64_t>(p.x) << ','
       << std::bit_cast<std::uint64_t>(p.y) << ';';
  }
  os << '|';
  for (Protocol p : cfg.protocols) os << static_cast<int>(p) << ';';
  os << '|';
  for (double s : cfg.speeds) os << s << ';';
  os << '|';
  for (const security::AdversarySpec& a : cfg.adversaries) {
    os << static_cast<int>(a.kind) << ',' << a.count << ',' << a.sniff_range
       << ',' << a.min_speed << ',' << a.max_speed << ','
       << a.pause.nanoseconds() << ',' << a.drop_prob << ','
       << a.active_window.nanoseconds() << ','
       << a.active_period.nanoseconds() << ',' << a.flood_rate << ','
       << a.flood_start.nanoseconds() << ',';
    for (net::NodeId m : a.members) os << m << '.';
    os << ';';
  }
  os << '|';
  for (const security::DefenseSpec& d : cfg.defenses) {
    os << static_cast<int>(d.kind) << ','
       << d.probe_period.nanoseconds() << ',' << d.ewma_alpha << ','
       << d.demote_threshold << ',' << d.min_probes << ',' << d.leash_slack
       << ',' << d.rreq_rate << ',' << d.rreq_burst << ';';
  }
  os << '|';
  for (const traffic::TrafficSpec& t : cfg.traffics) {
    os << t.enabled << ',' << t.gateway_count << ',' << t.user_pool << ','
       << t.session_rate << ',' << t.diurnal_bucket.nanoseconds() << ','
       << t.bulk_fraction << ',' << t.max_concurrent_flows << ',';
    for (double w : t.diurnal) os << w << '.';
    for (const traffic::ClassSpec* c : {&t.messaging, &t.bulk}) {
      os << ',' << c->min_flows << '-' << c->max_flows << '-'
         << c->min_segments << '-' << c->max_segments << '-' << c->think_min_s
         << '-' << c->think_max_s << '-' << c->uplink;
    }
    os << ';';
  }
  const std::uint64_t h = sim::splitmix64(sim::fnv1a(os.str()));
  std::ostringstream name;
  name << std::hex << h;
  return name.str();
}

std::optional<CampaignResult> CampaignCache::load(const CampaignConfig& cfg) {
  if (cache_disabled()) return std::nullopt;
  const auto path = directory() / (key_of(cfg) + ".csv");
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  // Slurp the whole file: a store interrupted mid-write (power loss on a
  // filesystem that shortened the rename guarantee, a hand-truncated
  // export, ...) leaves a final line without its newline.  Requiring the
  // terminator catches a truncation at *any* byte offset of the last
  // row, including ones that would still split into a plausible cell
  // count.
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  if (text.empty() || text.back() != '\n') return std::nullopt;
  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line)) return std::nullopt;
  // The header fixes the row width: a v9 file whose last row truncated
  // down to a valid *older* width must not sneak through as that older
  // version.
  const auto cells = csv::header_cells(line);
  if (!cells.has_value()) return std::nullopt;
  CampaignResult result;
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto m = csv::parse_row(line, *cells);
    if (!m.has_value()) return std::nullopt;  // corrupt: full miss
    result.add(std::move(*m));
    ++rows;
  }
  const std::size_t expected = cfg.protocols.size() * cfg.speeds.size() *
                               cfg.adversaries.size() * cfg.defenses.size() *
                               cfg.traffics.size() * cfg.repetitions;
  if (rows != expected) return std::nullopt;
  return result;
}

void CampaignCache::store(const CampaignConfig& cfg,
                          const CampaignResult& result) {
  if (cache_disabled()) return;
  std::error_code ec;
  std::filesystem::create_directories(directory(), ec);
  if (ec) return;
  const auto path = directory() / (key_of(cfg) + ".csv");
  // Crash safety: write the whole file beside the target, then rename.
  // A campaign killed mid-store leaves at worst a stale .tmp (swept by
  // the fabric supervisor), never a half-written cache entry that a
  // later run would have to distrust.
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    csv::write_campaign(out, cfg, result);
    out.flush();
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

CampaignResult CampaignCache::run(const CampaignConfig& cfg,
                                  std::ostream* progress) {
  if (auto cached = load(cfg)) {
    if (progress != nullptr) {
      (*progress) << "  [campaign cache hit: " << cached->total_runs()
                  << " runs]\n";
    }
    return std::move(*cached);
  }
  CampaignResult result = run_campaign(cfg, progress);
  store(cfg, result);
  return result;
}

}  // namespace mts::harness
