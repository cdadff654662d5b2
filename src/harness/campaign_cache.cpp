#include "harness/campaign_cache.hpp"

#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <type_traits>

#include "harness/campaign_csv.hpp"
#include "sim/rng.hpp"

namespace mts::harness {

namespace {

bool cache_disabled() {
  const char* v = std::getenv("MTS_BENCH_NO_CACHE");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// The cache key.  Every field of every struct reachable from
// CampaignConfig is keyed, except the three groups excluded below, each
// with its reason.  Each `visit` binds *all* members of its struct, so a
// member added later that is neither keyed nor excluded fails to compile.

template <class T, class U>
concept Like = std::same_as<std::remove_const_t<T>, U>;

template <class V, class... T>
void walk(V& v, T&... fields);

void visit(auto& v, Like<CampaignConfig> auto& s) {
  auto& [base, speeds, protocols, adversaries, defenses, traffics,
         repetitions, seed_base, threads] = s;
  // Not keyed: threads — the pool size cannot change a result.
  walk(v, base, speeds, protocols, adversaries, defenses, traffics,
       repetitions, seed_base);
}

void visit(auto& v, Like<ScenarioConfig> auto& s) {
  auto& [node_count, field, max_speed, min_speed, pause, sim_time,
         radio_range, protocol, seed, flow_count, explicit_flows,
         min_flow_distance, eavesdropper_enabled, adversary, defense, secrecy,
         traffic, static_positions, fading_enabled, fading, tcp, mac, mts,
         aodv, dsr, smr, channel] = s;
  // Not keyed: protocol, max_speed, seed, adversary, defense, traffic —
  // cell_scenario overwrites them from the grid axes, which are keyed.
  walk(v, node_count, field, min_speed, pause, sim_time, radio_range,
       flow_count, explicit_flows, min_flow_distance, eavesdropper_enabled,
       secrecy, static_positions, fading_enabled, fading, tcp, mac, mts,
       aodv, dsr, smr, channel);
}

void visit(auto& v, Like<mobility::Field> auto& s) {
  auto& [width, height] = s;
  walk(v, width, height);
}

void visit(auto& v, Like<mobility::Vec2> auto& s) {
  auto& [x, y] = s;
  walk(v, x, y);
}

void visit(auto& v, Like<FlowSpec> auto& s) {
  auto& [src, dst, start] = s;
  walk(v, src, dst, start);
}

void visit(auto& v, Like<phy::FadingConfig> auto& s) {
  auto& [range_m, faded_fraction, fade_probability, coherence_time] = s;
  // Not keyed: range_m — the scenario replaces it with radio_range.
  walk(v, faded_fraction, fade_probability, coherence_time);
}

void visit(auto& v, Like<tcp::TcpConfig> auto& s) {
  auto& [segment_bytes, max_window, variant, dupack_threshold, initial_rto,
         min_rto, max_rto, rtt_alpha, rtt_beta, trace_cwnd] = s;
  walk(v, segment_bytes, max_window, variant, dupack_threshold, initial_rto,
       min_rto, max_rto, rtt_alpha, rtt_beta, trace_cwnd);
}

void visit(auto& v, Like<mac::MacConfig> auto& s) {
  auto& [data_rate_bps, basic_rate_bps, slot, sifs, difs, plcp_overhead,
         cw_min, cw_max, retry_limit, data_header_bytes, ack_bytes, rts_bytes,
         cts_bytes, queue_capacity, rts_threshold_bytes, timeout_slack] = s;
  walk(v, data_rate_bps, basic_rate_bps, slot, sifs, difs, plcp_overhead,
       cw_min, cw_max, retry_limit, data_header_bytes, ack_bytes, rts_bytes,
       cts_bytes, queue_capacity, rts_threshold_bytes, timeout_slack);
}

void visit(auto& v, Like<core::MtsConfig> auto& s) {
  auto& [max_paths, check_period, check_jitter, freshness_periods,
         net_diameter_ttl, rrep_wait, rreq_retries, buffer_capacity,
         buffer_max_age, purge_period] = s;
  walk(v, max_paths, check_period, check_jitter, freshness_periods,
       net_diameter_ttl, rrep_wait, rreq_retries, buffer_capacity,
       buffer_max_age, purge_period);
}

void visit(auto& v, Like<routing::aodv::AodvConfig> auto& s) {
  auto& [active_route_timeout, rrep_wait, rreq_retries, net_diameter_ttl,
         intermediate_reply, local_repair, buffer_capacity, buffer_max_age,
         purge_period] = s;
  walk(v, active_route_timeout, rrep_wait, rreq_retries, net_diameter_ttl,
       intermediate_reply, local_repair, buffer_capacity, buffer_max_age,
       purge_period);
}

void visit(auto& v, Like<routing::dsr::DsrConfig> auto& s) {
  auto& [cache_capacity, cache_expiry, buffer_capacity, buffer_max_age,
         rreq_initial_wait, rreq_max_wait, max_route_len, reply_from_cache,
         max_salvage, purge_period] = s;
  walk(v, cache_capacity, cache_expiry, buffer_capacity, buffer_max_age,
       rreq_initial_wait, rreq_max_wait, max_route_len, reply_from_cache,
       max_salvage, purge_period);
}

void visit(auto& v, Like<routing::smr::SmrConfig> auto& s) {
  auto& [select_window, route_count, max_dup_forwards, max_route_len,
         buffer_capacity, buffer_max_age, rreq_initial_wait, rreq_max_wait,
         purge_period] = s;
  walk(v, select_window, route_count, max_dup_forwards, max_route_len,
       buffer_capacity, buffer_max_age, rreq_initial_wait, rreq_max_wait,
       purge_period);
}

void visit(auto& v, Like<phy::ChannelConfig> auto& s) {
  auto& [cs_range_factor, use_spatial_index, index_rebuild_period] = s;
  walk(v, cs_range_factor, use_spatial_index, index_rebuild_period);
}

void visit(auto& v, Like<security::AdversarySpec> auto& s) {
  auto& [kind, count, sniff_range, min_speed, max_speed, pause, members,
         drop_prob, active_window, active_period, flood_rate, flood_start] = s;
  walk(v, kind, count, sniff_range, min_speed, max_speed, pause, members,
       drop_prob, active_window, active_period, flood_rate, flood_start);
}

void visit(auto& v, Like<security::DefenseSpec> auto& s) {
  auto& [kind, probe_period, ewma_alpha, demote_threshold, min_probes,
         leash_slack, rreq_rate, rreq_burst] = s;
  walk(v, kind, probe_period, ewma_alpha, demote_threshold, min_probes,
       leash_slack, rreq_rate, rreq_burst);
}

void visit(auto& v, Like<security::SecrecySpec> auto& s) {
  auto& [enabled, key_bytes, threshold] = s;
  walk(v, enabled, key_bytes, threshold);
}

void visit(auto& v, Like<traffic::TrafficSpec> auto& s) {
  auto& [enabled, gateway_count, user_pool, session_rate, diurnal,
         diurnal_bucket, bulk_fraction, messaging, bulk,
         max_concurrent_flows] = s;
  walk(v, enabled, gateway_count, user_pool, session_rate, diurnal,
       diurnal_bucket, bulk_fraction, messaging, bulk, max_concurrent_flows);
}

void visit(auto& v, Like<traffic::ClassSpec> auto& s) {
  auto& [min_flows, max_flows, min_segments, max_segments, think_min_s,
         think_max_s, uplink] = s;
  walk(v, min_flows, max_flows, min_segments, max_segments, think_min_s,
       think_max_s, uplink);
}

/// Hands each struct field to its `visit`, and every other field — a
/// leaf, or a std::vector before its elements — to `v`.
template <class V, class... T>
void walk(V& v, T&... fields) {
  auto one = [&](auto& x) {
    if constexpr (requires { visit(v, x); }) {
      visit(v, x);
    } else {
      v(x);
      if constexpr (requires { x.size(); }) {
        for (auto& e : x) walk(v, e);
      }
    }
  };
  (one(fields), ...);
}

}  // namespace

std::filesystem::path CampaignCache::directory() {
  if (const char* v = std::getenv("MTS_BENCH_CACHE_DIR")) {
    return std::filesystem::path(v);
  }
  return std::filesystem::path(".mts_bench_cache");
}

std::string CampaignCache::key_of(const CampaignConfig& cfg) {
  std::ostringstream os;
  os << 'v' << csv::kVersion << '|';
  auto write = [&](const auto& x) {
    using T = std::remove_cvref_t<decltype(x)>;
    if constexpr (std::same_as<T, double>) {
      os << std::bit_cast<std::uint64_t>(x);  // exact bits, not 6 digits
    } else if constexpr (std::same_as<T, sim::Time>) {
      os << x.nanoseconds();
    } else if constexpr (requires { x.size(); }) {
      os << x.size();  // a list's length, so no two configs share a text
    } else {
      os << static_cast<std::uint64_t>(x);
    }
    os << ',';
  };
  walk(write, cfg);
  const std::uint64_t h = sim::splitmix64(sim::fnv1a(os.str()));
  std::ostringstream name;
  name << std::hex << h;
  return name.str();
}

std::vector<CampaignConfig> CampaignCache::perturbations(
    const CampaignConfig& cfg) {
  std::vector<CampaignConfig> out;
  for (;;) {
    CampaignConfig perturbed = cfg;
    std::size_t seen = 0;
    auto nudge = [&](auto& x) {
      using T = std::remove_cvref_t<decltype(x)>;
      if (seen++ != out.size()) return;
      if constexpr (std::same_as<T, double>) {
        x = std::nextafter(x, std::numeric_limits<double>::infinity());
      } else if constexpr (std::same_as<T, sim::Time>) {
        x += sim::Time::ns(1);
      } else if constexpr (requires { x.emplace_back(); }) {
        x.emplace_back();
      } else {  // integers, enums and bools: flip the lowest bit
        x = static_cast<T>(static_cast<std::uint64_t>(x) ^ 1);
      }
    };
    walk(nudge, perturbed);
    if (seen <= out.size()) return out;  // every leaf and list nudged
    out.push_back(std::move(perturbed));
  }
}

std::optional<CampaignResult> CampaignCache::load(const CampaignConfig& cfg) {
  if (cache_disabled()) return std::nullopt;
  auto rows = csv::read_file(directory() / (key_of(cfg) + ".csv"));
  if (!rows.has_value()) return std::nullopt;  // missing or corrupt
  std::size_t expected = 0;
  for_each_cell(cfg, [&](const WorkCell& c) { expected += c.runs(); });
  if (rows->size() != expected) return std::nullopt;
  CampaignResult result;
  for (RunMetrics& m : *rows) result.add(std::move(m));
  return result;
}

void CampaignCache::store(const CampaignConfig& cfg,
                          const CampaignResult& result) {
  if (cache_disabled()) return;
  std::error_code ec;  // a failure here surfaces as a failed write below
  std::filesystem::create_directories(directory(), ec);
  csv::write_file(directory() / (key_of(cfg) + ".csv"), [&](std::ostream& os) {
    csv::write_campaign(os, cfg, result);
  });
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
