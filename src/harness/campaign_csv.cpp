#include "harness/campaign_csv.hpp"

#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

namespace mts::harness::csv {

namespace {

/// The column list: every CSV column in file order, with the
/// `RunMetrics` member it holds.  `M` is `RunMetrics` (parsing) or
/// `const RunMetrics` (writing, naming).  Adding a column here is the
/// whole change — the header, writer and parser follow — plus a
/// `kVersion` bump and a row in docs/metrics.md.
template <class M, class F>
void columns(M& m, F&& f) {
  auto& msg = m.traffic_classes[0];
  auto& bulk = m.traffic_classes[1];
  f("protocol", m.protocol);
  f("speed", m.max_speed);
  f("seed", m.seed);
  f("participating", m.participating_nodes);
  f("relay_stddev", m.relay_stddev);
  f("alpha", m.alpha);
  f("max_beta", m.max_beta);
  f("highest_ri", m.highest_interception_ratio);
  f("pe", m.pe);
  f("pr", m.pr);
  f("ri", m.interception_ratio);
  f("delay_s", m.avg_delay_s);
  f("thr_seg_s", m.throughput_seg_s);
  f("thr_kbps", m.throughput_kbps);
  f("delivery", m.delivery_rate);
  f("delivered", m.segments_delivered);
  f("data_sent", m.data_packets_sent);
  f("retx", m.retransmits);
  f("timeouts", m.timeouts);
  f("acks_sent", m.acks_sent);
  f("acks_recv", m.acks_received);
  f("eavesdropper", m.eavesdropper);
  f("ctrl", m.control_packets);
  f("switches", m.route_switches);
  f("checks", m.checks_sent);
  f("events", m.events_executed);
  f("adv_index", m.adversary_index);
  f("adv_kind", m.adversary_kind);
  f("adv_count", m.adversary_count);
  f("adv_captured", m.coalition_captured);
  f("adv_ri", m.coalition_interception_ratio);
  f("adv_missing", m.fragments_missing);
  f("adv_absorbed", m.blackhole_absorbed);
  f("adv_tunneled", m.wormhole_tunneled);
  f("adv_gray_absorbed", m.grayhole_absorbed);
  f("adv_endpoint_acc", m.endpoint_inference_accuracy);
  f("adv_flood_injected", m.flood_injected);
  f("def_index", m.defense_index);
  f("def_kind", m.defense_kind);
  f("def_detect_s", m.detection_time_s);
  f("def_quarantined", m.paths_quarantined);
  f("def_recovery_s", m.recovery_time_s);
  f("def_fpr", m.false_positive_rate);
  f("def_suppressed", m.flood_suppressed);
  f("def_probes", m.probes_sent);
  f("sec_shares", m.secrecy_shares);
  f("sec_threshold", m.secrecy_threshold);
  f("sec_captured", m.shares_captured);
  f("sec_keys", m.keys_recovered);
  f("sec_recovery", m.key_recovery_rate);
  f("tra_index", m.traffic_index);
  f("tra_sessions", m.sessions_started);
  f("tra_completed", m.sessions_completed);
  f("tra_msg_flows", msg.flows_completed);
  f("tra_msg_p50_ms", msg.delay_p50_ms);
  f("tra_msg_p95_ms", msg.delay_p95_ms);
  f("tra_msg_p99_ms", msg.delay_p99_ms);
  f("tra_msg_goodput", msg.goodput_p50_seg_s);
  f("tra_msg_exposure", msg.key_exposure);
  f("tra_bulk_flows", bulk.flows_completed);
  f("tra_bulk_p50_ms", bulk.delay_p50_ms);
  f("tra_bulk_p95_ms", bulk.delay_p95_ms);
  f("tra_bulk_p99_ms", bulk.delay_p99_ms);
  f("tra_bulk_goodput", bulk.goodput_p50_seg_s);
  f("tra_bulk_exposure", bulk.key_exposure);
  f("run_status", m.run_status);
  f("run_attempts", m.attempts);
  f("run_error", m.run_error);
  // Last, and never empty ('-' = none), so getline-based parsing never
  // eats a trailing empty cell.
  f("adv_members", m.adversary_members);
}

// Cell codecs, one pair per member type.  Parsers throw on a malformed
// cell; `parse_row` turns that into nullopt.

template <class T>
void put(std::ostream& os, const T& v) {
  if constexpr (std::is_enum_v<T>) {
    os << static_cast<int>(v);
  } else {
    os << v;
  }
}

void put(std::ostream& os, RunStatus s) { os << run_status_name(s); }

void put(std::ostream& os, const std::string& e) { os << sanitize_error(e); }

void put(std::ostream& os, const std::vector<net::NodeId>& ids) {
  if (ids.empty()) os << '-';
  for (net::NodeId id : ids) os << id << '.';
}

void get(const std::string& cell, double& v) { v = std::stod(cell); }

// Integers and enums: the value must survive the narrowing.
template <class T>
void get(const std::string& cell, T& v) {
  const unsigned long long n = std::stoull(cell);
  v = static_cast<T>(n);
  if (static_cast<unsigned long long>(v) != n) throw std::out_of_range(cell);
}

void get(const std::string& cell, RunStatus& s) {
  if (cell != "ok" && cell != "failed") throw std::invalid_argument(cell);
  s = cell == "ok" ? RunStatus::kOk : RunStatus::kFailed;
}

void get(const std::string& cell, std::string& e) { if (cell != "-") e = cell; }

void get(const std::string& cell, std::vector<net::NodeId>& ids) {
  if (cell == "-") return;
  std::stringstream ss(cell);
  std::string id;
  while (std::getline(ss, id, '.')) {
    if (!id.empty()) get(id, ids.emplace_back());
  }
}

}  // namespace

const std::string& header() {
  static const std::string kHeader = [] {
    std::string out;
    const RunMetrics m;
    columns(m, [&](const char* name, const auto&) {
      if (!out.empty()) out += ',';
      out += name;
    });
    return out;
  }();
  return kHeader;
}

std::string sanitize_error(const std::string& msg) {
  if (msg.empty()) return "-";
  std::string out = msg;
  for (char& c : out) {
    if (c == ',' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

void write_row(std::ostream& os, const RunMetrics& m) {
  // Round-trip exactly: the cache's contract is bit-for-bit replay, and
  // the default 6 significant digits would truncate every double.
  os.precision(std::numeric_limits<double>::max_digits10);
  const char* sep = "";
  columns(m, [&](const char*, const auto& v) {
    os << sep;
    put(os, v);
    sep = ",";
  });
  os << '\n';
}

std::optional<RunMetrics> parse_row(const std::string& line,
                                    std::size_t expected_cells) {
  std::stringstream ss(line);
  std::string cell;
  std::vector<std::string> cells;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (cells.size() != expected_cells) return std::nullopt;
  try {
    RunMetrics m;
    std::size_t i = 0;
    columns(m, [&](const char*, auto& v) { get(cells.at(i++), v); });
    if (i != cells.size()) return std::nullopt;
    return m;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

void write_campaign(std::ostream& os, const CampaignConfig& cfg,
                    const CampaignResult& result) {
  os << header() << '\n';
  for_each_cell(cfg, [&](const WorkCell& c) {
    for (const RunMetrics& m :
         result.runs(cfg.protocols[c.protocol], cfg.speeds[c.speed],
                     c.adversary, c.defense, c.traffic)) {
      write_row(os, m);
    }
  });
}

std::optional<std::vector<RunMetrics>> read_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // A write interrupted mid-row (power loss on a filesystem that broke
  // the rename guarantee, a hand-truncated export) loses the final
  // newline, whatever cell count the remnant happens to split into.
  if (text.empty() || text.back() != '\n') return std::nullopt;
  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line) || line != header()) return std::nullopt;
  std::vector<RunMetrics> rows;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    auto m = parse_row(line);
    if (!m.has_value()) return std::nullopt;
    rows.push_back(std::move(*m));
  }
  return rows;
}

bool write_file(const std::filesystem::path& path,
                const std::function<void(std::ostream&)>& write,
                std::string* error) {
  // A writer killed mid-write leaves at worst a stale .tmp (swept by
  // the fabric supervisor), never a half-written file.
  const std::string tmp = path.string() + ".tmp";
  auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return false;
  };
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return fail("cannot open " + tmp);
    write(out);
    out.flush();
    if (!out) return fail("write failed on " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail("rename failed: " + ec.message());
  return true;
}

}  // namespace mts::harness::csv
