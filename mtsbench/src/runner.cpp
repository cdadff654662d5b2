// Workload runner for the mtsbench benchmark.
//
// Usage: mtsbench_runner <config-file>
//
// The config file is generated by mtsbench/run.py from the workload name
// and seed (one `key=value` per line); every input here derives from it.
// It drives the simulator only through public entry points
// (harness::run_scenario, harness::run_campaign_fabric, net::TraceHub,
// net::wire, phy::NeighborIndex, stats::PercentileDigest, harness::csv,
// harness::CampaignCache), times its own calls into them, and prints one
// JSON document of raw observations on stdout.  All aggregation (medians,
// quartiles, ratios, span self time) happens in run.py.
//
// Modes:
//   trace=0  batches of set-up passes, then repetitions of the workload
//            until `seconds` elapse (at least kMinReps), each batch and
//            repetition preceded by the frozen reference loop.  No
//            TraceHub subscriber.
//   trace=1  rounds of each scenario untraced then traced, the fabric
//            passes over the same grid, and the codec / index / digest /
//            CSV / cache-key replays, each wrapped in a span.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/campaign_cache.hpp"
#include "harness/campaign_csv.hpp"
#include "harness/scenario.hpp"
#include "harness/shard_store.hpp"
#include "harness/supervisor.hpp"
#include "harness/work_unit.hpp"
#include "net/trace.hpp"
#include "net/wire.hpp"
#include "phy/neighbor_index.hpp"
#include "sim/rng.hpp"
#include "stats/digest.hpp"

namespace {

using namespace mts;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Repetitions (or traced rounds) every mode makes whatever `seconds`
/// says: the fingerprint gate needs repetitions to compare, and with
/// three a median still stands when one of them is an outlier.
constexpr std::size_t kMinReps = 3;

/// Set-up samples per run, and the host time each sample's batch of
/// set-up passes lasts at least.  One pass takes 1 ms (userplane) to
/// 35 ms (sweep); timed one at a time the median moved by over a quarter
/// between runs, so each sample times a batch.
constexpr std::size_t kSetupSamples = 11;
constexpr double kSetupBatchS = 0.1;

/// Untraced/traced pairs the traced mode times at least for
/// trace.overhead_frac: one pair spreads by about +-10% on a shared host,
/// so a median of fewer says little.  Single-scenario workloads need ten
/// rounds to get there.
constexpr std::size_t kMinPairs = 10;

// --------------------------------------------------------------------------
// Config
// --------------------------------------------------------------------------

struct Config {
  std::map<std::string, std::string> kv;

  [[nodiscard]] const std::string& str(const std::string& key) const {
    const auto it = kv.find(key);
    if (it == kv.end()) throw std::runtime_error("config: missing key " + key);
    return it->second;
  }
  [[nodiscard]] double num(const std::string& key) const {
    const std::string& v = str(key);
    std::size_t used = 0;
    const double d = std::stod(v, &used);
    if (used != v.size()) throw std::runtime_error("config: bad number " + key);
    return d;
  }
  [[nodiscard]] std::uint64_t u64(const std::string& key) const {
    const std::string& v = str(key);
    std::size_t used = 0;
    const unsigned long long n = std::stoull(v, &used);
    if (used != v.size()) throw std::runtime_error("config: bad integer " + key);
    return n;
  }
  [[nodiscard]] std::vector<std::string> list(const std::string& key) const {
    std::vector<std::string> out;
    std::stringstream ss(str(key));
    for (std::string tok; std::getline(ss, tok, ',');) {
      if (!tok.empty()) out.push_back(tok);
    }
    return out;
  }
};

Config read_config(const char* path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error(std::string("cannot open config ") + path);
  Config cfg;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) throw std::runtime_error("config: bad line " + line);
    cfg.kv[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return cfg;
}

harness::Protocol parse_protocol(const std::string& s) {
  if (s == "dsr") return harness::Protocol::kDsr;
  if (s == "aodv") return harness::Protocol::kAodv;
  if (s == "mts") return harness::Protocol::kMts;
  if (s == "smr") return harness::Protocol::kSmr;
  throw std::runtime_error("config: unknown protocol " + s);
}

harness::CampaignConfig campaign_of(const Config& c) {
  harness::CampaignConfig cc;
  harness::ScenarioConfig& b = cc.base;
  b.node_count = static_cast<std::uint32_t>(c.u64("nodes"));
  b.field = mobility::Field{c.num("field_m"), c.num("field_m")};
  b.sim_time = sim::Time::seconds(c.num("sim_time_s"));
  b.flow_count = static_cast<std::uint32_t>(c.u64("flows"));
  b.secrecy.enabled = c.u64("secrecy") != 0;
  cc.protocols.clear();
  for (const std::string& p : c.list("protocols")) {
    cc.protocols.push_back(parse_protocol(p));
  }
  cc.speeds.clear();
  for (const std::string& s : c.list("speeds")) cc.speeds.push_back(std::stod(s));
  security::AdversarySpec adv;
  if (c.str("adversary") == "colluding") {
    adv.kind = security::AdversaryKind::kColluding;
    adv.count = static_cast<std::uint32_t>(c.u64("adversary_count"));
    for (const std::string& m : c.list("adversary_members")) {
      adv.members.push_back(static_cast<net::NodeId>(std::stoul(m)));
    }
  } else if (c.str("adversary") != "none") {
    throw std::runtime_error("config: unknown adversary " + c.str("adversary"));
  }
  cc.adversaries = {adv};
  traffic::TrafficSpec tr;
  if (c.u64("traffic") != 0) {
    tr.enabled = true;
    tr.session_rate = c.num("traffic_rate");
    tr.gateway_count = static_cast<std::uint32_t>(c.u64("traffic_gateways"));
    tr.user_pool = static_cast<std::uint32_t>(c.u64("traffic_pool"));
  }
  cc.traffics = {tr};
  cc.repetitions = static_cast<std::uint32_t>(c.u64("reps"));
  cc.seed_base = c.u64("seed_base");
  cc.threads = static_cast<unsigned>(c.u64("workers"));
  return cc;
}

// --------------------------------------------------------------------------
// Output helpers
// --------------------------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string jlist(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += jnum(v[i]);
  }
  return out + "]";
}

std::string jlist(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += jstr(v[i]);
  }
  return out + "]";
}

/// Key/value JSON object builder (insertion order kept).
class JObj {
 public:
  JObj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + jstr(k) + ":" + v;
    return *this;
  }
  JObj& num(const std::string& k, double v) { return raw(k, jnum(v)); }
  JObj& str(const std::string& k, const std::string& v) {
    return raw(k, jstr(v));
  }
  [[nodiscard]] std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double peak_rss_mib(int who) {
  rusage ru{};
  if (getrusage(who, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Host-speed reference: a fixed discrete-event loop (binary heap of
/// timed events, a hash map of per-node state) of about 25 ms.  It is
/// benchmark code that no change to the simulator touches, so its time
/// moves only with the host: the shared host this benchmark was tuned on
/// swings by a quarter over minutes, and this loop tracks that swing in
/// simulator-like code (correlation 0.78 with a 50-node AODV run).
double reference_loop_s() {
  struct Ev {
    std::uint64_t t;
    std::uint32_t node;
    bool operator<(const Ev& o) const { return t > o.t; }
  };
  const auto t0 = Clock::now();
  std::priority_queue<Ev> q;
  std::unordered_map<std::uint32_t, std::uint64_t> state;
  state.reserve(4096);
  std::uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  constexpr std::uint32_t kNodes = 2000;
  for (std::uint32_t i = 0; i < kNodes; ++i) q.push({next() % 1000000, i});
  for (int k = 0; k < 300000; ++k) {
    const Ev e = q.top();
    q.pop();
    state[e.node] += e.t;
    const auto to = static_cast<std::uint32_t>(
        (e.node * 2654435761ULL + next()) % kNodes);
    q.push({e.t + 1 + next() % 5000, to});
  }
  if (state.size() != kNodes) throw std::runtime_error("reference loop");
  return seconds_since(t0);
}

// --------------------------------------------------------------------------
// Spans: recorded around the benchmark's own calls, kept in memory and
// written out once at the end.
// --------------------------------------------------------------------------

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  std::size_t begin(const std::string& name, std::uint64_t run) {
    const long parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
    spans_.push_back(Span{name, now_ns(), 0, parent, run});
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void end(std::size_t id) {
    spans_[id].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }
  [[nodiscard]] double seconds(std::size_t id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }

  void write(const std::filesystem::path& path) const {
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JObj()
                 .num("id", static_cast<double>(i))
                 .str("name", s.name)
                 .num("start_ns", static_cast<double>(s.start_ns))
                 .num("end_ns", static_cast<double>(s.end_ns))
                 .num("parent", static_cast<double>(s.parent))
                 .num("run", static_cast<double>(s.run))
                 .done()
          << '\n';
    }
  }

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    long parent;
    std::uint64_t run;
  };
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span guard.
class Scope {
 public:
  Scope(SpanLog& log, const std::string& name, std::uint64_t run)
      : log_(log), id_(log.begin(name, run)) {}
  ~Scope() { log_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::size_t id_;
};

// --------------------------------------------------------------------------
// Scenario list, fingerprints and per-run counts
// --------------------------------------------------------------------------

/// The grid's scenarios in grid order (protocol-major, then speed, rep).
std::vector<harness::ScenarioConfig> scenarios_of(
    const harness::CampaignConfig& cc) {
  std::vector<harness::ScenarioConfig> out;
  for (const harness::WorkUnit& u : harness::partition_campaign(cc, 1)) {
    for (const harness::WorkCell& cell : u.cells) {
      for (std::uint32_t r = cell.rep_begin; r < cell.rep_end; ++r) {
        out.push_back(harness::cell_scenario(cc, cell, r));
      }
    }
  }
  return out;
}

std::string scenario_label(const harness::ScenarioConfig& s) {
  std::ostringstream os;
  os << harness::protocol_name(s.protocol) << " n=" << s.node_count
     << " v=" << s.max_speed << " seed=" << s.seed;
  return os.str();
}

std::string fingerprint(const harness::RunMetrics& m) {
  std::ostringstream os;
  os << m.events_executed << '/' << m.segments_delivered << '/'
     << m.control_packets << '/' << m.pe << '/' << m.keys_recovered << '/'
     << m.sessions_started << '/' << m.sessions_completed;
  return os.str();
}

std::string counts_of(const harness::RunMetrics& m) {
  JObj o;
  o.str("protocol", harness::protocol_name(m.protocol))
      .num("events", static_cast<double>(m.events_executed))
      .num("heap_fallback_closures",
           static_cast<double>(m.heap_fallback_closures));
  for (std::size_t c = 0; c < sim::kEventCategoryCount; ++c) {
    o.num(std::string("events.") +
              sim::event_category_name(static_cast<sim::EventCategory>(c)),
          static_cast<double>(m.events_by_category[c]));
  }
  for (std::size_t r = 0; r < static_cast<std::size_t>(net::DropReason::kCount);
       ++r) {
    o.num(std::string("drops.") +
              net::drop_reason_name(static_cast<net::DropReason>(r)),
          static_cast<double>(m.drops[r]));
  }
  const auto& msg = m.traffic_classes[static_cast<std::size_t>(
      traffic::UserClass::kMessaging)];
  o.num("index_rebuilds", static_cast<double>(m.neighbor_rebuilds))
      .num("index_rebuild_allocs", static_cast<double>(m.neighbor_rebuild_allocs))
      .num("peak_live_legs", static_cast<double>(m.mobility_peak_live_legs))
      .num("control_packets", static_cast<double>(m.control_packets))
      .num("route_switches", static_cast<double>(m.route_switches))
      .num("retransmits", static_cast<double>(m.retransmits))
      .num("timeouts", static_cast<double>(m.timeouts))
      .num("segments_delivered", static_cast<double>(m.segments_delivered))
      .num("data_packets_sent", static_cast<double>(m.data_packets_sent))
      .num("delivery_rate", m.delivery_rate)
      .num("pe", static_cast<double>(m.pe))
      .num("interception_ratio", m.interception_ratio)
      .num("shares_captured", static_cast<double>(m.shares_captured))
      .num("keys_recovered", static_cast<double>(m.keys_recovered))
      .num("sessions_started", static_cast<double>(m.sessions_started))
      .num("sessions_completed", static_cast<double>(m.sessions_completed))
      .num("sessions_rejected", static_cast<double>(m.sessions_rejected))
      .num("msg_flows_completed", static_cast<double>(msg.flows_completed))
      .num("msg_delay_p95_ms", msg.delay_p95_ms);
  return o.done();
}

/// JSON list of counts_of over runs.
std::string counts_list(const std::vector<harness::RunMetrics>& runs) {
  std::string out = "[";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i != 0) out += ',';
    out += counts_of(runs[i]);
  }
  return out + "]";
}

/// A campaign result's runs in grid order (the order scenarios_of yields).
std::vector<harness::RunMetrics> runs_of(const harness::CampaignConfig& cc,
                                         const harness::CampaignResult& res) {
  std::vector<harness::RunMetrics> out;
  for (harness::Protocol p : cc.protocols) {
    for (double v : cc.speeds) {
      const auto& cell = res.runs(p, v, 0, 0, 0);
      out.insert(out.end(), cell.begin(), cell.end());
    }
  }
  return out;
}

/// CSV rows of runs: the byte-level identity the fabric-vs-serial gate
/// compares.
std::vector<std::string> rows_of(const std::vector<harness::RunMetrics>& runs) {
  std::vector<std::string> out;
  for (const harness::RunMetrics& m : runs) {
    std::ostringstream os;
    harness::csv::write_row(os, m);
    out.push_back(os.str());
  }
  return out;
}

// --------------------------------------------------------------------------
// Trace sink: plain fields only, plus a bounded per-kind packet sample for
// the codec replay (holding every handle would force copy-on-write clones).
// --------------------------------------------------------------------------

struct TraceTally {
  static constexpr std::size_t kSamplePerKind = 64;

  std::uint64_t forwards = 0;
  std::uint64_t delivers = 0;
  std::uint64_t data_forwards = 0;  // TCP data/ack only: the hop count base
  std::uint64_t data_delivers = 0;
  std::vector<double> hop_ms;  // forward -> forward/deliver
  std::unordered_map<std::uint32_t, std::int64_t> last_hop_ns;  // by uid
  std::map<int, std::vector<net::Packet>> sample;               // by kind

  void on(const net::TraceRecord& r) {
    const net::CommonHeader& c = r.packet.common();
    const bool data = c.kind == net::PacketKind::kTcpData ||
                      c.kind == net::PacketKind::kTcpAck;
    const std::int64_t at = r.at.nanoseconds();
    switch (r.op) {
      case net::TraceOp::kForward:
        ++forwards;
        if (data) {
          ++data_forwards;
          hop(c.uid, at, false);
        }
        break;
      case net::TraceOp::kDeliver:
        ++delivers;
        if (data) {
          ++data_delivers;
          hop(c.uid, at, true);
        }
        break;
      case net::TraceOp::kDrop:
        last_hop_ns.erase(c.uid);
        break;
      default:
        break;
    }
    auto& s = sample[static_cast<int>(c.kind)];
    if (r.op != net::TraceOp::kRouteSwitch && s.size() < kSamplePerKind) {
      s.push_back(r.packet);
    }
  }

 private:
  void hop(std::uint32_t uid, std::int64_t at, bool last) {
    const auto it = last_hop_ns.find(uid);
    if (it != last_hop_ns.end()) {
      hop_ms.push_back(static_cast<double>(at - it->second) * 1e-6);
      if (last) {
        last_hop_ns.erase(it);
      } else {
        it->second = at;
      }
    } else if (!last) {
      last_hop_ns.emplace(uid, at);
    }
  }
};

// --------------------------------------------------------------------------
// Workloads
// --------------------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    errors.push_back(why);
  }
};

struct SetupSamples {
  std::vector<double> per_pass_s;   // host seconds per pass, one per batch
  std::vector<double> reference_s;  // reference loop before each batch
};

/// Times `pass` in kSetupSamples batches of passes lasting at least
/// kSetupBatchS, each batch preceded by the reference loop so setup_s gets
/// the same host rescale as wall_s.  `after_batch` runs untimed.  One
/// untimed pass first warms up and sizes the batch.
template <class Pass, class After>
SetupSamples setup_samples(Pass pass, After after_batch) {
  const auto w0 = Clock::now();
  pass(0);
  after_batch();
  const double one = std::max(seconds_since(w0), 1e-6);
  const auto batch = static_cast<std::size_t>(std::ceil(kSetupBatchS / one));
  SetupSamples out;
  for (std::size_t k = 0; k < kSetupSamples; ++k) {
    out.reference_s.push_back(reference_loop_s());
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < batch; ++b) pass(b);
    out.per_pass_s.push_back(seconds_since(t0) / static_cast<double>(batch));
    after_batch();
  }
  return out;
}

/// Set-up of the scenario workloads: their scenarios built and torn down
/// with nothing simulated (smallest positive sim_time).
SetupSamples scenario_setup_samples(
    const std::vector<harness::ScenarioConfig>& scen) {
  return setup_samples(
      [&](std::size_t) {
        for (harness::ScenarioConfig s : scen) {
          s.sim_time = sim::Time::ns(1);
          (void)harness::run_scenario(s);
        }
      },
      [] {});
}

/// The fabric's set-up: grid partition, a fresh shard directory, and the
/// grid's scenarios built and torn down with nothing simulated (what the
/// workers do before their first event).  Each pass of a batch prepares
/// its own directory; they are removed between batches, untimed.
SetupSamples fabric_setup_samples(const harness::CampaignConfig& cc,
                                  const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  return setup_samples(
      [&](std::size_t b) {
        const auto units = harness::partition_campaign(cc, 1);
        harness::ShardStore store(dir / std::to_string(b));
        if (!store.prepare() || units.empty()) {
          throw std::runtime_error("fabric set-up failed");
        }
        for (const harness::WorkUnit& u : units) {
          for (const harness::WorkCell& cell : u.cells) {
            for (std::uint32_t rep = cell.rep_begin; rep < cell.rep_end; ++rep) {
              harness::ScenarioConfig s = harness::cell_scenario(cc, cell, rep);
              s.sim_time = sim::Time::ns(1);
              (void)harness::run_scenario(s);
            }
          }
        }
      },
      [&] { std::filesystem::remove_all(dir); });
}

harness::FabricConfig fabric_config(const Config& c,
                                    const std::filesystem::path& dir) {
  harness::FabricConfig fab;
  fab.workers = static_cast<unsigned>(c.u64("workers"));
  fab.cells_per_unit = 1;
  fab.unit_timeout_s = 150.0;
  fab.shard_dir = dir;
  fab.resume = true;
  return fab;
}

struct FabricPass {
  harness::FabricReport cold;
  harness::FabricReport ingest;
  double cold_s = 0.0;
  double ingest_s = 0.0;
};

/// Cold pass into a fresh shard directory, then a resume pass that
/// ingests every shard the cold pass wrote.
FabricPass fabric_pass(const Config& c, const harness::CampaignConfig& cc,
                       const std::filesystem::path& dir, SpanLog* spans,
                       std::uint64_t run) {
  std::filesystem::remove_all(dir);
  const harness::FabricConfig fab = fabric_config(c, dir);
  FabricPass p;
  {
    std::size_t id = spans ? spans->begin("harness.fabric_cold", run) : 0;
    const auto t0 = Clock::now();
    p.cold = harness::run_campaign_fabric(cc, fab);
    p.cold_s = seconds_since(t0);
    if (spans) spans->end(id);
  }
  {
    std::size_t id = spans ? spans->begin("harness.fabric_ingest", run) : 0;
    const auto t0 = Clock::now();
    p.ingest = harness::run_campaign_fabric(cc, fab);
    p.ingest_s = seconds_since(t0);
    if (spans) spans->end(id);
  }
  return p;
}

/// Counts the two passes' units as operations and gates the resume
/// contract: the second pass ingests every shard and runs nothing.
void check_fabric(const FabricPass& p, Outcome& out) {
  const std::size_t units = p.cold.units_total;
  out.attempted += 2 * units;
  out.failed += p.cold.units_failed + p.ingest.units_failed;
  if (!p.cold.complete || !p.ingest.complete) {
    out.fail("fabric pass incomplete");
  }
  if (p.ingest.units_resumed != units || p.ingest.units_run != 0) {
    out.fail("resume pass re-ran units instead of ingesting shards");
  }
}

/// Codec replay: encode + decode every sampled packet `rounds` times.
struct CodecTiming {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  std::uint64_t packets = 0;
  std::uint64_t bad = 0;
};

CodecTiming codec_replay(const TraceTally& t, SpanLog& spans) {
  std::vector<const net::Packet*> pkts;
  for (const auto& [kind, v] : t.sample) {
    for (const net::Packet& p : v) pkts.push_back(&p);
  }
  CodecTiming ct;
  ct.packets = pkts.size();
  if (pkts.empty()) return ct;
  std::vector<std::vector<std::uint8_t>> bufs(pkts.size());
  const std::size_t rounds = std::max<std::size_t>(1, 40000 / pkts.size());
  {
    Scope s(spans, "net.wire_encode", 0);
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < pkts.size(); ++i) {
        bufs[i].clear();
        net::wire::encode_packet(*pkts[i], bufs[i]);
      }
    }
    ct.encode_ns = seconds_since(t0) * 1e9 /
                   static_cast<double>(rounds * pkts.size());
  }
  {
    Scope s(spans, "net.wire_decode", 0);
    std::uint64_t bad = 0;
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const auto& b : bufs) {
        if (!net::wire::decode_packet(b)) ++bad;
      }
    }
    ct.decode_ns = seconds_since(t0) * 1e9 /
                   static_cast<double>(rounds * pkts.size());
    ct.bad = bad / rounds;
  }
  return ct;
}

/// Coordinate p folded back into [0, w] as a node bouncing off the walls.
double reflect(double p, double w) {
  double m = std::fmod(p, 2.0 * w);
  if (m < 0.0) m += 2.0 * w;
  return m <= w ? m : 2.0 * w - m;
}

/// Neighbour-index replay over the workload's arena: every node queries
/// its carrier-sense neighbourhood at 100 ms steps over the run's
/// simulated span (at most 200k queries), nodes moving in straight lines
/// at up to max_speed and bouncing off the field's edges, so density and
/// the dense-cell layout stay those of the real Channel.  The span is
/// replayed with a fresh index until about 200k queries are timed.
double index_replay(const harness::ScenarioConfig& s, SpanLog& spans,
                    std::uint64_t* queries) {
  sim::Rng rng(s.seed);
  const std::uint32_t n = s.node_count;
  std::vector<mobility::Vec2> base(n);
  std::vector<mobility::Vec2> vel(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    base[i] = {rng.uniform(0.0, s.field.width), rng.uniform(0.0, s.field.height)};
    const double a = rng.uniform(0.0, 6.283185307179586);
    const double v = rng.uniform(0.0, s.max_speed);
    vel[i] = {v * std::cos(a), v * std::sin(a)};
  }
  const auto pos = [&](std::uint32_t i, double sec) {
    return mobility::Vec2{reflect(base[i].x + vel[i].x * sec, s.field.width),
                          reflect(base[i].y + vel[i].y * sec, s.field.height)};
  };
  const double range = s.radio_range * s.channel.cs_range_factor;
  constexpr std::size_t kQueries = 200000;
  const auto span_steps = static_cast<std::size_t>(s.sim_time.to_seconds() / 0.1);
  const std::size_t steps =
      std::max<std::size_t>(1, std::min(kQueries / n, span_steps));
  const std::size_t rounds = std::max<std::size_t>(1, kQueries / (steps * n));
  std::uint64_t found = 0;
  Scope sc(spans, "phy.index_query", 0);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    phy::NeighborIndex idx(
        n, range, s.max_speed, s.channel.index_rebuild_period,
        [&](std::uint32_t i, sim::Time t) { return pos(i, t.to_seconds()); });
    for (std::size_t k = 0; k < steps; ++k) {
      const sim::Time now = sim::Time::ms(static_cast<std::int64_t>(k) * 100);
      const double sec = now.to_seconds();
      for (std::uint32_t i = 0; i < n; ++i) {
        found += idx.candidates(pos(i, sec), range, now).size();
      }
    }
  }
  *queries = rounds * steps * n;
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(*queries);
  if (found == 0) throw std::runtime_error("index replay found no neighbours");
  return ns;
}

/// Digest replay: the traced hop delays added into one digest per run,
/// then merged.  Returns ns per add and fills the merged digest.
double digest_replay(const std::vector<std::vector<double>>& per_run,
                     stats::PercentileDigest& merged, SpanLog& spans) {
  std::size_t samples = 0;
  for (const auto& v : per_run) samples += v.size();
  if (samples == 0) return 0.0;
  const std::size_t rounds = std::max<std::size_t>(1, 200000 / samples);
  Scope sc(spans, "stats.digest_add", 0);
  const auto t0 = Clock::now();
  for (std::size_t r = 0; r < rounds; ++r) {
    stats::PercentileDigest all;
    for (const auto& v : per_run) {
      stats::PercentileDigest d;
      for (double x : v) d.add(x);
      all.merge(d);
    }
    if (r + 1 == rounds) merged = all;
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(rounds * samples);
}

/// CSV write/parse replay over the workload's rows, plus the cache key.
struct HarnessTiming {
  double write_ns_per_row = 0.0;
  double parse_ns_per_row = 0.0;
  double cache_key_us = 0.0;
  std::uint64_t bad_rows = 0;
};

HarnessTiming harness_replay(const harness::CampaignConfig& cc,
                             const std::vector<harness::RunMetrics>& runs,
                             SpanLog& spans) {
  HarnessTiming ht;
  const std::size_t rounds = std::max<std::size_t>(1, 20000 / runs.size());
  std::vector<std::string> lines(runs.size());
  {
    Scope sc(spans, "harness.csv_write", 0);
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (std::size_t i = 0; i < runs.size(); ++i) {
        std::ostringstream os;
        harness::csv::write_row(os, runs[i]);
        lines[i] = os.str();
      }
    }
    ht.write_ns_per_row =
        seconds_since(t0) * 1e9 / static_cast<double>(rounds * runs.size());
  }
  for (std::string& l : lines) {
    while (!l.empty() && (l.back() == '\n' || l.back() == '\r')) l.pop_back();
  }
  {
    Scope sc(spans, "harness.csv_parse", 0);
    std::uint64_t bad = 0;
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < rounds; ++r) {
      for (const std::string& l : lines) {
        if (!harness::csv::parse_row(l, harness::csv::kCellsV10)) ++bad;
      }
    }
    ht.parse_ns_per_row =
        seconds_since(t0) * 1e9 / static_cast<double>(rounds * runs.size());
    ht.bad_rows = bad / rounds;
  }
  {
    Scope sc(spans, "harness.cache_key", 0);
    constexpr std::size_t kKeys = 2000;
    std::size_t len = 0;
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < kKeys; ++r) {
      len += harness::CampaignCache::key_of(cc).size();
    }
    ht.cache_key_us = seconds_since(t0) * 1e6 / static_cast<double>(kKeys);
    if (len == 0) throw std::runtime_error("empty cache key");
  }
  return ht;
}

// --------------------------------------------------------------------------
// Modes
// --------------------------------------------------------------------------

/// trace=0 for the scenario workloads.
std::string timed_scenarios(const Config& c, const harness::CampaignConfig& cc,
                            Outcome& out) {
  const auto scen = scenarios_of(cc);
  const SetupSamples setup = scenario_setup_samples(scen);
  const double budget = c.num("seconds");
  std::vector<std::vector<double>> walls(scen.size());
  std::vector<std::vector<double>> refs(scen.size());  // loop before each wall
  std::vector<std::vector<std::string>> prints(scen.size());
  std::vector<std::string> counts(scen.size(), "null");
  const auto t0 = Clock::now();
  std::vector<std::size_t> order;
  for (const std::string& i : c.list("order")) order.push_back(std::stoul(i));
  if (order.size() != scen.size() ||
      std::any_of(order.begin(), order.end(),
                  [&](std::size_t i) { return i >= scen.size(); })) {
    throw std::runtime_error("config: order is not a permutation of the runs");
  }
  std::size_t reps = 0;
  while (reps < kMinReps || seconds_since(t0) < budget) {
    for (std::size_t i : order) {
      ++out.attempted;
      const double ref = reference_loop_s();
      try {
        const auto s0 = Clock::now();
        const harness::RunMetrics m = harness::run_scenario(scen[i]);
        walls[i].push_back(seconds_since(s0));
        refs[i].push_back(ref);
        prints[i].push_back(fingerprint(m));
        if (reps == 0) counts[i] = counts_of(m);
      } catch (const std::exception& e) {
        out.fail(scenario_label(scen[i]) + ": " + e.what());
      }
    }
    ++reps;
  }
  std::string runs = "[";
  for (std::size_t i = 0; i < scen.size(); ++i) {
    if (i != 0) runs += ',';
    runs += JObj()
                .str("label", scenario_label(scen[i]))
                .raw("walls", jlist(walls[i]))
                .raw("refs", jlist(refs[i]))
                .raw("fingerprints", jlist(prints[i]))
                .raw("counts", counts[i])
                .done();
  }
  runs += "]";
  return JObj()
      .raw("setup_samples", jlist(setup.per_pass_s))
      .raw("setup_reference_s", jlist(setup.reference_s))
      .num("reps", static_cast<double>(reps))
      .raw("runs", runs)
      .num("peak_rss_mib", peak_rss_mib(RUSAGE_SELF))
      .done();
}

/// trace=0 for the sweep: repeated cold + resume fabric passes.
std::string timed_sweep(const Config& c, const harness::CampaignConfig& cc,
                        const std::filesystem::path& work, Outcome& out) {
  const SetupSamples setup = fabric_setup_samples(cc, work / "setup-shards");
  const double budget = c.num("seconds");
  std::vector<double> cold, ingest, reference_s;
  std::vector<std::string> prints;
  std::vector<std::string> first_rows;
  const auto t0 = Clock::now();
  while (cold.size() < kMinReps || seconds_since(t0) < budget) {
    FabricPass p;
    const double ref = reference_loop_s();
    try {
      p = fabric_pass(c, cc, work / "shards", nullptr, 0);
    } catch (const std::exception& e) {
      ++out.attempted;
      out.fail(std::string("fabric: ") + e.what());
      break;
    }
    check_fabric(p, out);
    const std::vector<std::string> rows = rows_of(runs_of(cc, p.ingest.result));
    if (rows_of(runs_of(cc, p.cold.result)) != rows) {
      out.fail("resume pass rows differ from the cold pass rows");
    }
    // FNV-1a over the sorted merged rows: independent of the axis order
    // --seed draws, so every seed of one commit prints the same value.
    std::vector<std::string> sorted_rows = rows;
    std::sort(sorted_rows.begin(), sorted_rows.end());
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::string& r : sorted_rows) {
      for (unsigned char ch : r) h = (h ^ ch) * 1099511628211ULL;
    }
    prints.push_back(std::to_string(h));
    if (first_rows.empty()) first_rows = rows;
    cold.push_back(p.cold_s);
    ingest.push_back(p.ingest_s);
    reference_s.push_back(ref);
  }
  std::filesystem::remove_all(work / "shards");
  // Taken before the serial reference below, whose in-process thread
  // pool is not part of the workload.
  const double rss = std::max(peak_rss_mib(RUSAGE_SELF),
                              peak_rss_mib(RUSAGE_CHILDREN));
  // Serial reference, once and untimed: the in-process pool over the
  // same grid.  The fabric's merged rows must reproduce it byte for byte.
  const std::vector<harness::RunMetrics> reference =
      runs_of(cc, harness::run_campaign(cc));
  if (rows_of(reference) != first_rows) {
    out.fail("fabric rows differ from the in-process run_campaign rows");
  }
  return JObj()
      .raw("setup_samples", jlist(setup.per_pass_s))
      .raw("setup_reference_s", jlist(setup.reference_s))
      .num("reps", static_cast<double>(cold.size()))
      .raw("cold_s", jlist(cold))
      .raw("ingest_s", jlist(ingest))
      .raw("reference_s", jlist(reference_s))
      .raw("fingerprints", jlist(prints))
      .raw("run_counts", counts_list(reference))
      .num("peak_rss_mib", rss)
      .done();
}

/// trace=1 for every workload.
std::string traced(const Config& c, const harness::CampaignConfig& cc,
                   const std::filesystem::path& work, Outcome& out) {
  const auto origin = Clock::now();
  SpanLog spans(origin);
  const auto scen = scenarios_of(cc);
  const std::size_t root = spans.begin("workload", 0);

  // Rounds of each scenario untraced and traced back to back, in turn
  // first, so host-speed drift within a pair stays small: at least
  // kMinReps rounds and kMinPairs pairs, more while `seconds` lasts.
  // trace.overhead_frac is the median over these pairs.  The first
  // round's untraced runs are the reference the traced and fabric passes
  // must reproduce, and its traced runs feed the tallies; later rounds
  // must reproduce the first.  Each run is its own span id.
  std::vector<harness::RunMetrics> plain, traced_runs;
  std::vector<TraceTally> tallies(scen.size());
  std::vector<double> untraced_s, traced_s;         // per round
  std::vector<double> pair_untraced_s, pair_traced_s;  // per scenario run
  std::uint64_t run_id = 0;
  auto run_one = [&](std::size_t i, const char* span_name, net::TraceHub* hub,
                     double& host_s) -> harness::RunMetrics {
    ++out.attempted;
    const std::size_t id = spans.begin(span_name, ++run_id);
    harness::RunMetrics m;
    try {
      m = harness::run_scenario(scen[i], hub);
    } catch (const std::exception& e) {
      out.fail(scenario_label(scen[i]) + ": " + e.what());
    }
    spans.end(id);
    host_s += spans.seconds(id);
    return m;
  };
  const double budget = c.num("seconds");
  const auto rounds_t0 = Clock::now();
  while (untraced_s.size() < kMinReps || pair_untraced_s.size() < kMinPairs ||
         seconds_since(rounds_t0) < budget) {
    const bool first = untraced_s.empty();
    const bool traced_first = untraced_s.size() % 2 == 1;
    double plain_s = 0.0, hub_s = 0.0;
    for (std::size_t i = 0; i < scen.size(); ++i) {
      TraceTally spare;
      TraceTally& t = first ? tallies[i] : spare;
      net::TraceHub hub;
      hub.subscribe([&t](const net::TraceRecord& r) { t.on(r); });
      double pu = 0.0, pt = 0.0;
      harness::RunMetrics u, v;
      if (traced_first) v = run_one(i, "harness.run_scenario", &hub, pt);
      u = run_one(i, "harness.run_scenario.untraced", nullptr, pu);
      if (!traced_first) v = run_one(i, "harness.run_scenario", &hub, pt);
      t.last_hop_ns.clear();
      plain_s += pu;
      hub_s += pt;
      pair_untraced_s.push_back(pu);
      pair_traced_s.push_back(pt);
      if (first) {
        plain.push_back(u);
        traced_runs.push_back(v);
      } else if (fingerprint(u) != fingerprint(plain[i]) ||
                 fingerprint(v) != fingerprint(plain[i])) {
        out.fail(scenario_label(scen[i]) + ": traced round " +
                 std::to_string(untraced_s.size()) +
                 " differs from the first round");
      }
    }
    untraced_s.push_back(plain_s);
    traced_s.push_back(hub_s);
  }
  std::vector<std::string> prints_plain, prints_traced;
  for (const auto& m : plain) prints_plain.push_back(fingerprint(m));
  for (const auto& m : traced_runs) prints_traced.push_back(fingerprint(m));

  // Fabric pass over the same grid; its merged rows must equal the
  // in-process rows (for the sweep that is run_campaign's own path).
  FabricPass fp = fabric_pass(c, cc, work / "shards", &spans, 0);
  std::vector<std::string> reference = rows_of(plain);
  if (c.str("kind") == "sweep") {
    Scope sc(spans, "harness.run_campaign", 0);
    const auto serial = rows_of(runs_of(cc, harness::run_campaign(cc)));
    if (serial != reference) out.fail("run_campaign rows differ from run_scenario rows");
  }
  check_fabric(fp, out);
  if (rows_of(runs_of(cc, fp.ingest.result)) != reference ||
      rows_of(runs_of(cc, fp.cold.result)) != reference) {
    out.fail("fabric rows differ from the in-process rows");
  }
  std::filesystem::remove_all(work / "shards");
  // Worker attempts of the cold pass.  With one cell per unit, every row
  // of a cell carries its unit's attempt count.
  double attempts = 0;
  for (harness::Protocol p : cc.protocols) {
    for (double v : cc.speeds) {
      const auto& cell = fp.cold.result.runs(p, v, 0, 0, 0);
      if (!cell.empty()) attempts += cell.front().attempts;
    }
  }

  // Replays of the layers the scenario runs exercise internally.
  TraceTally all;
  std::vector<std::vector<double>> hop_runs;
  for (const TraceTally& t : tallies) {
    all.forwards += t.forwards;
    all.delivers += t.delivers;
    all.data_forwards += t.data_forwards;
    all.data_delivers += t.data_delivers;
    for (const auto& [kind, v] : t.sample) {
      auto& s = all.sample[kind];
      for (const net::Packet& p : v) {
        if (s.size() < 4 * TraceTally::kSamplePerKind) s.push_back(p);
      }
    }
    hop_runs.push_back(t.hop_ms);
  }
  tallies.clear();
  const CodecTiming codec = codec_replay(all, spans);
  if (codec.bad != 0) out.fail("wire round trip rejected a traced packet");
  std::uint64_t queries = 0;
  const double index_ns = index_replay(scen.front(), spans, &queries);
  stats::PercentileDigest hops;
  const double digest_ns = digest_replay(hop_runs, hops, spans);
  const HarnessTiming ht = harness_replay(cc, plain, spans);
  if (ht.bad_rows != 0) out.fail("csv parse rejected a written row");
  spans.end(root);
  spans.write(work / "spans.jsonl");

  return JObj()
      .raw("fingerprints", jlist(prints_plain))
      .raw("traced_fingerprints", jlist(prints_traced))
      .raw("run_counts", counts_list(plain))
      .raw("untraced_s", jlist(untraced_s))
      .raw("traced_s", jlist(traced_s))
      .raw("pair_untraced_s", jlist(pair_untraced_s))
      .raw("pair_traced_s", jlist(pair_traced_s))
      .num("fabric_cold_s", fp.cold_s)
      .num("fabric_ingest_s", fp.ingest_s)
      .num("fabric_units", static_cast<double>(fp.cold.units_total))
      .num("fabric_units_failed",
           static_cast<double>(fp.cold.units_failed + fp.ingest.units_failed))
      .num("fabric_attempts", attempts)
      .num("trace_forwards", static_cast<double>(all.forwards))
      .num("trace_delivers", static_cast<double>(all.delivers))
      .num("trace_data_forwards", static_cast<double>(all.data_forwards))
      .num("trace_data_delivers", static_cast<double>(all.data_delivers))
      .num("hop_samples", static_cast<double>(hops.count()))
      .num("hop_latency_ms_p50", hops.p50())
      .num("hop_latency_ms_p95", hops.p95())
      .num("codec_packets", static_cast<double>(codec.packets))
      .num("wire_encode_ns", codec.encode_ns)
      .num("wire_decode_ns", codec.decode_ns)
      .num("index_queries", static_cast<double>(queries))
      .num("index_query_ns", index_ns)
      .num("digest_add_ns", digest_ns)
      .num("csv_write_ns_per_row", ht.write_ns_per_row)
      .num("csv_parse_ns_per_row", ht.parse_ns_per_row)
      .num("cache_key_us", ht.cache_key_us)
      .str("spans_file", (work / "spans.jsonl").string())
      .num("peak_rss_mib", std::max(peak_rss_mib(RUSAGE_SELF),
                                    peak_rss_mib(RUSAGE_CHILDREN)))
      .done();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <config-file>\n", argv[0]);
    return 2;
  }
  try {
    const Config c = read_config(argv[1]);
    const harness::CampaignConfig cc = campaign_of(c);
    const std::filesystem::path work = c.str("work_dir");
    std::filesystem::create_directories(work);
    Outcome out;
    std::string body;
    if (c.u64("trace") != 0) {
      body = traced(c, cc, work, out);
    } else if (c.str("kind") == "sweep") {
      body = timed_sweep(c, cc, work, out);
    } else {
      body = timed_scenarios(c, cc, out);
    }
    std::printf("%s\n", JObj()
                            .str("compiler", __VERSION__)
                            .str("build_type", MTSBENCH_BUILD_TYPE)
                            .num("attempted", static_cast<double>(out.attempted))
                            .num("failed", static_cast<double>(out.failed))
                            .raw("errors", jlist(out.errors))
                            .raw("data", body)
                            .done()
                            .c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mtsbench_runner: %s\n", e.what());
    return 1;
  }
  return 0;
}
