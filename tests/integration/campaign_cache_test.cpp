// The sweep cache must be a pure optimization: a cache round-trip has
// to reproduce the campaign bit-for-bit, and any config change that
// affects results must change the key.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>

#include "harness/campaign_cache.hpp"
#include "harness/shard_store.hpp"
#include "harness/work_unit.hpp"

namespace mts::harness {
namespace {

class CampaignCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mts_cache_test_" + std::to_string(::getpid()));
    setenv("MTS_BENCH_CACHE_DIR", dir_.c_str(), 1);
    unsetenv("MTS_BENCH_NO_CACHE");
  }
  void TearDown() override {
    unsetenv("MTS_BENCH_CACHE_DIR");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  static CampaignConfig tiny() {
    CampaignConfig cfg;
    cfg.base.node_count = 15;
    cfg.base.sim_time = sim::Time::sec(3);
    cfg.speeds = {5};
    cfg.protocols = {Protocol::kAodv};
    cfg.repetitions = 2;
    return cfg;
  }

  std::filesystem::path dir_;
};

TEST_F(CampaignCacheTest, MissThenHitRoundTripsAllMetrics) {
  const CampaignConfig cfg = tiny();
  EXPECT_FALSE(CampaignCache::load(cfg).has_value());
  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  const auto& a = fresh.runs(Protocol::kAodv, 5);
  const auto& b = cached->runs(Protocol::kAodv, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].segments_delivered, b[i].segments_delivered);
    EXPECT_EQ(a[i].control_packets, b[i].control_packets);
    EXPECT_DOUBLE_EQ(a[i].relay_stddev, b[i].relay_stddev);
    EXPECT_DOUBLE_EQ(a[i].avg_delay_s, b[i].avg_delay_s);
    EXPECT_EQ(a[i].events_executed, b[i].events_executed);
  }
}

TEST_F(CampaignCacheTest, KeyChangesWithEveryKeyedField) {
  // Driven by the key's own field visitor: every keyed leaf (and every
  // keyed list, grown by one element) is nudged in turn, and each nudge
  // must move the key to a value no other nudge produced.  Every list
  // is non-empty here so that the fields of its elements are reached
  // too; fading stays off, because its parameters are keyed regardless.
  CampaignConfig cfg = tiny();
  cfg.base.explicit_flows = {FlowSpec{0, 3, sim::Time::sec(2)}};
  cfg.base.static_positions = {mobility::Vec2{1.0, 2.0}};
  cfg.adversaries[0].members = {4};
  cfg.traffics[0].diurnal = {1.0, 0.5};
  std::set<std::string> keys = {CampaignCache::key_of(cfg)};
  const std::vector<CampaignConfig> perturbed =
      CampaignCache::perturbations(cfg);
  // Non-vacuous: the visitor reaches the whole ScenarioConfig tree.
  EXPECT_GT(perturbed.size(), 100u);
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    EXPECT_TRUE(keys.insert(CampaignCache::key_of(perturbed[i])).second)
        << "keyed field #" << i << " does not change the key";
  }
}

TEST_F(CampaignCacheTest, KeyChangesWithTheKnobsAHandListMissed) {
  // Knobs a hand-written key once left out: each is a different
  // experiment, so each must be a different key.
  const CampaignConfig base = tiny();
  const std::vector<std::pair<const char*, void (*)(ScenarioConfig&)>>
      knobs = {
          {"smr.route_count", [](ScenarioConfig& c) { c.smr.route_count = 3; }},
          {"mac.retry_limit", [](ScenarioConfig& c) { c.mac.retry_limit = 4; }},
          {"mac.queue_capacity",
           [](ScenarioConfig& c) { c.mac.queue_capacity = 20; }},
          {"tcp.min_rto",
           [](ScenarioConfig& c) { c.tcp.min_rto = sim::Time::ms(200); }},
          {"dsr.reply_from_cache",
           [](ScenarioConfig& c) { c.dsr.reply_from_cache = false; }},
          {"aodv.intermediate_reply",
           [](ScenarioConfig& c) { c.aodv.intermediate_reply = false; }},
          {"mts.rreq_retries",
           [](ScenarioConfig& c) { c.mts.rreq_retries = 5; }},
          {"channel.index_rebuild_period",
           [](ScenarioConfig& c) {
             c.channel.index_rebuild_period = sim::Time::ms(250);
           }},
          {"fading.faded_fraction (fading off)",
           [](ScenarioConfig& c) { c.fading.faded_fraction = 0.5; }},
      };
  for (const auto& [name, perturb] : knobs) {
    SCOPED_TRACE(name);
    CampaignConfig other = base;
    perturb(other.base);
    EXPECT_NE(CampaignCache::key_of(other), CampaignCache::key_of(base));
  }
  // Doubles are keyed by their exact bits, not 6 significant digits.
  CampaignConfig a = base;
  CampaignConfig b = base;
  a.base.radio_range = 250.0001;
  b.base.radio_range = 250.0002;
  EXPECT_NE(CampaignCache::key_of(a), CampaignCache::key_of(b));
}

TEST_F(CampaignCacheTest, KeyIgnoresTheExcludedFields) {
  const CampaignConfig base = tiny();
  const std::string key = CampaignCache::key_of(base);
  const std::vector<std::pair<const char*, void (*)(CampaignConfig&)>>
      excluded = {
          // The pool size cannot affect results.
          {"threads", [](CampaignConfig& c) { c.threads = 7; }},
          // The six per-cell fields cell_scenario overwrites.
          {"base.protocol",
           [](CampaignConfig& c) { c.base.protocol = Protocol::kSmr; }},
          {"base.max_speed", [](CampaignConfig& c) { c.base.max_speed = 19; }},
          {"base.seed", [](CampaignConfig& c) { c.base.seed = 99; }},
          {"base.adversary",
           [](CampaignConfig& c) {
             c.base.adversary.kind = security::AdversaryKind::kBlackhole;
           }},
          {"base.defense",
           [](CampaignConfig& c) {
             c.base.defense.kind = security::DefenseKind::kSuite;
           }},
          {"base.traffic",
           [](CampaignConfig& c) { c.base.traffic.enabled = true; }},
          // The scenario replaces it with radio_range.
          {"base.fading.range_m",
           [](CampaignConfig& c) { c.base.fading.range_m = 200; }},
      };
  for (const auto& [name, perturb] : excluded) {
    SCOPED_TRACE(name);
    CampaignConfig other = base;
    perturb(other);
    EXPECT_EQ(CampaignCache::key_of(other), key);
  }
}

TEST_F(CampaignCacheTest, OtherVersionFilesAreAFullMiss) {
  // Only the current version is read.  A v9 file is never found under a
  // current key in practice (the key embeds the version), but one
  // planted there must be a miss as a cache entry and as a shard.
  CampaignConfig cfg = tiny();
  cfg.repetitions = 1;
  const char* v9 =
      "protocol,speed,seed,participating,relay_stddev,alpha,max_beta,"
      "highest_ri,pe,pr,ri,delay_s,thr_seg_s,thr_kbps,delivery,delivered,"
      "data_sent,retx,timeouts,acks_sent,acks_recv,eavesdropper,ctrl,"
      "switches,checks,events,adv_index,adv_kind,adv_count,adv_captured,"
      "adv_ri,adv_missing,adv_absorbed,adv_tunneled,adv_gray_absorbed,"
      "adv_endpoint_acc,adv_flood_injected,def_index,def_kind,def_detect_s,"
      "def_quarantined,def_recovery_s,def_fpr,def_suppressed,def_probes,"
      "sec_shares,sec_threshold,sec_captured,sec_keys,sec_recovery,"
      "run_status,run_attempts,run_error,adv_members\n"
      "1,5,1,7,0.25,120,30,0.125,4,80,0.05,0.033,26.5,217.1,0.93,80,86,3,1,"
      "80,78,12,45,0,0,123456,0,4,2,10,0.1,70,5,17,3,0.5,40,0,1,2.5,3,4.5,"
      "0.25,6,7,5,5,3,2,0.66,ok,2,-,2.5.\n";
  std::filesystem::create_directories(dir_);
  {
    std::ofstream out(dir_ / (CampaignCache::key_of(cfg) + ".csv"));
    out << v9;
  }
  EXPECT_FALSE(CampaignCache::load(cfg).has_value());

  const auto units = partition_campaign(cfg, 1);
  ASSERT_EQ(units.size(), 1u);
  ShardStore store(dir_ / "shards");
  ASSERT_TRUE(store.prepare());
  {
    std::ofstream out(store.path_of(units[0]));
    out << v9;
  }
  std::vector<RunMetrics> rows;
  EXPECT_EQ(store.read(units[0], rows), ShardStore::State::kMissing);
  EXPECT_FALSE(std::filesystem::exists(store.path_of(units[0])))
      << "a rejected shard is deleted so the unit re-runs";
}
TEST_F(CampaignCacheTest, AdversaryAxisRoundTripsAndChangesTheKey) {
  CampaignConfig cfg = tiny();
  // Dense enough to actually deliver traffic: a zero-traffic grid would
  // make every double comparison below pass vacuously at 0.0.
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  security::AdversarySpec coalition;
  coalition.kind = security::AdversaryKind::kColluding;
  coalition.count = 2;
  cfg.adversaries = {security::AdversarySpec{}, coalition};
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(tiny()));

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->total_runs(), fresh.total_runs());
  const auto& a = fresh.runs(Protocol::kAodv, 5, 1);
  const auto& b = cached->runs(Protocol::kAodv, 5, 1);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  std::uint64_t delivered = 0;
  std::uint64_t captured = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    delivered += a[i].segments_delivered;
    captured += a[i].coalition_captured;
    EXPECT_EQ(a[i].adversary_kind, security::AdversaryKind::kColluding);
    EXPECT_EQ(b[i].adversary_kind, a[i].adversary_kind);
    EXPECT_EQ(b[i].adversary_count, a[i].adversary_count);
    EXPECT_EQ(b[i].coalition_captured, a[i].coalition_captured);
    EXPECT_EQ(b[i].fragments_missing, a[i].fragments_missing);
    EXPECT_EQ(b[i].adversary_members, a[i].adversary_members);
    EXPECT_FALSE(a[i].adversary_members.empty());
    // Exact: the CSV stores doubles at max_digits10.
    EXPECT_DOUBLE_EQ(b[i].coalition_interception_ratio,
                     a[i].coalition_interception_ratio);
    EXPECT_DOUBLE_EQ(b[i].delivery_rate, a[i].delivery_rate);
    EXPECT_DOUBLE_EQ(b[i].avg_delay_s, a[i].avg_delay_s);
  }
  EXPECT_GT(delivered, 0u) << "grid produced no traffic; round-trip vacuous";
  EXPECT_GT(captured, 0u) << "coalition saw nothing; round-trip vacuous";

  // A different coalition size is a different sweep.
  CampaignConfig other = cfg;
  other.adversaries[1].count = 3;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, ActiveAttackMetricsRoundTripInV6Columns) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  security::AdversarySpec gray;
  gray.kind = security::AdversaryKind::kGrayhole;
  // Most of the 13 intermediates: some member is on the forwarding path
  // whatever the seed picks, so the absorbed counters are non-vacuous.
  gray.count = 8;
  gray.drop_prob = 0.4;
  security::AdversarySpec flood;
  flood.kind = security::AdversaryKind::kRreqFlood;
  flood.count = 1;
  flood.flood_rate = 4.0;
  cfg.adversaries = {gray, flood};

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  std::uint64_t gray_absorbed = 0;
  std::uint64_t injected = 0;
  for (std::uint32_t a = 0; a < 2; ++a) {
    const auto& want = fresh.runs(Protocol::kAodv, 5, a);
    const auto& got = cached->runs(Protocol::kAodv, 5, a);
    ASSERT_EQ(want.size(), got.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].adversary_kind, want[i].adversary_kind);
      EXPECT_EQ(got[i].wormhole_tunneled, want[i].wormhole_tunneled);
      EXPECT_EQ(got[i].grayhole_absorbed, want[i].grayhole_absorbed);
      EXPECT_EQ(got[i].flood_injected, want[i].flood_injected);
      EXPECT_DOUBLE_EQ(got[i].endpoint_inference_accuracy,
                       want[i].endpoint_inference_accuracy);
      gray_absorbed += want[i].grayhole_absorbed;
      injected += want[i].flood_injected;
    }
  }
  EXPECT_GT(gray_absorbed, 0u) << "grayhole cells ate nothing; vacuous";
  EXPECT_GT(injected, 0u) << "flood cells injected nothing; vacuous";

  // The new knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.adversaries[0].drop_prob = 0.8;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.adversaries[1].flood_rate = 9.0;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.adversaries[0].active_period = sim::Time::sec(4);
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, DefenseMetricsRoundTripInV7Columns) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  cfg.protocols = {Protocol::kMts};
  security::AdversarySpec blackhole;
  blackhole.kind = security::AdversaryKind::kBlackhole;
  // Most of the intermediates: some member sits on the forwarding path
  // whatever the seed picks, so detection is non-vacuous.
  blackhole.count = 8;
  cfg.adversaries = {blackhole};
  security::DefenseSpec acked;
  acked.kind = security::DefenseKind::kAckedChecking;
  cfg.defenses = {security::DefenseSpec{}, acked};

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->total_runs(), fresh.total_runs());
  std::uint64_t probes = 0;
  for (std::uint32_t d = 0; d < 2; ++d) {
    const auto& want = fresh.runs(Protocol::kMts, 5, 0, d);
    const auto& got = cached->runs(Protocol::kMts, 5, 0, d);
    ASSERT_EQ(want.size(), got.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].defense_index, want[i].defense_index);
      EXPECT_EQ(got[i].defense_kind, want[i].defense_kind);
      EXPECT_EQ(got[i].paths_quarantined, want[i].paths_quarantined);
      EXPECT_EQ(got[i].flood_suppressed, want[i].flood_suppressed);
      EXPECT_EQ(got[i].probes_sent, want[i].probes_sent);
      EXPECT_DOUBLE_EQ(got[i].detection_time_s, want[i].detection_time_s);
      EXPECT_DOUBLE_EQ(got[i].recovery_time_s, want[i].recovery_time_s);
      EXPECT_DOUBLE_EQ(got[i].false_positive_rate,
                       want[i].false_positive_rate);
      probes += want[i].probes_sent;
    }
  }
  EXPECT_GT(probes, 0u) << "defended cells never probed; round-trip vacuous";

  // The defense knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.defenses[1].probe_period = sim::Time::ms(900);
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.defenses[1].demote_threshold = 0.6;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.defenses[1].rreq_rate = 4.0;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.defenses.pop_back();
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, SecrecyMetricsRoundTripInV8Columns) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  cfg.protocols = {Protocol::kMts};
  cfg.base.secrecy.enabled = true;
  security::AdversarySpec coalition;
  coalition.kind = security::AdversaryKind::kColluding;
  coalition.count = 4;
  cfg.adversaries = {coalition};

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  const auto& want = fresh.runs(Protocol::kMts, 5, 0);
  const auto& got = cached->runs(Protocol::kMts, 5, 0);
  ASSERT_EQ(want.size(), got.size());
  ASSERT_FALSE(want.empty());
  std::uint64_t shares = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].secrecy_shares, 5u);
    EXPECT_EQ(want[i].secrecy_threshold, 5u);
    EXPECT_EQ(got[i].secrecy_shares, want[i].secrecy_shares);
    EXPECT_EQ(got[i].secrecy_threshold, want[i].secrecy_threshold);
    EXPECT_EQ(got[i].shares_captured, want[i].shares_captured);
    EXPECT_EQ(got[i].keys_recovered, want[i].keys_recovered);
    EXPECT_DOUBLE_EQ(got[i].key_recovery_rate, want[i].key_recovery_rate);
    shares += want[i].shares_captured;
  }
  EXPECT_GT(shares, 0u) << "coalition captured no share; round-trip vacuous";

  // The game knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.base.secrecy.enabled = false;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.base.secrecy.threshold = 2;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.base.secrecy.key_bytes = 32;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, FailedRowsRoundTripInV10Columns) {
  CampaignConfig cfg = tiny();
  cfg.repetitions = 1;
  CampaignResult result;
  // A degraded fabric row: status/attempts/error must survive a store
  // + load, with the error message collapsed to a single CSV cell.
  RunMetrics m = failed_run_metrics(cfg, WorkCell{0, 0, 0, 0, 0, 0, 1}, 0, 3,
                                    "timeout, then crash");
  result.add(std::move(m));
  CampaignCache::store(cfg, result);
  const auto loaded = CampaignCache::load(cfg);
  ASSERT_TRUE(loaded.has_value());
  const auto& runs = loaded->runs(Protocol::kAodv, 5);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].run_status, RunStatus::kFailed);
  EXPECT_EQ(runs[0].attempts, 3u);
  EXPECT_EQ(runs[0].run_error, "timeout  then crash");
  EXPECT_EQ(runs[0].seed, cfg.seed_base);
}

TEST_F(CampaignCacheTest, TrafficAxisRoundTripsAndChangesTheKey) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  traffic::TrafficSpec on;
  on.enabled = true;
  on.gateway_count = 2;
  on.user_pool = 6;
  on.session_rate = 5.0;
  cfg.traffics = {traffic::TrafficSpec{}, on};
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(tiny()));

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->total_runs(), fresh.total_runs());
  for (std::uint32_t t = 0; t < 2; ++t) {
    const auto& want = fresh.runs(Protocol::kAodv, 5, 0, 0, t);
    const auto& got = cached->runs(Protocol::kAodv, 5, 0, 0, t);
    ASSERT_EQ(want.size(), got.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].traffic_index, t);
      EXPECT_EQ(got[i].sessions_started, want[i].sessions_started);
      EXPECT_EQ(got[i].sessions_completed, want[i].sessions_completed);
      EXPECT_EQ(got[i].sessions_rejected, want[i].sessions_rejected);
      if (t == 0) {
        EXPECT_EQ(want[i].sessions_started, 0u);
      }
      for (std::size_t c = 0; c < traffic::kUserClassCount; ++c) {
        EXPECT_EQ(got[i].traffic_classes[c].flows_completed,
                  want[i].traffic_classes[c].flows_completed);
        // Exact: the CSV stores doubles at max_digits10.
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].delay_p50_ms,
                         want[i].traffic_classes[c].delay_p50_ms);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].delay_p95_ms,
                         want[i].traffic_classes[c].delay_p95_ms);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].delay_p99_ms,
                         want[i].traffic_classes[c].delay_p99_ms);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].goodput_p50_seg_s,
                         want[i].traffic_classes[c].goodput_p50_seg_s);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].key_exposure,
                         want[i].traffic_classes[c].key_exposure);
      }
    }
  }
  // Non-vacuous: the enabled half of the grid actually ran sessions.
  std::uint64_t sessions = 0;
  for (const RunMetrics& r : fresh.runs(Protocol::kAodv, 5, 0, 0, 1)) {
    sessions += r.sessions_started;
  }
  EXPECT_GT(sessions, 0u) << "traffic-on cells started no session; vacuous";

  // The workload knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.traffics[1].session_rate = 9.0;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics[1].bulk_fraction = 0.9;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics[1].diurnal = {1.0, 2.0};
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics[1].bulk.max_segments = 99;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics.pop_back();
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, TruncationAtEveryByteOfTheLastRowIsAFullMiss) {
  // The crash-safety contract: `store` is atomic (tmp + rename), and
  // even if a filesystem breaks that promise, `load` must reject a file
  // cut at ANY byte offset of its last row — never serve a cache entry
  // with a silently shortened row or a plausible-looking prefix.
  const CampaignConfig cfg = tiny();
  CampaignCache::run(cfg);
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  ASSERT_TRUE(std::filesystem::exists(path));
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  // Start of the last row: one past the previous newline.
  const std::size_t last_row =
      text.rfind('\n', text.size() - 2) + 1;
  ASSERT_GT(text.size() - last_row, 100u) << "last row implausibly short";
  for (std::size_t cut = last_row; cut < text.size(); ++cut) {
    std::filesystem::resize_file(path, cut);
    EXPECT_FALSE(CampaignCache::load(cfg).has_value())
        << "truncation to " << cut << " bytes (row byte "
        << (cut - last_row) << ") was served from cache";
  }
  // Restoring the full file restores the hit.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_TRUE(CampaignCache::load(cfg).has_value());
}

TEST_F(CampaignCacheTest, CorruptFileIsAFullMiss) {
  const CampaignConfig cfg = tiny();
  CampaignCache::run(cfg);
  // Truncate the cached file: load must reject it.
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, 40);
  EXPECT_FALSE(CampaignCache::load(cfg).has_value());
}

TEST_F(CampaignCacheTest, NoCacheEnvBypasses) {
  const CampaignConfig cfg = tiny();
  CampaignCache::run(cfg);
  setenv("MTS_BENCH_NO_CACHE", "1", 1);
  EXPECT_FALSE(CampaignCache::load(cfg).has_value());
  unsetenv("MTS_BENCH_NO_CACHE");
  EXPECT_TRUE(CampaignCache::load(cfg).has_value());
}

}  // namespace
}  // namespace mts::harness
