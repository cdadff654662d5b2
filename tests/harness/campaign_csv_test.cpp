// The campaign CSV is a persisted format: the column list may only grow
// with a version bump, and the bytes of a row must not drift when the
// code around them changes.  These tests pin the v10 header and row
// bytes, the exact round trip, and the docs' column tables.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign_csv.hpp"

namespace mts::harness {
namespace {

/// A row with a non-default value in every column.
RunMetrics every_column_set() {
  RunMetrics m;
  m.protocol = Protocol::kSmr;
  m.max_speed = 12.5;
  m.seed = 42;
  m.participating_nodes = 17;
  m.relay_stddev = 0.1;
  m.alpha = 301;
  m.max_beta = 44;
  m.highest_interception_ratio = 0.3;
  m.pe = 55;
  m.pr = 66;
  m.interception_ratio = 0.7;
  m.avg_delay_s = 0.0123;
  m.throughput_seg_s = 21.5;
  m.throughput_kbps = 172.25;
  m.delivery_rate = 0.875;
  m.segments_delivered = 77;
  m.data_packets_sent = 88;
  m.retransmits = 9;
  m.timeouts = 4;
  m.acks_sent = 76;
  m.acks_received = 75;
  m.eavesdropper = 13;
  m.control_packets = 123;
  m.route_switches = 8;
  m.checks_sent = 31;
  m.events_executed = 987654321;
  m.adversary_index = 2;
  m.adversary_kind = security::AdversaryKind::kWormhole;
  m.adversary_count = 3;
  m.coalition_captured = 19;
  m.coalition_interception_ratio = 0.25;
  m.fragments_missing = 58;
  m.blackhole_absorbed = 6;
  m.wormhole_tunneled = 14;
  m.grayhole_absorbed = 5;
  m.endpoint_inference_accuracy = 0.5;
  m.flood_injected = 40;
  m.defense_index = 1;
  m.defense_kind = security::DefenseKind::kSuite;
  m.detection_time_s = 2.75;
  m.paths_quarantined = 3;
  m.recovery_time_s = 1.5;
  m.false_positive_rate = 0.125;
  m.flood_suppressed = 11;
  m.probes_sent = 29;
  m.secrecy_shares = 5;
  m.secrecy_threshold = 3;
  m.shares_captured = 7;
  m.keys_recovered = 2;
  m.key_recovery_rate = 1.0 / 3.0;
  m.traffic_index = 1;
  m.sessions_started = 20;
  m.sessions_completed = 18;
  m.traffic_classes[0] = {12, 35.5, 80.25, 120.125, 3.75, 0.5};
  m.traffic_classes[1] = {4, 410.5, 900.75, 1200.25, 9.5, 0.25};
  m.run_status = RunStatus::kFailed;
  m.attempts = 3;
  m.run_error = "trap, then\nkill";
  m.adversary_members = {4, 9};
  return m;
}

// Both strings were produced by the hand-written v10 writer that the
// column table replaced.
constexpr const char* kV10Header =
    "protocol,speed,seed,participating,relay_stddev,alpha,max_beta,"
    "highest_ri,pe,pr,ri,delay_s,thr_seg_s,thr_kbps,delivery,delivered,"
    "data_sent,retx,timeouts,acks_sent,acks_recv,eavesdropper,ctrl,"
    "switches,checks,events,adv_index,adv_kind,adv_count,adv_captured,"
    "adv_ri,adv_missing,adv_absorbed,adv_tunneled,adv_gray_absorbed,"
    "adv_endpoint_acc,adv_flood_injected,def_index,def_kind,def_detect_s,"
    "def_quarantined,def_recovery_s,def_fpr,def_suppressed,def_probes,"
    "sec_shares,sec_threshold,sec_captured,sec_keys,sec_recovery,"
    "tra_index,tra_sessions,tra_completed,tra_msg_flows,tra_msg_p50_ms,"
    "tra_msg_p95_ms,tra_msg_p99_ms,tra_msg_goodput,tra_msg_exposure,"
    "tra_bulk_flows,tra_bulk_p50_ms,tra_bulk_p95_ms,tra_bulk_p99_ms,"
    "tra_bulk_goodput,tra_bulk_exposure,"
    "run_status,run_attempts,run_error,adv_members";

constexpr const char* kGoldenRow =
    "3,12.5,42,17,0.10000000000000001,301,44,0.29999999999999999,55,66,"
    "0.69999999999999996,0.0123,21.5,172.25,0.875,77,88,9,4,76,75,13,123,8,"
    "31,987654321,2,4,3,19,0.25,58,6,14,5,0.5,40,1,4,2.75,3,1.5,0.125,11,29,"
    "5,3,7,2,0.33333333333333331,1,20,18,12,35.5,80.25,120.125,3.75,0.5,4,"
    "410.5,900.75,1200.25,9.5,0.25,failed,3,trap  then kill,4.9.\n";

std::vector<std::string> split(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string cell;
  while (std::getline(ss, cell, ',')) out.push_back(cell);
  return out;
}

TEST(CampaignCsvTest, HeaderIsTheV10Header) {
  EXPECT_EQ(csv::header(), kV10Header);
  EXPECT_EQ(split(csv::header()).size(), csv::kCellsV10);
}

TEST(CampaignCsvTest, GoldenRowBytesAndExactRoundTrip) {
  std::ostringstream os;
  csv::write_row(os, every_column_set());
  ASSERT_EQ(os.str(), kGoldenRow);

  std::string line = os.str();
  line.pop_back();  // write_row appends the newline
  const auto back = csv::parse_row(line, csv::kCellsV10);
  ASSERT_TRUE(back.has_value());
  // Every column is non-default, so writing the parsed row back to the
  // same bytes proves each column survived.
  std::ostringstream again;
  csv::write_row(again, *back);
  EXPECT_EQ(again.str(), kGoldenRow);
  EXPECT_EQ(back->run_status, RunStatus::kFailed);
  EXPECT_EQ(back->run_error, "trap  then kill");
  EXPECT_EQ(back->adversary_members, (std::vector<net::NodeId>{4, 9}));
  EXPECT_EQ(back->key_recovery_rate, 1.0 / 3.0);
}

TEST(CampaignCsvTest, MalformedRowsAreRejected) {
  std::string line = kGoldenRow;
  line.pop_back();
  EXPECT_FALSE(csv::parse_row(line + ",1").has_value());
  EXPECT_FALSE(csv::parse_row(line.substr(0, line.rfind(','))).has_value());
  // A v10 row handed a v9 width is refused rather than misread.
  EXPECT_FALSE(csv::parse_row(line, 54).has_value());
  // A value that does not fit its member is malformed, not wrapped.
  std::string big = line;
  big.replace(0, 1, "256");  // protocol is a uint8_t enum
  EXPECT_FALSE(csv::parse_row(big).has_value());
}

TEST(CampaignCsvTest, MetricsDocListsExactlyTheColumnsInOrder) {
  // docs/metrics.md documents each column in a table headed
  // "| CSV column |"; read in document order, those tables must name
  // exactly the header's columns, in the header's order.
  const auto doc = std::filesystem::path(__FILE__).parent_path() / ".." /
                   ".." / "docs" / "metrics.md";
  std::ifstream in(doc);
  ASSERT_TRUE(in) << "cannot open " << doc;
  std::vector<std::string> documented;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| CSV column |", 0) == 0) {
      in_table = true;
    } else if (!in_table || line.rfind("|", 0) != 0) {
      in_table = false;
    } else if (line.rfind("| `", 0) == 0) {
      documented.push_back(line.substr(3, line.find('`', 3) - 3));
    }
  }
  EXPECT_EQ(documented, split(csv::header()));
}

}  // namespace
}  // namespace mts::harness
