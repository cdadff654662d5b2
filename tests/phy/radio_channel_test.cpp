#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"

namespace mts::phy {
namespace {

/// Three radios on a line; positions chosen per test.
class RadioChannelTest : public ::testing::Test {
 protected:
  void build(std::vector<mobility::Vec2> positions, double range = 250.0,
             double cs_factor = 1.0, bool use_index = false) {
    prop_ = std::make_unique<UnitDiskPropagation>(range);
    ChannelConfig cc;
    cc.cs_range_factor = cs_factor;
    cc.use_spatial_index = use_index;
    channel_ = std::make_unique<Channel>(sched_, *prop_, cc);
    // Callbacks capture element addresses: size the containers up front.
    received_.reserve(positions.size());
    busy_log_.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      mobility_.push_back(
          std::make_unique<mobility::StaticMobility>(positions[i]));
      radios_.push_back(std::make_unique<Radio>(
          sched_, static_cast<net::NodeId>(i), &counters_[i]));
      received_.emplace_back();
      busy_log_.emplace_back();
      auto* rx = &received_.back();
      auto* busy = &busy_log_.back();
      radios_.back()->set_callbacks(Radio::Callbacks{
          [rx](const Frame& f) { rx->push_back(f); },
          [busy](bool b) { busy->push_back(b); },
          nullptr,
          nullptr,
      });
      channel_->attach(radios_.back().get(), mobility_.back().get());
    }
    channel_->finalize();
  }

  /// Broadcasts a packet from radio 0 of a 0-100-200 m line, stops the
  /// run at `stop` and tears the medium down: every packet body must be
  /// back in the pool.
  void expect_teardown_releases_packet(sim::Time stop) {
    const auto live = net::packet_pool_stats().live();
    build({{0, 0}, {100, 0}, {200, 0}});
    {
      Frame f = frame(0, net::kBroadcastId);
      f.payload.mutable_common().kind = net::PacketKind::kTcpData;
      radios_[0]->start_transmit(f, sim::Time::ms(1));
    }
    sched_.run_until(stop);
    EXPECT_EQ(sched_.executed_count(sim::EventCategory::kPhy), 0u);
    EXPECT_GT(net::packet_pool_stats().live(), live);
    radios_.clear();
    channel_.reset();
    EXPECT_EQ(net::packet_pool_stats().live(), live);
  }

  Frame frame(net::NodeId tx, net::NodeId rx) {
    Frame f;
    f.transmitter = tx;
    f.receiver = rx;
    f.bytes = 100;
    return f;
  }

  sim::Scheduler sched_;
  net::Counters counters_[8];
  std::unique_ptr<UnitDiskPropagation> prop_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<mobility::MobilityModel>> mobility_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::vector<Frame>> received_;
  std::vector<std::vector<bool>> busy_log_;
};

TEST_F(RadioChannelTest, DeliversWithinRange) {
  build({{0, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0].transmitter, 0u);
  EXPECT_EQ(received_[0].size(), 0u);  // no self-reception
}

TEST_F(RadioChannelTest, NoDeliveryBeyondRange) {
  build({{0, 0}, {300, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(RadioChannelTest, BroadcastReachesAllInRange) {
  build({{0, 0}, {100, 0}, {200, 0}, {600, 0}});
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  sched_.run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_TRUE(received_[3].empty());  // 600 m away
}

TEST_F(RadioChannelTest, FramesAddressedElsewhereStillDecoded) {
  // The radio hands every decodable frame up; filtering is MAC business
  // (and the eavesdropper depends on it).
  build({{0, 0}, {100, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 2), sim::Time::ms(1));
  sched_.run();
  EXPECT_EQ(received_[1].size(), 1u);  // overheard
  EXPECT_EQ(received_[2].size(), 1u);
}

TEST_F(RadioChannelTest, OverlappingReceptionsCollide) {
  // 0 and 2 both in range of 1; equidistant -> no capture, both corrupt.
  build({{0, 0}, {100, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(radios_[1]->collisions(), 2u);
}

TEST_F(RadioChannelTest, CaptureStrongerFirstFrameSurvives) {
  // Sender 0 is 50 m away (strong); interferer 2 is 200 m away.  Power
  // ratio (200/50)^4 = 256 >> 10, so 1 captures 0's frame.
  build({{0, 0}, {50, 0}, {250, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run_until(sim::Time::us(100));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0].transmitter, 0u);
}

TEST_F(RadioChannelTest, NoCaptureWhenComparablePower) {
  // Interferer at similar distance: both die.
  build({{0, 0}, {100, 0}, {210, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run_until(sim::Time::us(100));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
}

TEST(RadioCaptureTest, OutcomesFollowTheTwoRayCaptureRule) {
  // Receiver 0 at the origin hears sender 1 from d1, then, 100 us into
  // that frame, interferer 2 from d2 on the other side.  The first frame
  // survives iff its d^-4 power is at least 10x the interferer's; the
  // late one never decodes.  The expected outcome is the rule evaluated
  // eagerly here, over pairs around the 10^(1/4) distance ratio and
  // below the 1 m clamp.
  const double dists[] = {0.25, 1.0, 1.5, 30.0, 50.0, 88.9, 100.0,
                          177.82794100389228, 177.9, 200.0, 249.0,
                          316.2, 400.0, 549.0};
  const auto power = [](double d) { return std::pow(std::max(d, 1.0), -4.0); };
  int survived = 0;
  int corrupted = 0;
  for (const double d1 : dists) {
    if (d1 > 250.0) continue;  // the first frame must be decodable
    for (const double d2 : dists) {
      SCOPED_TRACE(testing::Message() << "d1=" << d1 << " d2=" << d2);
      sim::Scheduler sched;
      const UnitDiskPropagation prop(250.0);
      Channel channel(sched, prop,
                      ChannelConfig{.cs_range_factor = 2.2,
                                    .use_spatial_index = false});
      const mobility::Vec2 at[] = {{0, 0}, {d1, 0}, {-d2, 0}};
      std::vector<std::unique_ptr<mobility::StaticMobility>> mob;
      std::vector<std::unique_ptr<Radio>> radios;
      std::vector<net::NodeId> decoded;
      for (net::NodeId i = 0; i < 3; ++i) {
        mob.push_back(std::make_unique<mobility::StaticMobility>(at[i]));
        radios.push_back(std::make_unique<Radio>(sched, i, nullptr));
        channel.attach(radios.back().get(), mob.back().get());
      }
      radios[0]->set_callbacks(Radio::Callbacks{
          [&decoded](const Frame& f) { decoded.push_back(f.transmitter); },
          nullptr, nullptr, nullptr});
      channel.finalize();
      Frame f;
      f.bytes = 100;
      f.transmitter = 1;
      radios[1]->start_transmit(f, sim::Time::ms(1));
      sched.run_until(sim::Time::us(100));
      f.transmitter = 2;
      radios[2]->start_transmit(f, sim::Time::ms(1));
      sched.run();

      const double r1 = std::sqrt(mobility::distance_sq(at[0], at[1]));
      const double r2 = std::sqrt(mobility::distance_sq(at[0], at[2]));
      const bool survives = !(power(r1) < power(r2) * 10.0);
      if (survives) {
        ++survived;
        EXPECT_EQ(decoded, (std::vector<net::NodeId>{1}));
        EXPECT_EQ(radios[0]->collisions(), 1u);
      } else {
        ++corrupted;
        EXPECT_TRUE(decoded.empty());
        EXPECT_EQ(radios[0]->collisions(), 2u);
      }
    }
  }
  // The grid exercises both outcomes.
  EXPECT_GT(survived, 10);
  EXPECT_GT(corrupted, 10);
}

TEST_F(RadioChannelTest, LateWeakFrameNeverDecodedEvenAfterStrongEnds) {
  // The newcomer is always undecodable if the medium was busy at its
  // start (ns-2 semantics), even though the first frame ends earlier.
  build({{0, 0}, {50, 0}, {250, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::us(200));
  sched_.run_until(sim::Time::us(100));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(received_[1].size(), 1u);  // only the strong one
  EXPECT_EQ(received_[1][0].transmitter, 0u);
}

TEST_F(RadioChannelTest, DeafWhileTransmitting) {
  build({{0, 0}, {100, 0}});
  radios_[1]->start_transmit(frame(1, 0), sim::Time::ms(2));
  sched_.run_until(sim::Time::us(10));
  radios_[0]->start_transmit(frame(0, 1), sim::Time::us(50));
  sched_.run();
  // Radio 1 was mid-transmission when 0's frame arrived: nothing decoded.
  EXPECT_TRUE(received_[1].empty());
  // Radio 0 receives 1's frame corrupted? No: 0 keyed up at t=10us while
  // receiving 1's frame -> that reception is corrupted.
  EXPECT_TRUE(received_[0].empty());
}

TEST_F(RadioChannelTest, HalfDuplexTransmitCorruptsOngoingReception) {
  build({{0, 0}, {100, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run_until(sim::Time::us(100));
  // Radio 1 keys up mid-reception: its ongoing reception dies.
  radios_[1]->start_transmit(frame(1, 2), sim::Time::us(50));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(radios_[1]->collisions(), 1u);
}

TEST_F(RadioChannelTest, EnergyBeyondDecodeRangeTriggersCarrierOnly) {
  // cs_factor 2.2: a node at 400 m senses energy but decodes nothing.
  build({{0, 0}, {400, 0}}, 250.0, 2.2);
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  // Carrier went busy then idle.
  ASSERT_GE(busy_log_[1].size(), 2u);
  EXPECT_TRUE(busy_log_[1][0]);
  EXPECT_FALSE(busy_log_[1].back());
}

TEST_F(RadioChannelTest, MediumBusyEdgesArePaired) {
  build({{0, 0}, {100, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(busy_log_[1].size(), 2u);
  EXPECT_TRUE(busy_log_[1][0]);
  EXPECT_FALSE(busy_log_[1][1]);
  EXPECT_FALSE(radios_[1]->medium_busy());
}

TEST_F(RadioChannelTest, TransmitterSeesOwnBusyPeriod) {
  build({{0, 0}, {100, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  EXPECT_TRUE(radios_[0]->transmitting());
  EXPECT_TRUE(radios_[0]->medium_busy());
  sched_.run();
  EXPECT_FALSE(radios_[0]->transmitting());
}

TEST_F(RadioChannelTest, NeighborsOfReportsExact) {
  build({{0, 0}, {100, 0}, {240, 0}, {600, 0}});
  Channel::NeighborVec n;
  channel_->neighbors_of(0, sim::Time::zero(), n);
  EXPECT_EQ(n, (std::vector<net::NodeId>{1, 2}));
  channel_->neighbors_of(3, sim::Time::zero(), n);
  EXPECT_TRUE(n.empty());  // refilling must discard the previous result
}

TEST_F(RadioChannelTest, NeighborsOfThroughTheSpatialIndexMatchesTheScan) {
  // Same topology, index enabled: the grid pre-filters candidates but
  // the result (exact membership, ascending order) must be identical.
  build({{0, 0}, {100, 0}, {240, 0}, {600, 0}}, 250.0, 1.0,
        /*use_index=*/true);
  Channel::NeighborVec n;
  channel_->neighbors_of(0, sim::Time::zero(), n);
  EXPECT_EQ(n, (std::vector<net::NodeId>{1, 2}));
  channel_->neighbors_of(2, sim::Time::zero(), n);
  EXPECT_EQ(n, (std::vector<net::NodeId>{0, 1}));
  channel_->neighbors_of(3, sim::Time::zero(), n);
  EXPECT_TRUE(n.empty());
}

TEST_F(RadioChannelTest, InFlightBroadcastSiblingsSurviveReceiverMutation) {
  // Node 1 (near) decodes first and immediately mutates its packet the
  // way a flood relay does — TTL down, record append — while node 2's
  // copy is still in flight in the channel pool.  Node 2 and the
  // sender's own handle must keep seeing the original body.
  build({{0, 0}, {100, 0}, {200, 0}});
  net::Packet fwd;
  radios_[1]->set_callbacks(Radio::Callbacks{
      [&fwd](const Frame& f) {
        fwd = f.payload;  // refcount bump, as the MAC/routing seam does
        --fwd.mutable_hop().ttl;
        std::get<net::DsrRreqHeader>(fwd.mutable_routing())
            .record.push_back(1);
      },
      nullptr,
      nullptr,
      nullptr,
  });
  Frame f = frame(0, net::kBroadcastId);
  f.payload.mutable_common().kind = net::PacketKind::kDsrRreq;
  f.payload.mutable_hop().ttl = 32;
  net::DsrRreqHeader h;
  h.orig = 0;
  f.payload.mutable_routing() = h;
  radios_[0]->start_transmit(f, sim::Time::ms(1));
  sched_.run();
  // The relay saw (and kept) its mutated clone...
  ASSERT_TRUE(fwd.has_body());
  EXPECT_EQ(fwd.hop().ttl, 31);
  // ...while the far receiver decoded the untouched original.
  ASSERT_EQ(received_[2].size(), 1u);
  const net::Packet& far = received_[2][0].payload;
  EXPECT_EQ(far.hop().ttl, 32);
  EXPECT_TRUE(std::get<net::DsrRreqHeader>(far.routing()).record.empty());
  // The sender's handle is intact too.
  EXPECT_EQ(f.payload.hop().ttl, 32);
}

TEST_F(RadioChannelTest, StatsCountDecodes) {
  build({{0, 0}, {100, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_EQ(radios_[0]->frames_sent(), 1u);
  EXPECT_EQ(radios_[1]->frames_decoded(), 1u);
}

TEST_F(RadioChannelTest, TransmissionWithNoReceiversSchedulesNothing) {
  build({{0, 0}, {600, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  EXPECT_EQ(sched_.pending_count(), 1u);  // the sender's own tx-done only
  sched_.run();
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kChannel), 0u);
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kPhy), 1u);
}

TEST_F(RadioChannelTest, OneWaveEntryPerTransmission) {
  // Three receivers: six steps (an arrival and an end each), one entry.
  build({{0, 0}, {100, 0}, {150, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  EXPECT_EQ(sched_.pending_count(), 2u);  // the wave and tx-done
  sched_.run();
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kChannel), 3u);
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kPhy), 4u);
  for (int i = 1; i <= 3; ++i) EXPECT_EQ(received_[i].size(), 1u);
}

TEST_F(RadioChannelTest, DeafReceiverGetsNoEndStep) {
  // Radio 1 is keyed up when 0's frame arrives: that arrival is a step
  // (it counts) but books no end.  Steps: two arrivals, one end (radio
  // 0's corrupted reception of 1's frame) and two tx-dones.
  build({{0, 0}, {100, 0}});
  radios_[1]->start_transmit(frame(1, 0), sim::Time::ms(2));
  sched_.run_until(sim::Time::us(10));
  radios_[0]->start_transmit(frame(0, 1), sim::Time::us(50));
  sched_.run();
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kChannel), 2u);
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kPhy), 3u);
  EXPECT_EQ(radios_[0]->collisions(), 1u);
  EXPECT_EQ(radios_[1]->collisions(), 0u);
  EXPECT_TRUE(busy_log_[1].empty() || !busy_log_[1].back());
}

TEST_F(RadioChannelTest, ReentrantTransmitDuringAStep) {
  // Radio 1 answers inside its end step, while 0's wave still owes radio
  // 2 its end: the answer starts a second wave mid-flight.  2 hears only
  // 0, 3 hears only 1.
  build({{0, 0}, {100, 0}, {-200, 0}, {300, 0}});
  bool answered = false;
  radios_[1]->set_callbacks(Radio::Callbacks{
      [&](const Frame& f) {
        received_[1].push_back(f);
        if (answered) return;
        answered = true;
        radios_[1]->start_transmit(frame(1, net::kBroadcastId),
                                   sim::Time::ms(1));
      },
      nullptr,
      nullptr,
      nullptr,
  });
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  sched_.run();
  ASSERT_TRUE(answered);
  ASSERT_EQ(received_[2].size(), 1u);
  EXPECT_EQ(received_[2][0].transmitter, 0u);
  ASSERT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[0][0].transmitter, 1u);
  ASSERT_EQ(received_[3].size(), 1u);
  EXPECT_EQ(received_[3][0].transmitter, 1u);
  EXPECT_EQ(sched_.pending_count(), 0u);
}

TEST_F(RadioChannelTest, ReceptionEndRunsBeforeWhatItsBusyEdgeSchedules) {
  // The end's seq is drawn before the busy-edge callback runs, where a
  // self-scheduled end event drew it: an event that callback schedules
  // for the same instant still runs after the end.
  build({{0, 0}, {100, 0}});
  std::vector<int> order;
  radios_[1]->set_callbacks(Radio::Callbacks{
      [&order](const Frame&) { order.push_back(1); },
      [&](bool busy) {
        if (!busy) return;
        sched_.schedule_in(sim::Time::ms(1), [&order] { order.push_back(2); });
      },
      nullptr,
      nullptr,
  });
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST_F(RadioChannelTest, WaveStoppedMidArrivalsReleasesItsPacket) {
  // The far arrival is still ahead: the wave holds the frame.
  expect_teardown_releases_packet(sim::Time::ns(500));
}

TEST_F(RadioChannelTest, WaveStoppedBeforeItsEndsReleasesItsPacket) {
  // Both arrivals are done: the receptions hold the frame.
  expect_teardown_releases_packet(sim::Time::us(10));
}

}  // namespace
}  // namespace mts::phy
