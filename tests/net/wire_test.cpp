// The wire codec's contract: (1) the derived size law reproduces the
// legacy hand-maintained table for every packet kind, (2) randomized
// round trips are exact — decode(encode(p)) == p and
// encode(decode(buf)) == buf — and every alternative keeps its pinned
// v1 bytes, and (3) malformed buffers (truncation, corruption, bad
// versions, nonzero padding, unknown tags, lying length fields) are
// rejected rather than guessed at, which a mutation fuzz test checks
// beyond the hand-written cases.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "net/headers.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace mts::net::wire {
namespace {

// ---------------------------------------------------------------------------
// Randomized instance builders.  Each returns a routing header plus the
// common header that satisfies the v1 encode invariants (redundant
// fields mirrored from the common header).
// ---------------------------------------------------------------------------

std::uint32_t ru32(sim::Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
}
std::uint16_t ru16(sim::Rng& rng) {
  return static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
}
std::uint8_t ru8(sim::Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_int(0, 0xff));
}
NodeId rnode(sim::Rng& rng) {
  return static_cast<NodeId>(rng.uniform_int(0, 499));
}
RouteVec rroute(sim::Rng& rng, std::int64_t min_len = 0) {
  RouteVec v;
  const auto n = rng.uniform_int(min_len, 12);
  for (std::int64_t i = 0; i < n; ++i) v.push_back(rnode(rng));
  return v;
}

CommonHeader rcommon(sim::Rng& rng, PacketKind kind) {
  CommonHeader c;
  c.kind = kind;
  c.src = rnode(rng);
  c.dst = rnode(rng);
  c.uid = ru32(rng);
  c.payload_bytes = is_transport(kind)
                        ? static_cast<std::uint32_t>(rng.uniform_int(0, 1500))
                        : 0;
  // Whole microseconds: the wire carries u32 µs, so round trips of
  // µs-aligned times are exact (sub-µs loss is pinned separately).
  c.originated = sim::Time::us(rng.uniform_int(0, 0xffffffffLL));
  return c;
}

TcpHeader rtcp(sim::Rng& rng) {
  TcpHeader t;
  t.seq = ru32(rng);
  t.ack = ru32(rng);
  t.flow_id = ru16(rng);
  t.ts = sim::Time::ns(rng.uniform_int(0, (1LL << 62)));
  t.retransmit = rng.bernoulli(0.5);
  return t;
}

/// One randomized (common, tcp?, routing, payload) tuple per variant
/// alternative, invariants included.
struct Sample {
  CommonHeader common;
  bool has_tcp = false;
  TcpHeader tcp;
  RoutingHeader routing;
  /// Per-hop cell; the TTL byte always travels, hops/cursor only where
  /// the kind's wire layout carries the corresponding field.
  HopState hop;
  std::vector<std::uint8_t> payload;
};

Sample sample_for(std::size_t alternative, sim::Rng& rng) {
  Sample s;
  switch (alternative) {
    case 0: {  // monostate: a bare TCP segment
      s.common = rcommon(rng, rng.bernoulli(0.5) ? PacketKind::kTcpData
                                                 : PacketKind::kTcpAck);
      s.routing = std::monostate{};
      break;
    }
    case 1: {
      s.common = rcommon(rng, PacketKind::kAodvRreq);
      AodvRreqHeader h;
      h.rreq_id = ru32(rng);
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.orig_seq = ru32(rng);
      h.dst_seq = ru32(rng);
      h.dst_seq_known = rng.bernoulli(0.5);
      s.routing = h;
      break;
    }
    case 2: {
      s.common = rcommon(rng, PacketKind::kAodvRrep);
      AodvRrepHeader h;
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.dst_seq = ru32(rng);
      h.lifetime = sim::Time::ns(rng.uniform_int(0, (1LL << 48) - 1));
      s.routing = h;
      break;
    }
    case 3: {
      s.common = rcommon(rng, PacketKind::kAodvRerr);
      AodvRerrHeader h;
      const auto n = rng.uniform_int(0, 6);
      for (std::int64_t i = 0; i < n; ++i) {
        h.unreachable.push_back({rnode(rng), ru32(rng)});
      }
      s.routing = h;
      break;
    }
    case 4: {
      s.common = rcommon(rng, PacketKind::kDsrRreq);
      DsrRreqHeader h;
      h.rreq_id = ru32(rng);
      h.orig = s.common.src;  // v1 invariant
      h.target = rnode(rng);
      h.record = rroute(rng);
      s.routing = h;
      break;
    }
    case 5: {
      s.common = rcommon(rng, PacketKind::kDsrRrep);
      DsrRrepHeader h;
      h.route = rroute(rng, 2);
      h.orig = h.route.front();  // v1 invariant: route spans orig..target
      h.target = h.route.back();
      s.routing = h;
      break;
    }
    case 6: {
      s.common = rcommon(rng, PacketKind::kDsrRerr);
      DsrRerrHeader h;
      h.notify = s.common.dst;  // v1 invariant
      h.from = rnode(rng);
      h.to = rnode(rng);
      h.back_path = rroute(rng);
      s.routing = h;
      break;
    }
    case 7: {
      s.common = rcommon(rng, PacketKind::kTcpData);
      DsrSourceRoute h;
      h.route = rroute(rng);
      h.salvaged = rng.bernoulli(0.5);
      s.routing = h;
      break;
    }
    case 8: {
      s.common = rcommon(rng, PacketKind::kMtsRreq);
      MtsRreqHeader h;
      h.bcast_id = ru32(rng);
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 9: {
      s.common = rcommon(rng, PacketKind::kMtsRrep);
      MtsRrepHeader h;
      h.rrep_id = ru32(rng);
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.hop_count = ru8(rng);  // origin-stamped total, stays in the header
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 10: {
      s.common = rcommon(rng, PacketKind::kMtsCheck);
      MtsCheckHeader h;
      h.check_id = ru32(rng);
      h.path_id = ru16(rng);
      h.checker = rnode(rng);
      h.source = s.common.dst;  // v1 invariant
      h.hop_count = ru8(rng);  // origin-stamped total, stays in the header
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 11: {
      s.common = rcommon(rng, PacketKind::kMtsCheckError);
      MtsCheckErrorHeader h;
      h.path_id = ru16(rng);
      h.checker = s.common.dst;  // v1 invariant
      h.reporter = s.common.src;
      h.flow_source = rnode(rng);
      h.broken_from = rnode(rng);
      h.broken_to = rnode(rng);
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 12: {
      s.common = rcommon(rng, PacketKind::kMtsRerr);
      MtsRerrHeader h;
      h.source = s.common.dst;  // v1 invariant
      h.dst = rnode(rng);
      h.path_id = ru16(rng);
      h.broken_from = rnode(rng);
      h.broken_to = rnode(rng);
      s.routing = h;
      break;
    }
    case 13: {
      s.common = rcommon(rng, PacketKind::kTcpData);
      MtsDataTag h;
      h.path_id = ru16(rng);
      s.routing = h;
      break;
    }
    case 14: {
      s.common = rcommon(rng, PacketKind::kTcpData);
      MtsProbeHeader h;
      h.path_id = ru16(rng);
      h.probe_id = ru32(rng);
      h.echo = rng.bernoulli(0.5);
      s.routing = h;
      break;
    }
    default:
      ADD_FAILURE() << "no such alternative";
  }
  s.hop.ttl = ru8(rng);
  s.hop.hops = ru8(rng);
  s.hop.cursor = ru16(rng);
  if (is_transport(s.common.kind)) {
    s.has_tcp = true;
    s.tcp = rtcp(rng);
    s.payload.resize(s.common.payload_bytes);
    for (auto& b : s.payload) b = ru8(rng);
  }
  return s;
}

constexpr std::size_t kAlternatives = 15;

std::vector<std::uint8_t> encode_sample(const Sample& s) {
  std::vector<std::uint8_t> buf;
  encode_headers(s.common, s.has_tcp ? &s.tcp : nullptr, s.routing, buf,
                 s.hop);
  buf.insert(buf.end(), s.payload.begin(), s.payload.end());
  return buf;
}

// ---------------------------------------------------------------------------
// Satellite: the codec-derived size law equals the legacy table.
// ---------------------------------------------------------------------------

TEST(WireSizeTest, SizeLawPinsTheLegacyTable) {
  // The exact values the retired hand-maintained table carried; airtime
  // accounting (and every fingerprint) depends on these staying fixed.
  EXPECT_EQ(routing_header_bytes(RoutingHeader{std::monostate{}}), 0u);
  EXPECT_EQ(routing_header_bytes(RoutingHeader{AodvRreqHeader{}}), 24u);
  EXPECT_EQ(routing_header_bytes(RoutingHeader{AodvRrepHeader{}}), 20u);
  AodvRerrHeader rerr;
  rerr.unreachable.push_back({1, 2});
  rerr.unreachable.push_back({3, 4});
  EXPECT_EQ(routing_header_bytes(RoutingHeader{rerr}), 4u + 2 * 8u);
  DsrRreqHeader dreq;
  dreq.record = {1, 2, 3};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{dreq}), 8u + 3 * 4u);
  DsrRrepHeader drep;
  drep.route = {1, 2};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{drep}), 8u + 2 * 4u);
  DsrRerrHeader derr;
  derr.back_path = {7};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{derr}), 12u + 4u);
  DsrSourceRoute sr;
  sr.route = {1, 2, 3, 4};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{sr}), 4u + 4 * 4u);
  MtsRreqHeader mreq;
  mreq.nodes = {1, 2, 3};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{mreq}), 16u + 3 * 4u);
  MtsRrepHeader mrep;
  mrep.nodes = {1};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{mrep}), 16u + 4u);
  MtsCheckHeader chk;
  chk.nodes = {1, 2};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{chk}), 16u + 2 * 4u);
  MtsCheckErrorHeader cerr;
  cerr.nodes = {1, 2, 3, 4};
  EXPECT_EQ(routing_header_bytes(RoutingHeader{cerr}), 16u + 4 * 4u);
  EXPECT_EQ(routing_header_bytes(RoutingHeader{MtsRerrHeader{}}), 16u);
  EXPECT_EQ(routing_header_bytes(RoutingHeader{MtsDataTag{}}), 4u);
  EXPECT_EQ(routing_header_bytes(RoutingHeader{MtsProbeHeader{}}), 8u);
}

TEST(WireSizeTest, EncoderWritesExactlyTheLawfulByteCount) {
  sim::Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    for (std::size_t a = 0; a < kAlternatives; ++a) {
      const Sample s = sample_for(a, rng);
      std::vector<std::uint8_t> buf;
      encode_headers(s.common, s.has_tcp ? &s.tcp : nullptr, s.routing, buf);
      EXPECT_EQ(buf.size(), kCommonHeaderBytes +
                                (s.has_tcp ? kTcpHeaderBytes : 0) +
                                routing_header_bytes(s.routing));
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(WireRoundTripTest, EveryAlternativeRoundTripsBitIdentically) {
  sim::Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    for (std::size_t a = 0; a < kAlternatives; ++a) {
      const Sample s = sample_for(a, rng);
      const std::vector<std::uint8_t> buf = encode_sample(s);
      const auto d = decode_packet(buf);
      ASSERT_TRUE(d.has_value()) << "alternative " << a;
      // The decoded struct re-encodes to the identical byte string —
      // with the common header byte-equal and the encoders injective
      // per field, this is a full struct-level round-trip check.
      Sample back;
      back.common = d->common;
      back.has_tcp = d->tcp.has_value();
      if (back.has_tcp) back.tcp = *d->tcp;
      back.routing = d->routing;
      back.hop = d->hop;
      back.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(d->payload_offset),
                          buf.end());
      EXPECT_EQ(encode_sample(back), buf) << "alternative " << a;
      // The TTL byte travels for every kind; hops/cursor only where the
      // kind's layout carries them (the re-encode above covers those).
      EXPECT_EQ(d->hop.ttl, s.hop.ttl);
      // Spot checks on the reconstituted redundant fields.
      EXPECT_EQ(d->common.src, s.common.src);
      EXPECT_EQ(d->common.dst, s.common.dst);
      EXPECT_EQ(d->common.uid, s.common.uid);
      EXPECT_EQ(d->common.originated, s.common.originated);
      EXPECT_EQ(d->routing.index(), s.routing.index());
      EXPECT_EQ(d->payload_bytes, s.common.payload_bytes);
    }
  }
}

TEST(WireRoundTripTest, ReconstitutedFieldsComeFromTheCommonHeader) {
  sim::Rng rng(11);
  const Sample s = sample_for(4, rng);  // DSR RREQ
  const auto d = decode_packet(encode_sample(s));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(std::get<DsrRreqHeader>(d->routing).orig, s.common.src);

  const Sample q = sample_for(1, rng);  // AODV RREQ: hop count off the wire
  const auto dq = decode_packet(encode_sample(q));
  ASSERT_TRUE(dq.has_value());
  EXPECT_EQ(dq->hop.hops, q.hop.hops);

  const Sample r = sample_for(5, rng);  // DSR RREP: cursor off the wire
  const auto dr = decode_packet(encode_sample(r));
  ASSERT_TRUE(dr.has_value());
  EXPECT_EQ(dr->hop.cursor, r.hop.cursor);

  const Sample c = sample_for(10, rng);  // MTS check
  const auto dc = decode_packet(encode_sample(c));
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(std::get<MtsCheckHeader>(dc->routing).source, c.common.dst);

  const Sample e = sample_for(11, rng);  // MTS check error
  const auto de = decode_packet(encode_sample(e));
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(std::get<MtsCheckErrorHeader>(de->routing).reporter, e.common.src);
  EXPECT_EQ(std::get<MtsCheckErrorHeader>(de->routing).checker, e.common.dst);
}

TEST(WireRoundTripTest, OriginatedTravelsAsFlooredMicroseconds) {
  CommonHeader c;
  c.kind = PacketKind::kTcpAck;
  c.originated = sim::Time::ns(1234567);  // 1234.567 µs
  std::vector<std::uint8_t> buf;
  encode_headers(c, nullptr, RoutingHeader{std::monostate{}}, buf);
  const auto d = decode_packet(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->common.originated, sim::Time::us(1234));  // documented loss
}

TEST(WireRoundTripTest, PayloadBytesAreCopiedAndZeroFilled) {
  net::Packet p;
  p.mutable_common().kind = PacketKind::kTcpData;
  p.mutable_common().payload_bytes = 8;
  p.mutable_tcp() = TcpHeader{};
  const std::uint8_t head[3] = {0xAA, 0xBB, 0xCC};
  std::vector<std::uint8_t> buf;
  encode_packet(p, buf, head, sizeof head);
  const auto d = decode_packet(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload_bytes, 8u);
  EXPECT_EQ(buf.size(), d->payload_offset + 8);
  EXPECT_EQ(buf[d->payload_offset], 0xAA);
  EXPECT_EQ(buf[d->payload_offset + 2], 0xCC);
  EXPECT_EQ(buf[d->payload_offset + 3], 0x00);  // zero-filled remainder
  EXPECT_EQ(buf.back(), 0x00);
}

// ---------------------------------------------------------------------------
// Golden wire images.  A layout change applied to the encoder and the
// decoder alike still round-trips, so the tests above cannot see it;
// these pin one fixed instance per alternative to its v1 bytes.  Every
// field holds a distinct value, so a swapped or resized field shows.
// ---------------------------------------------------------------------------

Sample golden_sample(std::size_t alternative) {
  Sample s;
  s.common.src = 0x11;
  s.common.dst = 0x22;
  s.common.uid = 0x33343536;
  s.common.originated = sim::Time::us(0x44454647);
  s.hop.ttl = 0x1f;
  // hops/cursor are set only where the kind's layout carries them, so
  // the decoded hop cell equals this one.
  switch (alternative) {
    case 0:
      s.common.kind = PacketKind::kTcpData;
      s.common.payload_bytes = 2;
      s.payload = {0xde, 0xad};
      s.routing = std::monostate{};
      break;
    case 1:
      s.common.kind = PacketKind::kAodvRreq;
      s.hop.hops = 5;
      s.routing = AodvRreqHeader{0x01020304, 0x0a, 0x0b, 0x05060708,
                                 0x090a0b0c, true};
      break;
    case 2:
      s.common.kind = PacketKind::kAodvRrep;
      s.hop.hops = 5;
      s.routing = AodvRrepHeader{0x0a, 0x0b, 0x0d0e0f10,
                                 sim::Time::ns(0xa1a2a3a4a5a6LL)};
      break;
    case 3: {
      s.common.kind = PacketKind::kAodvRerr;
      AodvRerrHeader h;
      h.unreachable.push_back({0x0c, 0x13141516});
      h.unreachable.push_back({0x0d, 0x17181920});
      s.routing = h;
      break;
    }
    case 4:
      s.common.kind = PacketKind::kDsrRreq;
      s.routing = DsrRreqHeader{0x21222324, s.common.src, 0x0e, {0x31, 0x32}};
      break;
    case 5:
      s.common.kind = PacketKind::kDsrRrep;
      s.hop.cursor = 0x0607;
      s.routing = DsrRrepHeader{0x41, 0x43, {0x41, 0x42, 0x43}};
      break;
    case 6:
      s.common.kind = PacketKind::kDsrRerr;
      s.hop.cursor = 0x0607;
      s.routing = DsrRerrHeader{s.common.dst, 0x51, 0x52, {0x53}};
      break;
    case 7:
      s.common.kind = PacketKind::kTcpData;
      s.hop.cursor = 0x0607;
      s.routing = DsrSourceRoute{{0x11, 0x61, 0x22}, true};
      break;
    case 8:
      s.common.kind = PacketKind::kMtsRreq;
      s.hop.hops = 5;
      s.routing = MtsRreqHeader{0x71727374, 0x11, 0x22, {0x75, 0x76}};
      break;
    case 9:
      s.common.kind = PacketKind::kMtsRrep;
      s.hop.cursor = 0x0607;
      s.routing = MtsRrepHeader{0x81828384, 0x11, 0x22, 3, {0x85, 0x86}};
      break;
    case 10:
      s.common.kind = PacketKind::kMtsCheck;
      s.hop.cursor = 0x0607;
      s.routing =
          MtsCheckHeader{0x91929394, 0x9596, 0x98, s.common.dst, 3, {0x97}};
      break;
    case 11:
      s.common.kind = PacketKind::kMtsCheckError;
      s.hop.cursor = 0x0607;
      s.routing = MtsCheckErrorHeader{0xa1a2,       s.common.dst, 0xa3,
                                      s.common.src, 0xa4,         0xa5,
                                      {0xa6, 0xa7}};
      break;
    case 12:
      s.common.kind = PacketKind::kMtsRerr;
      s.routing = MtsRerrHeader{s.common.dst, 0xb1, 0xb2b3, 0xb4, 0xb5};
      break;
    case 13:
      s.common.kind = PacketKind::kTcpAck;
      s.routing = MtsDataTag{0xc1c2};
      break;
    case 14:
      s.common.kind = PacketKind::kTcpData;
      s.routing = MtsProbeHeader{0xd1d2, 0xd3d4d5d6, true};
      break;
    default:
      ADD_FAILURE() << "no such alternative";
  }
  s.has_tcp = is_transport(s.common.kind);
  s.tcp = TcpHeader{0xe1e2e3e4, 0xe5e6e7e8, 0xe9ea,
                    sim::Time::ns(0x0102030405060708LL), true};
  return s;
}

/// The v1 images of golden_sample(0..14): headers then payload.
constexpr const char* kGoldenHex[kAlternatives] = {
    // bare TCP segment + payload
    "101f0002000000110000002233343536444546471001e9eae1e2e3e4e5e6e7e8"
    "0102030405060708dead",
    // AODV RREQ
    "121f000000000011000000223334353644454647010203040000000a0000000b"
    "05060708090a0b0c05010000",
    // AODV RREP
    "131f0000000000110000002233343536444546470000000a0000000b0d0e0f10"
    "05a1a2a3a4a5a600",
    // AODV RERR
    "141f000000000011000000223334353644454647020000000000000c13141516"
    "0000000d17181920",
    // DSR RREQ
    "151f000000000011000000223334353644454647212223240000000e00000031"
    "00000032",
    // DSR RREP
    "161f000000000011000000223334353644454647060700000000000000000041"
    "0000004200000043",
    // DSR RERR
    "171f000000000011000000223334353644454647000000510000005206070000"
    "00000053",
    // TCP + DSR source route
    "101f0000000000110000002233343536444546471001e9eae1e2e3e4e5e6e7e8"
    "010203040506070801010607000000110000006100000022",
    // MTS RREQ
    "181f000000000011000000223334353644454647717273740000001100000022"
    "050000000000007500000076",
    // MTS RREP
    "191f000000000011000000223334353644454647818283840000001100000022"
    "030006070000008500000086",
    // MTS check
    "1a1f000000000011000000223334353644454647919293949596030000000098"
    "0607000000000097",
    // MTS check error
    "1b1f000000000011000000223334353644454647a1a2000000a3000000a40000"
    "00a50607000000a6000000a7",
    // MTS RERR
    "1c1f000000000011000000223334353644454647000000b1b2b3000000b40000"
    "00b50000",
    // TCP + MTS data tag
    "111f0000000000110000002233343536444546471001e9eae1e2e3e4e5e6e7e8"
    "01020304050607080200c1c2",
    // TCP + MTS probe
    "101f0000000000110000002233343536444546471001e9eae1e2e3e4e5e6e7e8"
    "01020304050607080301d1d2d3d4d5d6",
};

std::string to_hex(const std::vector<std::uint8_t>& buf) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : buf) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0x0f];
  }
  return s;
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> buf;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    buf.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return buf;
}

// Every field of every header, for struct equality without requiring
// operator== on the production types.
auto fields(const CommonHeader& c) {
  return std::tie(c.kind, c.src, c.dst, c.uid, c.payload_bytes, c.originated);
}
auto fields(const TcpHeader& t) {
  return std::tie(t.seq, t.ack, t.flow_id, t.ts, t.retransmit);
}
auto fields(const std::monostate&) { return std::tie(); }
auto fields(const AodvRreqHeader& h) {
  return std::tie(h.rreq_id, h.orig, h.dst, h.orig_seq, h.dst_seq,
                  h.dst_seq_known);
}
auto fields(const AodvRrepHeader& h) {
  return std::tie(h.orig, h.dst, h.dst_seq, h.lifetime);
}
auto fields(const AodvRerrHeader& h) { return std::tie(h.unreachable); }
auto fields(const DsrRreqHeader& h) {
  return std::tie(h.rreq_id, h.orig, h.target, h.record);
}
auto fields(const DsrRrepHeader& h) {
  return std::tie(h.orig, h.target, h.route);
}
auto fields(const DsrRerrHeader& h) {
  return std::tie(h.notify, h.from, h.to, h.back_path);
}
auto fields(const DsrSourceRoute& h) { return std::tie(h.route, h.salvaged); }
auto fields(const MtsRreqHeader& h) {
  return std::tie(h.bcast_id, h.orig, h.dst, h.nodes);
}
auto fields(const MtsRrepHeader& h) {
  return std::tie(h.rrep_id, h.orig, h.dst, h.hop_count, h.nodes);
}
auto fields(const MtsCheckHeader& h) {
  return std::tie(h.check_id, h.path_id, h.checker, h.source, h.hop_count,
                  h.nodes);
}
auto fields(const MtsCheckErrorHeader& h) {
  return std::tie(h.path_id, h.checker, h.flow_source, h.reporter,
                  h.broken_from, h.broken_to, h.nodes);
}
auto fields(const MtsRerrHeader& h) {
  return std::tie(h.source, h.dst, h.path_id, h.broken_from, h.broken_to);
}
auto fields(const MtsDataTag& h) { return std::tie(h.path_id); }
auto fields(const MtsProbeHeader& h) {
  return std::tie(h.path_id, h.probe_id, h.echo);
}

bool same_routing(const RoutingHeader& a, const RoutingHeader& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&b](const auto& x) {
        return fields(x) == fields(std::get<std::decay_t<decltype(x)>>(b));
      },
      a);
}

TEST(WireGoldenTest, EveryAlternativeEncodesToItsPinnedImage) {
  for (std::size_t a = 0; a < kAlternatives; ++a) {
    EXPECT_EQ(to_hex(encode_sample(golden_sample(a))), kGoldenHex[a])
        << "alternative " << a;
  }
}

TEST(WireGoldenTest, EveryPinnedImageDecodesToItsInstance) {
  for (std::size_t a = 0; a < kAlternatives; ++a) {
    const Sample s = golden_sample(a);
    const auto d = decode_packet(from_hex(kGoldenHex[a]));
    ASSERT_TRUE(d.has_value()) << "alternative " << a;
    EXPECT_TRUE(fields(d->common) == fields(s.common)) << "alternative " << a;
    ASSERT_EQ(d->tcp.has_value(), s.has_tcp) << "alternative " << a;
    if (s.has_tcp) {
      EXPECT_TRUE(fields(*d->tcp) == fields(s.tcp)) << "alternative " << a;
    }
    EXPECT_TRUE(same_routing(d->routing, s.routing)) << "alternative " << a;
    EXPECT_EQ(d->hop, s.hop) << "alternative " << a;
    EXPECT_EQ(d->payload_bytes, s.payload.size()) << "alternative " << a;
  }
}

// ---------------------------------------------------------------------------
// Rejection: malformed buffers must come back nullopt, never garbage.
// ---------------------------------------------------------------------------

TEST(WireRejectTest, BadVersionNibble) {
  sim::Rng rng(1);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(1, rng));
  buf[0] = static_cast<std::uint8_t>((buf[0] & 0x0f) |
                                     ((kWireVersion + 1) << 4));
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, UnknownKindNibble) {
  sim::Rng rng(2);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(0, rng));
  buf[0] = static_cast<std::uint8_t>((kWireVersion << 4) | 0x0e);  // kind 14
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, NonzeroPaddingIsCorruption) {
  sim::Rng rng(3);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(1, rng));
  ASSERT_EQ(buf.size(), kCommonHeaderBytes + 24u);
  buf.back() = 0x01;  // last pad byte of the AODV RREQ
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, UndefinedFlagBitsAreCorruption) {
  sim::Rng rng(4);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(1, rng));
  buf[kCommonHeaderBytes + 21] = 0x02;  // dst_seq_known flags byte
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, UnknownOptionTag) {
  net::Packet p;
  p.mutable_common().kind = PacketKind::kTcpData;
  p.mutable_tcp() = TcpHeader{};
  std::vector<std::uint8_t> buf;
  encode_headers(p, buf);
  buf.insert(buf.end(), {0x7f, 0x00, 0x00, 0x00});  // bogus option
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, ShortRouteDsrRrepIsRejected) {
  // A decoded DSR RREP must span orig..target: fabricate one whose
  // route list is a single entry.
  CommonHeader c;
  c.kind = PacketKind::kDsrRrep;
  DsrRrepHeader h;
  h.route = {5, 9};
  h.orig = 5;
  h.target = 9;
  std::vector<std::uint8_t> buf;
  encode_headers(c, nullptr, RoutingHeader{h}, buf);
  buf.resize(buf.size() - 4);  // drop one route entry -> size 1
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, AodvRerrCountMustMatchTheSectionLength) {
  sim::Rng rng(5);
  Sample s;
  do {
    s = sample_for(3, rng);
  } while (std::get<AodvRerrHeader>(s.routing).unreachable.empty());
  std::vector<std::uint8_t> buf = encode_sample(s);
  ++buf[kCommonHeaderBytes];  // count field no longer matches the length
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, TruncatedPrefixesAreRejectedOrSelfConsistent) {
  // Dropping trailing bytes from a DSR-style section legitimately reads
  // as a shorter route list, so the honest property is: every prefix
  // either fails to decode or re-encodes bit-identically to itself.
  sim::Rng rng(6);
  for (std::size_t a = 0; a < kAlternatives; ++a) {
    const Sample s = sample_for(a, rng);
    const std::vector<std::uint8_t> buf = encode_sample(s);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      const auto d = decode_packet(buf.data(), len);
      if (!d.has_value()) continue;
      std::vector<std::uint8_t> again;
      encode_headers(d->common, d->tcp.has_value() ? &*d->tcp : nullptr,
                     d->routing, again, d->hop);
      again.insert(again.end(), buf.begin() + static_cast<std::ptrdiff_t>(d->payload_offset),
                   buf.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_EQ(again, std::vector<std::uint8_t>(buf.begin(),
                                                 buf.begin() + static_cast<std::ptrdiff_t>(len)))
          << "alternative " << a << " prefix " << len;
    }
  }
}

TEST(WireRejectTest, EmptyAndTinyBuffers) {
  EXPECT_FALSE(decode_packet(nullptr, 0).has_value());
  const std::vector<std::uint8_t> tiny(kCommonHeaderBytes - 1, 0);
  EXPECT_FALSE(decode_packet(tiny).has_value());
}

// ---------------------------------------------------------------------------
// Deterministic mutation fuzz of decode_packet, the parser an adversary's
// captures go through.  Seeds are encoder output for every alternative,
// with and without TCP and payload; each iteration stacks one to three
// mutations on a seed.  Seed and budget are fixed, so a failure replays.
// ---------------------------------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

std::vector<Bytes> fuzz_corpus() {
  sim::Rng rng(15);
  std::vector<Bytes> corpus;
  for (std::size_t a = 0; a < kAlternatives; ++a) {
    for (int variant = 0; variant < 4; ++variant) {
      Sample s = sample_for(a, rng);
      if (is_transport(s.common.kind)) {
        s.has_tcp = (variant & 1) != 0;
        const std::size_t payload = (variant & 2) != 0 ? 1 + a : 0;
        s.payload.resize(payload);
        s.common.payload_bytes = static_cast<std::uint32_t>(payload);
      }
      corpus.push_back(encode_sample(s));
    }
  }
  return corpus;
}

std::size_t rpos(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

void mutate(Bytes& buf, const std::vector<Bytes>& corpus, sim::Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0:  // byte rewrite
      if (!buf.empty()) buf[rpos(rng, buf.size())] = ru8(rng);
      break;
    case 1:  // bit flip
      if (!buf.empty()) {
        buf[rpos(rng, buf.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      }
      break;
    case 2:  // truncation
      buf.resize(rpos(rng, buf.size() + 1));
      break;
    case 3:  // extension, with zeros (which padding accepts) or noise
      for (auto n = rng.uniform_int(1, 8); n > 0; --n) {
        buf.push_back(rng.bernoulli(0.5) ? 0 : ru8(rng));
      }
      break;
    case 4: {  // splice: a prefix of this image, a suffix of another
      const Bytes& other = corpus[rpos(rng, corpus.size())];
      buf.resize(rpos(rng, buf.size() + 1));
      buf.insert(buf.end(),
                 other.begin() + static_cast<std::ptrdiff_t>(
                                     rpos(rng, other.size() + 1)),
                 other.end());
      break;
    }
    case 5:  // payload_bytes lie: nearby or arbitrary
      if (buf.size() >= 4) {
        const int old = (buf[2] << 8) | buf[3];
        const auto lie = rng.bernoulli(0.5)
                             ? old + rng.uniform_int(-4, 4)
                             : rng.uniform_int(0, 0xffff);
        buf[2] = static_cast<std::uint8_t>(lie >> 8);
        buf[3] = static_cast<std::uint8_t>(lie);
      }
      break;
    case 6:  // AODV RERR count lie
      if (buf.size() > kCommonHeaderBytes &&
          (buf[0] & 0x0f) == static_cast<std::uint8_t>(PacketKind::kAodvRerr)) {
        buf[kCommonHeaderBytes] = rng.bernoulli(0.5)
                                      ? static_cast<std::uint8_t>(
                                            buf[kCommonHeaderBytes] +
                                            rng.uniform_int(-2, 2))
                                      : ru8(rng);
      }
      break;
    case 7: {  // kind or option-tag rewrite
      if (buf.empty()) break;
      if (rng.bernoulli(0.5)) {
        buf[0] = static_cast<std::uint8_t>((buf[0] & 0xf0) |
                                           rng.uniform_int(0, 15));
        break;
      }
      std::size_t at = kCommonHeaderBytes;
      if (at < buf.size() && buf[at] == kTagTcp) at += kTcpHeaderBytes;
      constexpr std::uint8_t kTags[] = {0x00,         kTagSourceRoute,
                                        kTagMtsData,  kTagMtsProbe,
                                        kTagTcp,      0x7f};
      if (at < buf.size()) buf[at] = kTags[rpos(rng, std::size(kTags))];
      break;
    }
    default:
      break;
  }
}

TEST(WireFuzzTest, DecodeNeverThrowsAndEveryAcceptedImageReencodes) {
  constexpr int kIterations = 200000;
  const std::vector<Bytes> corpus = fuzz_corpus();
  sim::Rng rng(20260);
  int accepted = 0;
  for (int iter = 0; iter < kIterations; ++iter) {
    Bytes buf = corpus[rpos(rng, corpus.size())];
    for (auto n = rng.uniform_int(1, 3); n > 0; --n) mutate(buf, corpus, rng);

    std::optional<DecodedPacket> d;
    ASSERT_NO_THROW(d = decode_packet(buf)) << "iteration " << iter;
    if (!d.has_value()) continue;
    ++accepted;
    Bytes again;
    ASSERT_NO_THROW(encode_headers(d->common,
                                   d->tcp.has_value() ? &*d->tcp : nullptr,
                                   d->routing, again, d->hop))
        << "iteration " << iter;
    again.insert(again.end(),
                 buf.begin() + static_cast<std::ptrdiff_t>(d->payload_offset),
                 buf.end());
    ASSERT_EQ(again, buf) << "iteration " << iter;
    ASSERT_EQ(routing_header_bytes(d->routing),
              d->payload_offset - kCommonHeaderBytes -
                  (d->tcp.has_value() ? kTcpHeaderBytes : 0))
        << "iteration " << iter;
  }
  // The mutations neither all miss nor all land: both verdicts occur.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kIterations);
}

// ---------------------------------------------------------------------------
// Encode-side invariants are construction bugs, not soft failures.
// ---------------------------------------------------------------------------

TEST(WireEncodeTest, ViolatedInvariantsTrip) {
  std::vector<std::uint8_t> buf;

  CommonHeader c;
  c.kind = PacketKind::kDsrRreq;
  c.src = 1;
  DsrRreqHeader rreq;
  rreq.orig = 2;  // != src
  EXPECT_THROW(encode_headers(c, nullptr, RoutingHeader{rreq}, buf),
               sim::SimError);

  CommonHeader mc;
  mc.kind = PacketKind::kMtsRerr;
  mc.dst = 3;
  MtsRerrHeader rerr;
  rerr.source = 4;  // != dst
  EXPECT_THROW(encode_headers(mc, nullptr, RoutingHeader{rerr}, buf),
               sim::SimError);

  CommonHeader big;
  big.kind = PacketKind::kTcpData;
  big.payload_bytes = 0x10000;  // exceeds the u16 wire field
  EXPECT_THROW(encode_headers(big, nullptr, RoutingHeader{std::monostate{}}, buf),
               sim::SimError);

  CommonHeader mismatched;
  mismatched.kind = PacketKind::kAodvRreq;
  EXPECT_THROW(
      encode_headers(mismatched, nullptr, RoutingHeader{AodvRrepHeader{}}, buf),
      sim::SimError);

  CommonHeader control;
  control.kind = PacketKind::kMtsRreq;
  TcpHeader t;
  EXPECT_THROW(encode_headers(control, &t, RoutingHeader{MtsRreqHeader{}}, buf),
               sim::SimError);
}

}  // namespace
}  // namespace mts::net::wire
