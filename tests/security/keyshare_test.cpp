// The secrecy game's machinery: GF(2^8) arithmetic, Shamir threshold
// splitting/reconstruction, deterministic payload materialization, and
// the capture pool that parses key shares back out of real wire bytes.
#include "security/keyshare.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "net/wire.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace mts::security {
namespace {

// ---------------------------------------------------------------------------
// GF(2^8).
// ---------------------------------------------------------------------------

TEST(Gf256Test, MultiplicationBasics) {
  EXPECT_EQ(gf256::mul(0, 17), 0);
  EXPECT_EQ(gf256::mul(17, 0), 0);
  EXPECT_EQ(gf256::mul(1, 17), 17);
  EXPECT_EQ(gf256::mul(17, 1), 17);
  // AES-polynomial sanity pin: x * x = x^2 (0x02 * 0x02 = 0x04), and a
  // reduction case, 0x80 * 0x02 = 0x1B.
  EXPECT_EQ(gf256::mul(0x02, 0x02), 0x04);
  EXPECT_EQ(gf256::mul(0x80, 0x02), 0x1B);
}

TEST(Gf256Test, MultiplicationIsCommutative) {
  sim::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    EXPECT_EQ(gf256::mul(a, b), gf256::mul(b, a));
  }
}

TEST(Gf256Test, EveryNonzeroElementHasAnInverse) {
  for (int a = 1; a <= 255; ++a) {
    const auto x = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf256::mul(x, gf256::inv(x)), 1) << "a = " << a;
  }
  EXPECT_THROW((void)gf256::inv(0), sim::SimError);
}

// ---------------------------------------------------------------------------
// Shamir split / reconstruct.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> random_secret(sim::Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> s(len);
  for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return s;
}

TEST(ShamirTest, AnyThresholdSubsetReconstructs) {
  sim::Rng rng(7);
  const auto secret = random_secret(rng, 16);
  const auto shares = shamir_split(secret, 5, 3, rng);
  ASSERT_EQ(shares.size(), 5u);
  // Every 3-subset of the 5 shares recovers the secret.
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = i + 1; j < 5; ++j) {
      for (std::size_t k = j + 1; k < 5; ++k) {
        const std::vector<Share> subset{shares[i], shares[j], shares[k]};
        const auto got = shamir_reconstruct(subset, 3);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, secret) << i << "," << j << "," << k;
      }
    }
  }
}

TEST(ShamirTest, FewerThanThresholdSharesIsNoReconstruction) {
  sim::Rng rng(8);
  const auto secret = random_secret(rng, 16);
  const auto shares = shamir_split(secret, 4, 3, rng);
  const std::vector<Share> two{shares[0], shares[1]};
  EXPECT_FALSE(shamir_reconstruct(two, 3).has_value());
  EXPECT_FALSE(shamir_reconstruct({}, 3).has_value());
  EXPECT_FALSE(shamir_reconstruct(two, 0).has_value());
}

TEST(ShamirTest, BelowThresholdSharesDetermineNothing) {
  // Information-theoretic check: two (t-1)-share prefixes from splits of
  // DIFFERENT secrets can coexist with any secret, so reconstruction
  // treating t-1 shares as a full set (t' = t-1) must not recover the
  // real one except by astronomical accident.
  sim::Rng rng(9);
  const auto secret = random_secret(rng, 16);
  const auto shares = shamir_split(secret, 5, 3, rng);
  const std::vector<Share> two{shares[0], shares[1]};
  const auto wrong = shamir_reconstruct(two, 2);  // pretend t = 2
  ASSERT_TRUE(wrong.has_value());
  EXPECT_NE(*wrong, secret);
}

TEST(ShamirTest, DegenerateAndInvalidInputs) {
  sim::Rng rng(10);
  const auto secret = random_secret(rng, 8);
  // n = t = 1: the share IS the secret's evaluation; round-trips.
  const auto solo = shamir_split(secret, 1, 1, rng);
  ASSERT_EQ(solo.size(), 1u);
  const auto got = shamir_reconstruct(solo, 1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, secret);

  // Duplicate evaluation points are rejected.
  const auto shares = shamir_split(secret, 3, 2, rng);
  const std::vector<Share> dup{shares[0], shares[0]};
  EXPECT_FALSE(shamir_reconstruct(dup, 2).has_value());

  // Mismatched share lengths are rejected.
  std::vector<Share> ragged{shares[0], shares[1]};
  ragged[1].bytes.pop_back();
  EXPECT_FALSE(shamir_reconstruct(ragged, 2).has_value());

  // x = 0 would be the secret itself; rejected.
  std::vector<Share> zeroed{shares[0], shares[1]};
  zeroed[1].x = 0;
  EXPECT_FALSE(shamir_reconstruct(zeroed, 2).has_value());

  // Invalid split parameters trip.
  EXPECT_THROW((void)shamir_split(secret, 2, 3, rng), sim::SimError);
  EXPECT_THROW((void)shamir_split(secret, 0, 0, rng), sim::SimError);
}

TEST(ShamirTest, CorruptedShareYieldsTheWrongSecret) {
  sim::Rng rng(11);
  const auto secret = random_secret(rng, 16);
  auto shares = shamir_split(secret, 3, 3, rng);
  shares[1].bytes[0] ^= 0x55;
  const auto got = shamir_reconstruct(shares, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_NE(*got, secret);
}

// ---------------------------------------------------------------------------
// SecrecyPlane + KeyRecoveryPool, end to end over real wire bytes.
// ---------------------------------------------------------------------------

net::Packet data_segment(std::uint16_t flow, std::uint32_t seq,
                         std::uint16_t path_id, std::uint32_t payload_bytes) {
  net::Packet p;
  auto& c = p.mutable_common();
  c.kind = net::PacketKind::kTcpData;
  c.src = 1;
  c.dst = 2;
  c.payload_bytes = payload_bytes;
  auto& t = p.mutable_tcp();
  t.flow_id = flow;
  t.seq = seq;
  p.mutable_routing() = net::MtsDataTag{path_id};
  return p;
}

TEST(SecrecyPlaneTest, PayloadMaterializationIsDeterministic) {
  SecrecySpec spec;
  spec.enabled = true;
  spec.key_bytes = 16;
  SecrecyPlane plane(spec, sim::Rng(99));
  plane.register_flow(1, 5);

  const auto a = plane.materialize_payload(1, 7, 2, 512);
  const auto b = plane.materialize_payload(1, 7, 2, 512);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(*a, *b);  // pure function of (flow, seq, share, size)
  EXPECT_EQ(a->size(), 512u);

  // Share trailer up front: magic, x, length, share bytes.
  EXPECT_EQ((*a)[0], kShareMagic0);
  EXPECT_EQ((*a)[1], kShareMagic1);
  EXPECT_EQ((*a)[2], 3);  // share index 2 -> x = 3
  EXPECT_EQ((*a)[3], 16);

  // A different seq re-keys the masked fragment but not the share.
  const auto c = plane.materialize_payload(1, 8, 2, 512);
  EXPECT_TRUE(std::equal(a->begin(), a->begin() + 20, c->begin()));
  EXPECT_NE(*a, *c);

  // Segments too small for the trailer carry only masked bytes.
  const auto tiny = plane.materialize_payload(1, 7, 2, 8);
  EXPECT_EQ(tiny->size(), 8u);
  EXPECT_NE((*tiny)[0], kShareMagic0);  // keystream, not the trailer
}

TEST(SecrecyPlaneTest, PayloadBytesMatchTheirGoldenImage) {
  // Pinned bytes of one fixed (flow, seq, share): a 20 B trailer, so
  // the keystream starts mid-word (bytes 20..23 stay zero until the
  // first word boundary), and an unaligned 5 B tail; then a segment too
  // small for the trailer, all keystream with a 5 B tail.
  SecrecySpec spec;
  spec.enabled = true;
  spec.key_bytes = 16;
  SecrecyPlane plane(spec, sim::Rng(99));
  plane.register_flow(1, 5);
  const auto hex = [](const std::vector<std::uint8_t>& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string s;
    for (const std::uint8_t b : bytes) {
      s += kDigits[b >> 4];
      s += kDigits[b & 15];
    }
    return s;
  };
  EXPECT_EQ(hex(*plane.materialize_payload(1, 7, 2, 53)),
            "4b530310271206cd8cc21fc2b26c757e3b5c56d200000000"
            "90b76be9808adb17eb66ef6af8ae7f055fb3208364b5468b"
            "4440f42b51");
  EXPECT_EQ(hex(*plane.materialize_payload(1, 7, 2, 13)),
            "a5b84ca2d5e52a9103e6db5b97");
}

TEST(SecrecyPlaneTest, WireImageCachesOnThePacketBody) {
  SecrecySpec spec;
  spec.enabled = true;
  SecrecyPlane plane(spec, sim::Rng(5));
  plane.register_flow(3, 5);

  net::Packet p = data_segment(3, 1, 2, 256);
  EXPECT_EQ(p.wire_payload(), nullptr);
  std::vector<std::uint8_t> img1;
  ASSERT_TRUE(plane.wire_image(p, img1));
  ASSERT_NE(p.wire_payload(), nullptr);
  const auto cached = p.wire_payload();

  // A second tap of the same frame reuses the cached payload.
  std::vector<std::uint8_t> img2;
  const auto hits_before = net::packet_pool_stats().wire_cache_hits;
  ASSERT_TRUE(plane.wire_image(p, img2));
  EXPECT_EQ(net::packet_pool_stats().wire_cache_hits, hits_before + 1);
  EXPECT_EQ(p.wire_payload(), cached);
  EXPECT_EQ(img1, img2);

  // Per-hop cell writes leave the body alone: the cached image survives
  // a forwarding hop (the payload bytes on the air are unchanged).
  p.mutable_hop().ttl -= 1;
  p.mutable_hop().cursor += 1;
  EXPECT_EQ(p.wire_payload(), cached);

  // A body write still invalidates: the frame on the air changed.
  p.mutable_common().payload_bytes -= 1;
  EXPECT_EQ(p.wire_payload(), nullptr);

  // Non-game packets are not imaged.
  net::Packet ack;
  ack.mutable_common().kind = net::PacketKind::kTcpAck;
  ack.mutable_tcp().flow_id = 3;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(plane.wire_image(ack, out));
  net::Packet foreign = data_segment(42, 1, 0, 256);  // unregistered flow
  EXPECT_FALSE(plane.wire_image(foreign, out));
}

TEST(SecrecyGameTest, CoalitionRecoversTheKeyOnlyWithThresholdShares) {
  SecrecySpec spec;
  spec.enabled = true;
  spec.key_bytes = 16;
  spec.threshold = 0;  // t = n: miss one path, learn nothing
  SecrecyPlane plane(spec, sim::Rng(77));
  plane.register_flow(1, 3);
  ASSERT_EQ(plane.shares_per_flow(), 3u);
  ASSERT_EQ(plane.threshold_per_flow(), 3u);

  KeyRecoveryPool pool;
  std::vector<std::uint8_t> img;
  // Capture segments riding paths 0 and 1: two distinct shares.
  for (std::uint16_t path = 0; path < 2; ++path) {
    net::Packet p = data_segment(1, path, path, 512);
    img.clear();
    ASSERT_TRUE(plane.wire_image(p, img));
    pool.capture(img.data(), img.size());
  }
  EXPECT_EQ(pool.images_parsed(), 2u);
  EXPECT_EQ(pool.shares_captured(), 2u);
  {
    const auto s = plane.score(pool);
    EXPECT_EQ(s.flows, 1u);
    EXPECT_EQ(s.shares_captured, 2u);
    EXPECT_EQ(s.keys_recovered, 0u);
    EXPECT_EQ(s.recovery_rate, 0.0);
  }

  // Re-capturing the same path adds no share (retransmission on the
  // same path tells the coalition nothing new).
  {
    net::Packet p = data_segment(1, 99, 1, 512);
    img.clear();
    ASSERT_TRUE(plane.wire_image(p, img));
    pool.capture(img.data(), img.size());
    EXPECT_EQ(pool.shares_captured(), 2u);
  }

  // The third path's share completes the threshold.
  {
    net::Packet p = data_segment(1, 5, 2, 512);
    img.clear();
    ASSERT_TRUE(plane.wire_image(p, img));
    pool.capture(img.data(), img.size());
  }
  const auto s = plane.score(pool);
  EXPECT_EQ(s.shares_captured, 3u);
  EXPECT_EQ(s.keys_recovered, 1u);
  EXPECT_DOUBLE_EQ(s.recovery_rate, 1.0);
}

TEST(SecrecyGameTest, PartialThresholdLetsASmallerCoalitionWin) {
  SecrecySpec spec;
  spec.enabled = true;
  spec.threshold = 2;  // 2-of-5
  SecrecyPlane plane(spec, sim::Rng(13));
  plane.register_flow(9, 5);
  ASSERT_EQ(plane.threshold_per_flow(), 2u);

  KeyRecoveryPool pool;
  std::vector<std::uint8_t> img;
  for (std::uint16_t path = 0; path < 2; ++path) {
    net::Packet p = data_segment(9, path, path, 512);
    img.clear();
    ASSERT_TRUE(plane.wire_image(p, img));
    pool.capture(img.data(), img.size());
  }
  const auto s = plane.score(pool);
  EXPECT_EQ(s.keys_recovered, 1u);
}

TEST(SecrecyGameTest, PoolTrustsBytesNotStructs) {
  SecrecySpec spec;
  spec.enabled = true;
  SecrecyPlane plane(spec, sim::Rng(21));
  plane.register_flow(4, 2);

  KeyRecoveryPool pool;
  // Garbage is a parse failure, not a crash.
  const std::uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef};
  pool.capture(junk, sizeof junk);
  EXPECT_EQ(pool.parse_failures(), 1u);
  EXPECT_EQ(pool.images_parsed(), 0u);

  // A valid wire image whose payload got flipped mid-air still parses,
  // but a corrupted share byte yields the wrong key at score time.
  net::Packet p0 = data_segment(4, 0, 0, 512);
  net::Packet p1 = data_segment(4, 1, 1, 512);
  std::vector<std::uint8_t> img0;
  std::vector<std::uint8_t> img1;
  ASSERT_TRUE(plane.wire_image(p0, img0));
  ASSERT_TRUE(plane.wire_image(p1, img1));
  const auto d = net::wire::decode_packet(img1);
  ASSERT_TRUE(d.has_value());
  img1[d->payload_offset + kShareTrailerFixed] ^= 0xFF;  // corrupt the share
  pool.capture(img0.data(), img0.size());
  pool.capture(img1.data(), img1.size());
  EXPECT_EQ(pool.shares_captured(), 2u);
  const auto s = plane.score(pool);
  EXPECT_EQ(s.keys_recovered, 0u);  // reconstruction != the true key

  // Segments too small for a trailer parse fine and add no share.
  net::Packet small = data_segment(4, 2, 1, 8);
  std::vector<std::uint8_t> img2;
  ASSERT_TRUE(plane.wire_image(small, img2));
  pool.capture(img2.data(), img2.size());
  EXPECT_EQ(pool.shares_captured(), 2u);
}

TEST(SecrecyPlaneTest, RegistrationInvariants) {
  SecrecySpec spec;
  spec.enabled = true;
  SecrecyPlane plane(spec, sim::Rng(1));
  plane.register_flow(1, 5);
  EXPECT_THROW(plane.register_flow(1, 5), sim::SimError);  // twice
  EXPECT_EQ(plane.flow_count(), 1u);
  ASSERT_NE(plane.true_key(1), nullptr);
  EXPECT_EQ(plane.true_key(1)->size(), 16u);
  EXPECT_EQ(plane.true_key(2), nullptr);

  SecrecySpec bad;
  bad.key_bytes = 0;
  EXPECT_THROW(SecrecyPlane(bad, sim::Rng(1)), sim::SimError);
}

}  // namespace
}  // namespace mts::security
