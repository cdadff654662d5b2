#include "phy/propagation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "phy/fading.hpp"
#include "sim/rng.hpp"

namespace mts::phy {
namespace {

TEST(UnitDiskTest, InRangeWithinRadius) {
  UnitDiskPropagation p(250.0);
  EXPECT_TRUE(p.in_range({0, 0}, {249.9, 0}));
  EXPECT_TRUE(p.in_range({0, 0}, {250.0, 0}));  // boundary inclusive
  EXPECT_FALSE(p.in_range({0, 0}, {250.1, 0}));
}

TEST(UnitDiskTest, Symmetric) {
  UnitDiskPropagation p(100.0);
  const mobility::Vec2 a{10, 20}, b{90, 70};
  EXPECT_EQ(p.in_range(a, b), p.in_range(b, a));
}

TEST(UnitDiskTest, DiagonalDistance) {
  UnitDiskPropagation p(250.0);
  // 3-4-5 scaled: (150, 200) is exactly 250 away.
  EXPECT_TRUE(p.in_range({0, 0}, {150, 200}));
  EXPECT_FALSE(p.in_range({0, 0}, {151, 200}));
}

TEST(UnitDiskTest, MaxRangeReported) {
  EXPECT_DOUBLE_EQ(UnitDiskPropagation(250.0).max_range(), 250.0);
  EXPECT_DOUBLE_EQ(UnitDiskPropagation(75.0).max_range(), 75.0);
}

TEST(PropagationDelayTest, SpeedOfLight) {
  // ~300 m is about a microsecond.
  const sim::Time d = propagation_delay(299.792458);
  EXPECT_EQ(d, sim::Time::us(1));
  EXPECT_EQ(propagation_delay(0.0), sim::Time::zero());
}

TEST(PropagationDelayTest, MonotonicInDistance) {
  EXPECT_LT(propagation_delay(100.0), propagation_delay(200.0));
}

TEST(PropagationContractTest, LinkUpNeverHoldsBeyondMaxRange) {
  // The channel skips link_up for receivers farther than max_range(),
  // which is exact only while link_up implies distance_sq <= max_range()^2.
  // Pairs straddle the boundary (some exactly on it); the fading model is
  // probed over node pairs and coherence epochs at a fade probability
  // that fades some in-range links and not others.
  const UnitDiskPropagation disk(250.0);
  FadingConfig fc;
  fc.fade_probability = 0.5;
  const FadingPropagation fading(fc, 17);
  const PropagationModel* models[] = {&disk, &fading};
  sim::Rng rng(2024);
  for (const PropagationModel* m : models) {
    const double r = m->max_range();
    std::size_t up = 0, down_in_range = 0;
    for (int i = 0; i < 4000; ++i) {
      const mobility::Vec2 a{rng.uniform(0, 1000), rng.uniform(0, 1000)};
      const double theta = rng.uniform(0, 6.283185307179586);
      const double d = i % 10 == 0 ? r : rng.uniform(0.5 * r, 1.5 * r);
      const mobility::Vec2 dir{std::cos(theta), std::sin(theta)};
      const mobility::Vec2 b =
          i % 20 == 0 ? mobility::Vec2{a.x + r, a.y} : a + dir * d;
      const auto ia = static_cast<std::uint32_t>(rng.uniform_int(0, 49));
      const auto ib = static_cast<std::uint32_t>(rng.uniform_int(0, 49));
      const sim::Time t = sim::Time::ms(rng.uniform_int(0, 60'000));
      const bool in_disk = mobility::distance_sq(a, b) <= r * r;
      if (m->link_up(ia, a, ib, b, t)) {
        ++up;
        EXPECT_TRUE(in_disk) << "link_up beyond max_range: " << a << " -> "
                             << b << " at " << t;
      } else if (in_disk) {
        ++down_in_range;
      }
    }
    EXPECT_GT(up, 1000u);
    if (m == &fading) {
      EXPECT_GT(down_in_range, 100u);
    }
  }
}

}  // namespace
}  // namespace mts::phy
