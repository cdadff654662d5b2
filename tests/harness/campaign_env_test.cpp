// apply_bench_env must never throw on malformed environment values —
// a typo'd MTS_BENCH_* variable warns and falls back instead of killing
// a multi-hour campaign at startup.
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/campaign.hpp"

namespace mts::harness {
namespace {

class BenchEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name :
         {"MTS_BENCH_REPS", "MTS_BENCH_SIM_TIME", "MTS_BENCH_SPEEDS",
          "MTS_BENCH_THREADS", "MTS_BENCH_NODES"}) {
      unsetenv(name);
    }
  }
};

TEST_F(BenchEnvTest, ValidValuesApply) {
  setenv("MTS_BENCH_REPS", "3", 1);
  setenv("MTS_BENCH_SIM_TIME", "12.5", 1);
  setenv("MTS_BENCH_SPEEDS", "2,5,10", 1);
  setenv("MTS_BENCH_THREADS", "4", 1);
  setenv("MTS_BENCH_NODES", "30", 1);
  CampaignConfig cfg;
  apply_bench_env(cfg);
  EXPECT_EQ(cfg.repetitions, 3u);
  EXPECT_EQ(cfg.base.sim_time, sim::Time::seconds(12.5));
  EXPECT_EQ(cfg.speeds, (std::vector<double>{2.0, 5.0, 10.0}));
  EXPECT_EQ(cfg.threads, 4u);
  EXPECT_EQ(cfg.base.node_count, 30u);
}

TEST_F(BenchEnvTest, GarbageFallsBackToDefaultsWithoutThrowing) {
  setenv("MTS_BENCH_REPS", "lots", 1);
  setenv("MTS_BENCH_SIM_TIME", "fast", 1);
  setenv("MTS_BENCH_SPEEDS", "2,speedy,10", 1);
  setenv("MTS_BENCH_NODES", "-5", 1);
  CampaignConfig defaults;
  CampaignConfig cfg;
  EXPECT_NO_THROW(apply_bench_env(cfg));
  EXPECT_EQ(cfg.repetitions, defaults.repetitions);
  EXPECT_EQ(cfg.base.sim_time, defaults.base.sim_time);
  EXPECT_EQ(cfg.speeds, defaults.speeds);
  EXPECT_EQ(cfg.base.node_count, defaults.base.node_count);
}

TEST_F(BenchEnvTest, BadThreadsFallsBackToHardwareConcurrency) {
  setenv("MTS_BENCH_THREADS", "max", 1);
  CampaignConfig cfg;
  cfg.threads = 7;  // pre-set: the fallback must override, not keep it
  EXPECT_NO_THROW(apply_bench_env(cfg));
  EXPECT_EQ(cfg.threads, 0u);  // 0 = "use hardware concurrency"
}

TEST_F(BenchEnvTest, OutOfRangeValuesRejected) {
  setenv("MTS_BENCH_REPS", "99999999999999999999999", 1);
  setenv("MTS_BENCH_THREADS", "1000000", 1);
  setenv("MTS_BENCH_NODES", "1", 1);  // a 1-node network is not a sweep
  CampaignConfig defaults;
  CampaignConfig cfg;
  EXPECT_NO_THROW(apply_bench_env(cfg));
  EXPECT_EQ(cfg.repetitions, defaults.repetitions);
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_EQ(cfg.base.node_count, defaults.base.node_count);
}

TEST_F(BenchEnvTest, TrailingJunkRejected) {
  setenv("MTS_BENCH_REPS", "5x", 1);
  setenv("MTS_BENCH_SIM_TIME", "10s", 1);
  CampaignConfig defaults;
  CampaignConfig cfg;
  EXPECT_NO_THROW(apply_bench_env(cfg));
  EXPECT_EQ(cfg.repetitions, defaults.repetitions);
  EXPECT_EQ(cfg.base.sim_time, defaults.base.sim_time);
}

TEST(BenchEnvParseTest, ScalarJunkIsRejectedWithoutThrowing) {
  // MTS_BENCH_SIM_TIME=fast used to abort table1 through std::stod.
  double d = 7.0;
  EXPECT_FALSE(parse_env_double("MTS_BENCH_SIM_TIME", "fast", d));
  EXPECT_FALSE(parse_env_double("MTS_BENCH_SIM_TIME", "inf", d));
  EXPECT_FALSE(parse_env_double("MTS_BENCH_SIM_TIME", "", d));
  EXPECT_EQ(d, 7.0);
  std::uint64_t n = 7;
  EXPECT_FALSE(parse_env_u64("MTS_BENCH_REPS", "0", 1, 10, n));
  EXPECT_FALSE(parse_env_u64("MTS_BENCH_REPS", "11", 1, 10, n));
  EXPECT_EQ(n, 7u);
  EXPECT_TRUE(parse_env_u64("MTS_BENCH_REPS", "10", 1, 10, n));
  EXPECT_EQ(n, 10u);
}

TEST(BenchEnvParseTest, ListsSkipEmptyElements) {
  EXPECT_EQ(parse_env_u64_list("MTS_BENCH_NODES", "1000,,5000,", 2, 100000),
            (std::vector<std::uint64_t>{1000, 5000}));
  EXPECT_EQ(parse_env_double_list("MTS_BENCH_SPEEDS", "2.5,10"),
            (std::vector<double>{2.5, 10.0}));
  EXPECT_TRUE(parse_env_u64_list("MTS_BENCH_NODES", "", 2, 100000).empty());
  EXPECT_TRUE(parse_env_u64_list("MTS_BENCH_NODES", ",,", 2, 100000).empty());
  EXPECT_TRUE(parse_env_double_list("MTS_BENCH_SPEEDS", "").empty());
}

TEST(BenchEnvParseTest, OneBadElementInvalidatesTheList) {
  // MTS_BENCH_COALITIONS=two used to abort the sweep through std::stoul,
  // and MTS_BENCH_NODES=1k used to read as 1 node.
  EXPECT_TRUE(parse_env_u64_list("MTS_BENCH_COALITIONS", "two", 1, 100000)
                  .empty());
  EXPECT_TRUE(parse_env_u64_list("MTS_BENCH_NODES", "1k", 2, 100000).empty());
  EXPECT_TRUE(parse_env_u64_list("MTS_BENCH_COALITIONS", "1,2,x", 1, 100000)
                  .empty());
  EXPECT_TRUE(parse_env_u64_list("MTS_BENCH_NODES", "1000,1", 2, 100000)
                  .empty());
  EXPECT_TRUE(parse_env_double_list("MTS_BENCH_SPEEDS", "2,inf").empty());
  EXPECT_TRUE(parse_env_double_list("MTS_BENCH_SPEEDS", "2,-5").empty());
}

}  // namespace
}  // namespace mts::harness
