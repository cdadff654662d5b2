#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "harness/campaign.hpp"

namespace mts::harness {

/// Disk cache for campaign sweeps.
///
/// Every per-figure bench projects the *same* protocol x speed x seed
/// grid onto a different metric; rerunning the grid eight times would
/// multiply the bench wall time for nothing.  The cache keys on the
/// whole `CampaignConfig` — every field is keyed unless
/// `campaign_cache.cpp` excludes it with a reason — and stores the
/// scalar metrics of each run as CSV.
///
/// Location: $MTS_BENCH_CACHE_DIR, defaulting to ".mts_bench_cache" in
/// the working directory.  Delete the directory to force re-runs; set
/// MTS_BENCH_NO_CACHE=1 to bypass entirely.
class CampaignCache {
 public:
  /// Stable content key for a campaign configuration.
  static std::string key_of(const CampaignConfig& cfg);

  /// Makes the key's coverage checkable: one copy of `cfg` per keyed
  /// leaf or keyed list, in the key's visit order, each differing from
  /// `cfg` in that leaf alone (next double, +1, negated bool, +1 ns) or
  /// in that list alone (grown by a default element).
  static std::vector<CampaignConfig> perturbations(const CampaignConfig& cfg);

  /// The cache root ($MTS_BENCH_CACHE_DIR or ".mts_bench_cache"); the
  /// fabric keeps its per-campaign shard directories underneath it.
  static std::filesystem::path directory();

  /// Loads a cached result; nullopt on miss/corruption/disabled cache.
  static std::optional<CampaignResult> load(const CampaignConfig& cfg);

  /// Persists a result (best effort; failures are silent — the cache is
  /// an optimization, never a correctness dependency).
  static void store(const CampaignConfig& cfg, const CampaignResult& result);

  /// Cached run_campaign: load, else run + store.
  static CampaignResult run(const CampaignConfig& cfg,
                            std::ostream* progress = nullptr);
};

}  // namespace mts::harness
