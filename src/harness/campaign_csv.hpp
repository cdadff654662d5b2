#pragma once

#include <cstddef>
#include <filesystem>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/campaign.hpp"

namespace mts::harness::csv {

/// The campaign CSV, shared by the disk cache (`CampaignCache`), the
/// fabric's per-unit shard files and the `--csv-out` export: one header
/// line, then one row per run.  The column list in `campaign_csv.cpp`
/// declares each column once (name and `RunMetrics` member) and drives
/// the header, `write_row` and `parse_row` alike.  Only the current
/// version is read: it is part of every cache key and shard directory,
/// so a file of another version is never opened, and is rejected if it
/// is.
inline constexpr int kVersion = 10;
inline constexpr std::size_t kCellsV10 = 69;

/// The header line (without its newline): the column names in order.
const std::string& header();

/// Writes one row (doubles at max_digits10 so a round-trip is exact).
void write_row(std::ostream& os, const RunMetrics& m);

/// Parses one row (without its newline) of exactly `expected_cells`
/// cells — `kCellsV10`, the only width there is.  nullopt on any
/// malformed cell — callers treat that as corruption, never crash.
std::optional<RunMetrics> parse_row(const std::string& line,
                                    std::size_t expected_cells = kCellsV10);

/// Collapses an arbitrary error message into a single CSV cell: commas,
/// newlines and CRs become spaces, empty becomes the '-' sentinel.
std::string sanitize_error(const std::string& msg);

/// Writes the whole campaign (header + one row per run, in the grid
/// order of `for_each_cell`, then repetition) — the cache store format,
/// doubling as the `--csv-out` user export.
void write_campaign(std::ostream& os, const CampaignConfig& cfg,
                    const CampaignResult& result);

/// Reads a whole CSV file: it must end in a newline (which catches a
/// truncation at any byte of the last row), start with `header()`, and
/// every row must parse.  nullopt on a missing file or any violation.
std::optional<std::vector<RunMetrics>> read_file(
    const std::filesystem::path& path);

/// Writes `path` (`write` emits the whole content) through a temp file
/// and an atomic rename, so it exists complete or not at all.  False on
/// any I/O failure, with `error` (if given) saying why.
bool write_file(const std::filesystem::path& path,
                const std::function<void(std::ostream&)>& write,
                std::string* error = nullptr);

}  // namespace mts::harness::csv
