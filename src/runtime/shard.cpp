#include "runtime/shard.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <string>

#include "runtime/crash_point.hpp"
#include "util/error.hpp"
#include "util/file.hpp"
#include "util/hash.hpp"

namespace cps::runtime {

ShardRange shard_range(std::size_t count, std::size_t shard_index, std::size_t shard_count) {
  CPS_ENSURE(shard_count >= 1, "shard_range: shard count must be >= 1");
  CPS_ENSURE(shard_index < shard_count, "shard_range: shard index out of range");
  // count * i stays well inside 64 bits for any realistic grid (the
  // driver caps shard counts; grids are << 2^32 points).
  return ShardRange{count * shard_index / shard_count,
                    count * (shard_index + 1) / shard_count};
}

std::string shard_suffix(std::size_t shard_index, std::size_t shard_count) {
  CPS_ENSURE(shard_count >= 1 && shard_index < shard_count,
             "shard_suffix: invalid shard spec");
  if (shard_count == 1) return std::string();
  return ".shard" + std::to_string(shard_index) + "of" + std::to_string(shard_count);
}

namespace {

/// Canonical spelling of the sidecar's seed line.
std::string seed_line_for(std::uint64_t seed) { return "seed=0x" + util::hex64(seed); }

/// Parse the leading `index` field of a data row; npos on failure.
std::size_t leading_index(const std::string& row) {
  const std::size_t comma = row.find(',');
  const std::string field = comma == std::string::npos ? row : row.substr(0, comma);
  try {
    std::size_t consumed = 0;
    const unsigned long long value = std::stoull(field, &consumed);
    if (consumed != field.size()) return std::string::npos;
    return static_cast<std::size_t>(value);
  } catch (const std::exception&) {
    return std::string::npos;
  }
}

/// Everything the merge needs to know about ONE shard's partial artifact,
/// with every defect recorded instead of thrown: the strict merge reports
/// them all at once, the partial merge skips the shard, and the resume
/// check treats any defect as "not landed".
struct ShardScan {
  std::size_t shard = 0;
  std::vector<std::string> errors;  ///< empty == the shard validates
  std::string seed_line;            ///< sidecar campaign seed ("seed=0x...")
  std::string header;
  std::vector<std::string> rows;            ///< data rows, verbatim
  std::size_t first_index = 0, last_index = 0;  ///< valid iff ok() && !rows.empty()
  bool ok() const { return errors.empty(); }
  std::string joined_errors() const {
    std::string joined;
    for (const auto& error : errors) {
      if (!joined.empty()) joined += "; ";
      joined += error;
    }
    return joined;
  }
};

ShardScan scan_shard(const std::string& canonical_path, std::size_t shard,
                     std::size_t shard_count) {
  ShardScan scan;
  scan.shard = shard;
  const std::string csv_path = canonical_path + shard_suffix(shard, shard_count);
  const std::string meta_path = csv_path + ".meta";

  // Provenance sidecar first: it is written LAST on the shard machine,
  // so its absence or truncation means the shard never completed (or its
  // publication crashed mid-way) regardless of how plausible the CSV
  // looks.
  std::size_t meta_rows = 0;
  bool meta_rows_known = false;
  {
    std::ifstream in(meta_path);
    if (!in) {
      scan.errors.push_back("missing sidecar '" + meta_path +
                            "' (shard not run, not finished, or produced with a "
                            "different --shard N)");
    } else {
      std::string seed_line, shard_line, rows_line;
      std::getline(in, seed_line);
      std::getline(in, shard_line);
      const bool has_rows_line = static_cast<bool>(std::getline(in, rows_line));
      if (!has_rows_line) {
        scan.errors.push_back("truncated sidecar '" + meta_path +
                              "' (interrupted publication; re-run this shard)");
      } else {
        if (seed_line.rfind("seed=0x", 0) != 0 || seed_line.size() != 7 + 16) {
          scan.errors.push_back("sidecar '" + meta_path + "' has a malformed seed line '" +
                                seed_line + "'");
        } else {
          scan.seed_line = seed_line;
        }
        const std::string expected_shard =
            "shard=" + std::to_string(shard) + "/" + std::to_string(shard_count);
        if (shard_line != expected_shard)
          scan.errors.push_back("sidecar '" + meta_path + "' claims '" + shard_line +
                                "', expected '" + expected_shard +
                                "' (renamed or wrong-N shard file?)");
        if (rows_line.rfind("rows=", 0) != 0) {
          scan.errors.push_back("sidecar '" + meta_path + "' has a malformed rows line '" +
                                rows_line + "'");
        } else {
          try {
            meta_rows = static_cast<std::size_t>(std::stoull(rows_line.substr(5)));
            meta_rows_known = true;
          } catch (const std::exception&) {
            scan.errors.push_back("sidecar '" + meta_path + "' has a malformed rows line '" +
                                  rows_line + "'");
          }
        }
      }
    }
  }

  std::ifstream in(csv_path);
  if (!in) {
    scan.errors.push_back("missing shard file '" + csv_path +
                          "' (was this shard run, and with the same --shard N?)");
    return scan;
  }
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  if (lines.empty()) {
    scan.errors.push_back("shard file '" + csv_path + "' is empty");
    return scan;
  }
  scan.header = lines.front();

  // Row-count-vs-sidecar check: a partial truncated AFTER its sidecar was
  // stamped (interrupted copy from a shard machine) can keep a contiguous
  // index column; only the recorded count catches it.
  if (meta_rows_known && lines.size() - 1 != meta_rows) {
    scan.errors.push_back("'" + csv_path + "' has " + std::to_string(lines.size() - 1) +
                          " data rows but its sidecar recorded " + std::to_string(meta_rows) +
                          " (truncated or modified partial)");
    return scan;
  }

  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t index = leading_index(lines[i]);
    if (index == std::string::npos) {
      scan.errors.push_back("row " + std::to_string(i) + " of '" + csv_path +
                            "' has a non-numeric index field (sweep artifacts must lead "
                            "with the global sweep index)");
      return scan;
    }
    if (scan.rows.empty()) {
      scan.first_index = index;
    } else if (index != scan.last_index + 1) {
      scan.errors.push_back("'" + csv_path + "' jumps from index " +
                            std::to_string(scan.last_index) + " to " + std::to_string(index) +
                            " (rows within a shard must be contiguous)");
      return scan;
    }
    scan.last_index = index;
    scan.rows.push_back(std::move(lines[i]));
  }
  return scan;
}

/// Render the sidecar contents for (seed, i/N, row count) — also the
/// comparison form merge uses.
std::string meta_contents(std::uint64_t seed, std::size_t shard_index,
                          std::size_t shard_count, std::size_t rows) {
  return seed_line_for(seed) + "\nshard=" + std::to_string(shard_index) + "/" +
         std::to_string(shard_count) + "\nrows=" + std::to_string(rows) + "\n";
}

}  // namespace

void write_shard_meta(const std::string& csv_path, std::uint64_t seed,
                      std::size_t shard_index, std::size_t shard_count) {
  // Count the partial's data rows NOW, while the file is known-complete:
  // the sidecar then lets merge detect a partial truncated in transit —
  // a lost tail of the FINAL shard is invisible to the index-contiguity
  // check alone.
  std::ifstream in(csv_path);
  if (!in)
    throw Error("shard meta: missing shard file '" + csv_path +
                "' (the sidecar is stamped only after the CSV is published)");
  std::size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  if (lines == 0) throw Error("shard meta: shard file '" + csv_path + "' is empty");
  // Crash window: the CSV is published but its provenance is not; merge
  // and resume both treat the shard as NOT landed until the sidecar's
  // rename below completes.
  crash_point("meta_publish");
  util::write_text_atomic(csv_path + ".meta",
                          meta_contents(seed, shard_index, shard_count, lines - 1),
                          "shard meta");
}

std::size_t merge_sweep_csv(const std::string& canonical_path, std::size_t shard_count) {
  CPS_ENSURE(shard_count >= 1, "merge: shard count must be >= 1");

  std::vector<ShardScan> scans;
  scans.reserve(shard_count);
  for (std::size_t shard = 0; shard < shard_count; ++shard)
    scans.push_back(scan_shard(canonical_path, shard, shard_count));

  // Collect EVERY problem before reporting: a campaign with three dead
  // shards must name all three in one message, not force three
  // merge-fail-fix cycles.
  std::vector<std::string> problems;
  for (const auto& scan : scans)
    for (const auto& error : scan.errors)
      problems.push_back("shard " + std::to_string(scan.shard) + "/" +
                         std::to_string(shard_count) + ": " + error);

  // Cross-shard checks only relate shards that validated on their own;
  // their own defects are already listed above.
  const ShardScan* reference = nullptr;
  for (const auto& scan : scans)
    if (scan.ok()) {
      reference = &scan;
      break;
    }
  if (reference != nullptr) {
    for (const auto& scan : scans) {
      if (!scan.ok() || &scan == reference) continue;
      if (scan.seed_line != reference->seed_line)
        problems.push_back("shard " + std::to_string(scan.shard) + "/" +
                           std::to_string(shard_count) + ": campaign seed '" +
                           scan.seed_line + "' differs from shard " +
                           std::to_string(reference->shard) + "'s '" + reference->seed_line +
                           "' — partials from different campaigns; re-run every shard "
                           "with one --seed");
      if (scan.header != reference->header)
        problems.push_back("shard " + std::to_string(scan.shard) + "/" +
                           std::to_string(shard_count) + ": header '" + scan.header +
                           "' differs from shard " + std::to_string(reference->shard) +
                           "'s '" + reference->header + "'");
    }
    // Index continuity across consecutive VALID shards (an invalid shard
    // already reported; continuity across it is unverifiable).
    std::size_t expected = 0;
    bool position_known = true;  // false after skipping an invalid shard
    for (const auto& scan : scans) {
      if (!scan.ok()) {
        position_known = false;
        continue;
      }
      if (scan.rows.empty()) continue;
      if (position_known && scan.first_index != expected) {
        const char* kind = scan.first_index < expected ? "overlap" : "gap";
        problems.push_back("shard " + std::to_string(scan.shard) + "/" +
                           std::to_string(shard_count) + ": " + kind + " at index " +
                           std::to_string(scan.first_index) + " (expected index " +
                           std::to_string(expected) + " next)");
      }
      expected = scan.last_index + 1;
      position_known = true;
    }
  }

  if (!problems.empty()) {
    std::string what = "merge: cannot merge '" + canonical_path + "': " +
                       std::to_string(problems.size()) + " problem(s) across " +
                       std::to_string(shard_count) + " shards:";
    for (const auto& problem : problems) what += "\n  - " + problem;
    throw Error(what);
  }

  std::string merged = scans.front().header + "\n";
  std::size_t rows = 0;
  for (const auto& scan : scans)
    for (const auto& row : scan.rows) {
      merged += row;
      merged += '\n';
      ++rows;
    }
  util::write_text_atomic(canonical_path, merged, "merge");
  return rows;
}

PartialMergeReport merge_sweep_csv_partial(const std::string& canonical_path,
                                           std::size_t shard_count) {
  CPS_ENSURE(shard_count >= 1, "merge: shard count must be >= 1");
  PartialMergeReport report;
  report.shard_count = shard_count;

  std::vector<ShardScan> scans;
  scans.reserve(shard_count);
  for (std::size_t shard = 0; shard < shard_count; ++shard)
    scans.push_back(scan_shard(canonical_path, shard, shard_count));

  const ShardScan* reference = nullptr;
  for (const auto& scan : scans)
    if (scan.ok()) {
      reference = &scan;
      break;
    }

  std::string merged;
  std::size_t next_free = 0;  // one past the last accepted index
  bool any_accepted_rows = false;
  for (const auto& scan : scans) {
    if (!scan.ok()) {
      report.failures.push_back({scan.shard, scan.joined_errors()});
      continue;
    }
    if (scan.seed_line != reference->seed_line) {
      report.failures.push_back(
          {scan.shard, "campaign seed '" + scan.seed_line + "' differs from shard " +
                           std::to_string(reference->shard) + "'s '" + reference->seed_line +
                           "' (stale partial from another campaign)"});
      continue;
    }
    if (scan.header != reference->header) {
      report.failures.push_back({scan.shard, "header '" + scan.header +
                                                 "' differs from shard " +
                                                 std::to_string(reference->shard) + "'s '" +
                                                 reference->header + "'"});
      continue;
    }
    if (!scan.rows.empty() && any_accepted_rows && scan.first_index < next_free) {
      report.failures.push_back(
          {scan.shard, "rows overlap an earlier shard (starts at index " +
                           std::to_string(scan.first_index) + ", index " +
                           std::to_string(next_free) + " already covered)"});
      continue;
    }
    report.merged_shards.push_back(scan.shard);
    if (scan.rows.empty()) continue;
    for (const auto& row : scan.rows) {
      merged += row;
      merged += '\n';
    }
    report.rows_merged += scan.rows.size();
    // Coalesce adjacent blocks so covered_ranges names maximal intervals.
    if (!report.covered_ranges.empty() && report.covered_ranges.back().end == scan.first_index)
      report.covered_ranges.back().end = scan.last_index + 1;
    else
      report.covered_ranges.push_back({scan.first_index, scan.last_index + 1, false});
    next_free = scan.last_index + 1;
    any_accepted_rows = true;
  }

  if (reference != nullptr)
    util::write_text_atomic(canonical_path, reference->header + "\n" + merged,
                            "partial merge");
  return report;
}

std::vector<IndexRange> PartialMergeReport::missing_ranges() const {
  std::vector<IndexRange> missing;
  if (complete()) return missing;
  std::size_t cursor = 0;
  for (const auto& range : covered_ranges) {
    if (range.begin > cursor) missing.push_back({cursor, range.begin, false});
    cursor = range.end;
  }
  // The total row count of the sweep is only derivable from the FINAL
  // shard's partial; when that shard is among the failures the trailing
  // missing range has no known end.
  const bool final_shard_merged =
      std::find(merged_shards.begin(), merged_shards.end(), shard_count - 1) !=
      merged_shards.end();
  if (!final_shard_merged) missing.push_back({cursor, 0, true});
  return missing;
}

bool shard_artifact_landed(const std::string& canonical_path, std::size_t shard_index,
                           std::size_t shard_count, std::uint64_t expected_seed) {
  const ShardScan scan = scan_shard(canonical_path, shard_index, shard_count);
  return scan.ok() && scan.seed_line == seed_line_for(expected_seed);
}

}  // namespace cps::runtime
