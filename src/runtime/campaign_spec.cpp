#include "runtime/campaign_spec.hpp"

#include <set>
#include <utility>

#include "util/hash.hpp"

namespace cps::runtime {

namespace {

using util::TomlError;
using util::TomlTable;

/// Campaign-section keys this version understands.  Anything else under
/// [campaign] is a loud error: a typo'd "experimnets" that silently
/// falls back to defaults would run the wrong campaign.
const std::set<std::string>& known_campaign_keys() {
  static const std::set<std::string> keys = {
      "campaign.name",   "campaign.experiment", "campaign.experiments",
      "campaign.seed",   "campaign.fixture_store",
      "campaign.shards",
  };
  return keys;
}

constexpr std::size_t kMaxShardPlan = 4096;  // same cap as cps_run --shard

}  // namespace

std::uint64_t CampaignSpec::digest() const { return util::fnv1a64(params.canonical()); }

std::string CampaignSpec::digest_hex() const { return util::hex64(digest()); }

CampaignSpec make_campaign_spec(TomlTable table, std::string source) {
  CampaignSpec spec;
  spec.source = std::move(source);

  // Typed-getter failures (missing/wrong-kind required keys) must name
  // the spec file like every hand-written validation error below does.
  const auto located = [&spec](auto&& lookup) -> decltype(lookup()) {
    try {
      return lookup();
    } catch (const TomlError& error) {
      throw TomlError(spec.source + ": " + error.what());
    }
  };

  const std::int64_t version = located([&] { return table.get_int_or("spec_version", -1); });
  if (!table.has("spec_version"))
    throw TomlError(spec.source + ": missing required key 'spec_version'");
  if (version != kCampaignSpecVersion)
    throw TomlError(spec.source + ": unsupported spec_version " + std::to_string(version) +
                    " (this build understands version " +
                    std::to_string(kCampaignSpecVersion) + ")");

  for (const auto& key : table.keys_with_prefix("campaign.")) {
    if (known_campaign_keys().count(key) == 0)
      throw TomlError(spec.source + ": unknown [campaign] key '" + key + "'");
  }

  spec.name = located([&] { return table.get_string("campaign.name"); });
  if (spec.name.empty()) throw TomlError(spec.source + ": campaign.name must be non-empty");

  // `experiment = "x"` and `experiments = ["x", "y"]` are both accepted
  // (exactly one of them).
  const bool single = table.has("campaign.experiment");
  const bool plural = table.has("campaign.experiments");
  if (single == plural)
    throw TomlError(spec.source +
                    ": declare exactly one of campaign.experiment / campaign.experiments");
  if (single)
    spec.experiments.push_back(located([&] { return table.get_string("campaign.experiment"); }));
  else
    spec.experiments = located([&] { return table.get_string_array("campaign.experiments"); });
  if (spec.experiments.empty())
    throw TomlError(spec.source + ": campaign.experiments must name at least one experiment");
  for (const auto& name : spec.experiments)
    if (name.empty())
      throw TomlError(spec.source + ": campaign.experiments entries must be non-empty");

  if (table.has("campaign.seed")) {
    const std::int64_t seed = located([&] { return table.get_int("campaign.seed"); });
    if (seed < 0) throw TomlError(spec.source + ": campaign.seed must be >= 0");
    spec.seed = static_cast<std::uint64_t>(seed);
    spec.has_seed = true;
  }

  spec.fixture_store = located([&] { return table.get_string_or("campaign.fixture_store", ""); });

  const std::int64_t shards = located([&] { return table.get_int_or("campaign.shards", 1); });
  if (shards < 1 || shards > static_cast<std::int64_t>(kMaxShardPlan))
    throw TomlError(spec.source + ": campaign.shards must be in [1, " +
                    std::to_string(kMaxShardPlan) + "]");
  spec.shard_plan = static_cast<std::size_t>(shards);

  spec.params = std::move(table);
  return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
  return make_campaign_spec(util::parse_toml_file(path), path);
}

namespace {
/// Attach the spec source to lookup errors so a bad value names its file.
template <typename Fn>
auto in_spec(const CampaignSpec* spec, Fn&& fn) -> decltype(fn()) {
  try {
    return fn();
  } catch (const TomlError& error) {
    throw TomlError(spec->source + ": " + error.what());
  }
}
}  // namespace

double spec_double(const CampaignSpec* spec, const std::string& key, double fallback) {
  if (spec == nullptr) return fallback;
  return in_spec(spec, [&] { return spec->params.get_double_or(key, fallback); });
}

std::int64_t spec_int(const CampaignSpec* spec, const std::string& key,
                      std::int64_t fallback) {
  if (spec == nullptr) return fallback;
  return in_spec(spec, [&] { return spec->params.get_int_or(key, fallback); });
}

std::string spec_string(const CampaignSpec* spec, const std::string& key,
                        const std::string& fallback) {
  if (spec == nullptr) return fallback;
  return in_spec(spec, [&] { return spec->params.get_string_or(key, fallback); });
}

std::vector<double> spec_doubles(const CampaignSpec* spec, const std::string& key,
                                 std::vector<double> fallback) {
  if (spec == nullptr) return fallback;
  return in_spec(spec,
                 [&] { return spec->params.get_double_array_or(key, std::move(fallback)); });
}

std::vector<std::string> spec_strings(const CampaignSpec* spec, const std::string& key,
                                      std::vector<std::string> fallback) {
  if (spec == nullptr) return fallback;
  return in_spec(spec,
                 [&] { return spec->params.get_string_array_or(key, std::move(fallback)); });
}

}  // namespace cps::runtime
