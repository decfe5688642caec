// Unit tests for the campaign-spec front end (runtime/campaign_spec.hpp):
// validation of the [campaign] section, digest stability across key
// order / comments / formatting, and the null-tolerant spec_* typed
// parameter helpers experiment bodies read their knobs through.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "runtime/campaign_spec.hpp"
#include "util/toml.hpp"

namespace {

using namespace cps;
using cps::runtime::CampaignSpec;
using cps::runtime::load_campaign_spec;
using cps::runtime::make_campaign_spec;
using cps::util::TomlError;
using cps::util::parse_toml;

CampaignSpec spec_from(const std::string& text, const std::string& source = "test.toml") {
  return make_campaign_spec(parse_toml(text, source), source);
}

const char* kValidSpec =
    "spec_version = 1\n"
    "[campaign]\n"
    "name = \"acceptance_small\"\n"
    "experiments = [\"sweep_acceptance_ratio\", \"fig4\"]\n"
    "seed = 71\n"
    "fixture_store = \"/tmp/store\"\n"
    "shards = 2\n"
    "[grid]\n"
    "utilization = [1.0, 2.5]\n"
    "trials = 10\n";

TEST(CampaignSpecTest, ValidSpecExtractsEveryField) {
  const auto spec = spec_from(kValidSpec);
  EXPECT_EQ(spec.name, "acceptance_small");
  EXPECT_EQ(spec.experiments,
            (std::vector<std::string>{"sweep_acceptance_ratio", "fig4"}));
  EXPECT_TRUE(spec.has_seed);
  EXPECT_EQ(spec.seed, 71u);
  EXPECT_EQ(spec.fixture_store, "/tmp/store");
  EXPECT_EQ(spec.shard_plan, 2u);
  EXPECT_EQ(spec.source, "test.toml");
  // Every key — including campaign.* — stays reachable as a parameter.
  EXPECT_EQ(spec.params.get_double_array("grid.utilization"),
            (std::vector<double>{1.0, 2.5}));
}

TEST(CampaignSpecTest, SingularExperimentKeyAndDefaults) {
  const auto spec = spec_from(
      "spec_version = 1\n"
      "[campaign]\n"
      "name = \"one\"\n"
      "experiment = \"fig4\"\n");
  EXPECT_EQ(spec.experiments, (std::vector<std::string>{"fig4"}));
  EXPECT_FALSE(spec.has_seed);
  EXPECT_TRUE(spec.fixture_store.empty());
  EXPECT_EQ(spec.shard_plan, 1u);
}

struct RejectCase {
  const char* text;
  const char* expected_substring;
};

TEST(CampaignSpecTest, MalformedSpecsFailLoudly) {
  const std::vector<RejectCase> cases = {
      {"[campaign]\nname = \"x\"\nexperiment = \"e\"\n",
       "missing required key 'spec_version'"},
      {"spec_version = 7\n[campaign]\nname = \"x\"\nexperiment = \"e\"\n",
       "unsupported spec_version 7"},
      {"spec_version = 1\n[campaign]\nexperiment = \"e\"\n",
       "missing required key 'campaign.name'"},
      {"spec_version = 1\n[campaign]\nname = \"\"\nexperiment = \"e\"\n",
       "campaign.name must be non-empty"},
      {"spec_version = 1\n[campaign]\nname = \"x\"\n",
       "exactly one of campaign.experiment / campaign.experiments"},
      {"spec_version = 1\n[campaign]\nname = \"x\"\nexperiment = \"e\"\n"
       "experiments = [\"e\"]\n",
       "exactly one of campaign.experiment / campaign.experiments"},
      {"spec_version = 1\n[campaign]\nname = \"x\"\nexperiments = []\n",
       "at least one experiment"},
      {"spec_version = 1\n[campaign]\nname = \"x\"\nexperiments = [\"\"]\n",
       "entries must be non-empty"},
      {"spec_version = 1\n[campaign]\nname = \"x\"\nexperiment = \"e\"\nseed = -1\n",
       "campaign.seed must be >= 0"},
      {"spec_version = 1\n[campaign]\nname = \"x\"\nexperiment = \"e\"\nshards = 0\n",
       "campaign.shards must be in [1, 4096]"},
      {"spec_version = 1\n[campaign]\nname = \"x\"\nexperiment = \"e\"\nshards = 9999\n",
       "campaign.shards must be in [1, 4096]"},
      // A typo'd [campaign] key must not be silently inert.
      {"spec_version = 1\n[campaign]\nname = \"x\"\nexperimnets = [\"e\"]\n",
       "unknown [campaign] key 'campaign.experimnets'"},
      // Wrong-kind values surface the typed-getter error.
      {"spec_version = 1\n[campaign]\nname = 3\nexperiment = \"e\"\n",
       "key 'campaign.name'"},
  };
  for (const auto& test_case : cases) {
    try {
      spec_from(test_case.text);
      FAIL() << "no error for:\n" << test_case.text;
    } catch (const TomlError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(test_case.expected_substring), std::string::npos)
          << "spec:\n" << test_case.text << "error: " << what;
      EXPECT_NE(what.find("test.toml"), std::string::npos)
          << "error must name the spec source: " << what;
    }
  }
}

TEST(CampaignSpecTest, DigestIgnoresKeyOrderCommentsAndFormatting) {
  const auto a = spec_from(kValidSpec);
  const auto b = spec_from(
      "# reordered, commented, reformatted — same VALUES\n"
      "spec_version = 1\n"
      "[grid]\n"
      "trials      = 10\n"
      "utilization = [ 1.0 , 2.5 ]\n"
      "[campaign]\n"
      "shards        = 2\n"
      "fixture_store = \"/tmp/store\"\n"
      "seed          = 71\n"
      "experiments   = [\"sweep_acceptance_ratio\", \"fig4\"]\n"
      "name          = \"acceptance_small\"\n",
      "other.toml");
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.digest_hex(), b.digest_hex());
  EXPECT_EQ(a.digest_hex().size(), 16u);
}

// cps_run prints the digest as a campaign's identity, so the committed
// specs' values are frozen.
TEST(CampaignSpecTest, CommittedSpecDigestsArePinned) {
  const std::string dir = std::string(CPS_REPO_DIR) + "/examples/specs/";
  EXPECT_EQ(load_campaign_spec(dir + "acceptance_ratio_small.toml").digest_hex(),
            "f06572277427c5c4");
  EXPECT_EQ(load_campaign_spec(dir + "acceptance_ratio_families.toml").digest_hex(),
            "4f183e608da6bd6d");
}

TEST(CampaignSpecTest, DigestChangesWhenAnyValueChanges) {
  const auto base = spec_from(kValidSpec);
  std::string tweaked = kValidSpec;
  const auto pos = tweaked.find("trials = 10");
  ASSERT_NE(pos, std::string::npos);
  tweaked.replace(pos, 11, "trials = 11");
  EXPECT_NE(base.digest(), spec_from(tweaked).digest());
}

TEST(CampaignSpecTest, LoadsFromAFile) {
  const auto path = (std::filesystem::temp_directory_path() /
                     ("cps-spec-test-" + std::to_string(::getpid()) + ".toml"))
                        .string();
  {
    std::ofstream out(path);
    out << kValidSpec;
  }
  const auto spec = load_campaign_spec(path);
  EXPECT_EQ(spec.name, "acceptance_small");
  EXPECT_EQ(spec.source, path);
  std::filesystem::remove(path);
  EXPECT_THROW(load_campaign_spec(path), TomlError);
}

// ---------------------------------------------------------------------------
// spec_* typed helpers: the null-tolerant parameter surface experiments use.

TEST(SpecHelpersTest, NullSpecReturnsEveryFallback) {
  EXPECT_DOUBLE_EQ(cps::runtime::spec_double(nullptr, "k", 2.5), 2.5);
  EXPECT_EQ(cps::runtime::spec_int(nullptr, "k", 7), 7);
  EXPECT_EQ(cps::runtime::spec_string(nullptr, "k", "d"), "d");
  EXPECT_EQ(cps::runtime::spec_doubles(nullptr, "k", {1.0}), (std::vector<double>{1.0}));
  EXPECT_EQ(cps::runtime::spec_strings(nullptr, "k", {"x"}),
            (std::vector<std::string>{"x"}));
}

TEST(SpecHelpersTest, PresentKeysWinAbsentKeysFallBack) {
  const auto spec = spec_from(
      "spec_version = 1\n"
      "[campaign]\nname = \"x\"\nexperiment = \"e\"\n"
      "[grid]\ntrials = 30\nscale = 1.5\nlabel = \"fine\"\nutils = [0.5]\n"
      "names = [\"a\"]\n");
  EXPECT_EQ(cps::runtime::spec_int(&spec, "grid.trials", 7), 30);
  EXPECT_DOUBLE_EQ(cps::runtime::spec_double(&spec, "grid.scale", 9.0), 1.5);
  EXPECT_EQ(cps::runtime::spec_string(&spec, "grid.label", "d"), "fine");
  EXPECT_EQ(cps::runtime::spec_doubles(&spec, "grid.utils", {}),
            (std::vector<double>{0.5}));
  EXPECT_EQ(cps::runtime::spec_strings(&spec, "grid.names", {}),
            (std::vector<std::string>{"a"}));
  // Absent keys: the fallback, silently.
  EXPECT_EQ(cps::runtime::spec_int(&spec, "grid.absent", 7), 7);
  // grid.trials is an int: spec_double promotes it (1 and 1.0 equal).
  EXPECT_DOUBLE_EQ(cps::runtime::spec_double(&spec, "grid.trials", 0.0), 30.0);
}

TEST(SpecHelpersTest, PresentWrongTypeKeysThrowAndNameTheSource) {
  const auto spec = spec_from(
      "spec_version = 1\n"
      "[campaign]\nname = \"x\"\nexperiment = \"e\"\n"
      "[grid]\ntrials = \"30\"\n");
  try {
    cps::runtime::spec_int(&spec, "grid.trials", 7);
    FAIL() << "expected TomlError";
  } catch (const TomlError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("test.toml"), std::string::npos) << what;
    EXPECT_NE(what.find("grid.trials"), std::string::npos) << what;
  }
  EXPECT_THROW(cps::runtime::spec_doubles(&spec, "grid.trials", {}), TomlError);
}

}  // namespace
