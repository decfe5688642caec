// Scenario-script regression suite: replay every committed scenario in
// examples/scenarios/ and byte-compare its event-log CSV against the
// frozen golden in tests/golden/, with the exact allocator on one worker
// and on four (the log's jobs-independence contract).  Any drift in
// fleet synthesis, the arrival streams, the allocator, or the CSV format
// shows up here as a byte diff — regenerate the goldens (and justify the
// change) with:
//
//   build/tools/cps_run --scenario examples/scenarios/<name>.toml --csv tests/golden/
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "online/scenario.hpp"
#include "online/world.hpp"
#include "runtime/experiment.hpp"

namespace {

using namespace cps;

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::vector<std::string> committed_scenarios() {
  const std::filesystem::path dir = std::filesystem::path(CPS_REPO_DIR) / "examples" /
                                    "scenarios";
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    if (entry.path().extension() == ".toml") paths.push_back(entry.path().string());
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(ScenarioGoldenTest, EveryCommittedScenarioReplaysItsFrozenEventLog) {
  const auto paths = committed_scenarios();
  ASSERT_GE(paths.size(), 6u) << "the committed scenario suite must stay >= 6 scripts";

  for (const auto& path : paths) {
    SCOPED_TRACE(path);
    const online::ScenarioSpec scenario = online::load_scenario(path);
    // The file stem IS the scenario name — keeps script, golden and CSV
    // artifact names in one-to-one correspondence.
    EXPECT_EQ(std::filesystem::path(path).stem().string(), scenario.name);

    const auto golden = std::filesystem::path(CPS_REPO_DIR) / "tests" / "golden" /
                        ("scenario_" + scenario.name + "_events.csv");
    ASSERT_TRUE(std::filesystem::exists(golden))
        << "missing golden " << golden << " — generate it with cps_run --scenario";
    const std::string expected = read_bytes(golden.string());

    // Replay as `cps_run --scenario FILE --jobs J` would: default context,
    // so the scenario's own seed (or the default) applies, and the
    // allocator fanned over J workers.  The log must not depend on J.
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE("exact_jobs " + std::to_string(jobs));
      const runtime::ExperimentContext ctx;
      online::ReallocationPolicy policy;
      policy.exact_jobs = jobs;
      online::World world(scenario, online::effective_scenario_seed(ctx, scenario), policy);
      world.run();

      const auto temp = (std::filesystem::temp_directory_path() /
                         ("cps-golden-" + scenario.name + "-" + std::to_string(::getpid()) +
                          "-j" + std::to_string(jobs) + ".csv"))
                            .string();
      online::write_event_log_csv(temp, world);
      const std::string actual = read_bytes(temp);
      std::filesystem::remove(temp);
      EXPECT_EQ(actual, expected) << "event log drifted from the frozen golden";
    }
  }
}

TEST(ScenarioGoldenTest, CommittedSuiteCoversEveryEventKind) {
  // The six scripts are the regression net for the whole fault-injection
  // surface; a suite that quietly stopped exercising a kind would let
  // that kind rot.
  std::vector<bool> seen(6, false);
  for (const auto& path : committed_scenarios())
    for (const auto& event : online::load_scenario(path).events)
      seen[static_cast<std::size_t>(event.kind)] = true;
  for (std::size_t kind = 0; kind < seen.size(); ++kind)
    EXPECT_TRUE(seen[kind]) << "no committed scenario injects "
                            << online::event_kind_name(static_cast<online::EventKind>(kind));
}

}  // namespace
