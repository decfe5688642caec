// Experiment "sweep_fault_recovery" — online repair + exact re-allocation
// across a fault grid (shardable, spec-driven).
//
// For each grid point (target utilization U, fleet size n, fault kind,
// trial) the sweep synthesizes a fleet at exactly U, allocates it
// optimally, freezes the slot budget at that optimum (the tightest
// resident configuration), injects ONE fault, and re-allocates through
// the online repair + exact path (online/reallocation.hpp), which
// records the repaired partition's count as the warm bound.  Each point
// also re-proves the faulted instance COLD, so the CSV carries a
// per-instance differential verdict: warm_matches_cold must be 1
// everywhere (the repair changes the report, never the answer) — the
// online property suite asserts the same against the frozen reference
// search, and CI byte-compares this CSV across --jobs 1 and 4.
//
// Faults, one app per trial round-robin where targeted: drop_slot (the
// resident system ran with one spare slot of headroom; the spare is
// lost, so the budget falls back to the bare optimum and the previous
// partition must be repaired into it), drop_frames (xi_m/k_p/xi_et
// x1.4), delay_frames (15% of the target's inter-arrival time off its
// deadline), drift (whole tent x1.3), leave (the target retires).
//
// Sharded-sweep contract (sweep_acceptance_ratio.cpp is the reference):
// cached fleet batches keyed off the generator values + salted seed,
// range-stealing SweepRunner fan-out, per-point CSV with a leading
// global index column, aggregate table only when unsharded.
#include <cstddef>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "online/reallocation.hpp"
#include "online/scenario.hpp"
#include "plants/fleet_synthesis.hpp"
#include "runtime/campaign_spec.hpp"
#include "runtime/experiment.hpp"
#include "runtime/sweep_runner.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

const std::vector<double> kDefaultUtilizations = {1.5, 2.2};
const std::vector<double> kDefaultFleetSizes = {8, 10};
constexpr std::int64_t kDefaultTrials = 20;
const std::vector<std::string> kDefaultFaults = {"drop_slot", "drop_frames", "delay_frames",
                                                 "drift", "leave"};
/// Every fleet must fit the frozen reference search's range, because the
/// property suite differential-checks against it.
constexpr std::size_t kMaxFleetForExact = 12;
/// Decouples batch-draw seeds from SweepRunner per-task seeds.
constexpr std::uint64_t kBatchSeedSalt = 0xFA017EC04E11D00DULL;

struct FaultCell {
  std::size_t initial_slots = 0;
  std::size_t budget = 0;       ///< slot budget after the fault (0 = outage)
  int repaired = 0;             ///< previous partition repaired to feasibility
  std::size_t warm = 0;         ///< warm bound: the repaired partition's count
  int feasible = 0;
  std::size_t warm_slots = 0;   ///< online (repair + exact) result (0 when infeasible)
  std::size_t cold_slots = 0;   ///< cold re-prove on the same instance
  int matches = 0;              ///< warm_slots == cold_slots
  std::size_t gap = 0;          ///< warm - proven optimum
};

std::size_t cold_optimum(const std::vector<AppSchedParams>& apps, std::size_t budget) {
  AllocationOptions options;
  options.max_slots = budget;
  try {
    return optimal_allocate(apps, options).slot_count();
  } catch (const InfeasibleError&) {
    return 0;
  }
}

}  // namespace

CPS_SWEEP_EXPERIMENT(sweep_fault_recovery,
                     "Sweep: warm-started re-allocation vs cold optimum across a "
                     "fault-injection grid (shardable, spec-driven)",
                     "sweep_fault_recovery.csv") {
  std::fprintf(ctx.out, "== Sweep: fault recovery, warm-started vs cold exact ==\n");

  const auto utilizations =
      runtime::spec_doubles(ctx.spec, "grid.utilization", kDefaultUtilizations);
  const auto fleet_sizes_raw =
      runtime::spec_doubles(ctx.spec, "grid.fleet_size", kDefaultFleetSizes);
  const auto trials =
      static_cast<std::size_t>(runtime::spec_int(ctx.spec, "grid.trials", kDefaultTrials));
  const auto faults = runtime::spec_strings(ctx.spec, "grid.faults", kDefaultFaults);
  CPS_ENSURE(!utilizations.empty() && !fleet_sizes_raw.empty() && trials >= 1 &&
                 !faults.empty(),
             "sweep_fault_recovery: grid must be non-empty");
  for (const auto& fault : faults)
    CPS_ENSURE(fault == "drop_slot" || fault == "drop_frames" || fault == "delay_frames" ||
                   fault == "drift" || fault == "leave",
               "sweep_fault_recovery: unknown fault kind '" + fault + "'");

  std::vector<std::size_t> fleet_sizes;
  for (const double n : fleet_sizes_raw) {
    CPS_ENSURE(n >= 2.0 && n <= static_cast<double>(kMaxFleetForExact) &&
                   n == static_cast<double>(static_cast<std::size_t>(n)),
               "sweep_fault_recovery: grid.fleet_size entries must be integers in [2, 12] "
               "(the reference exact search's range)");
    fleet_sizes.push_back(static_cast<std::size_t>(n));
  }

  const std::size_t total =
      utilizations.size() * fleet_sizes.size() * faults.size() * trials;
  std::fprintf(ctx.out,
               "(%zu utilizations x %zu fleet sizes x %zu faults x %zu trials = %zu "
               "instances, %d jobs%s)\n\n",
               utilizations.size(), fleet_sizes.size(), faults.size(), trials, total,
               ctx.jobs,
               ctx.sharded() ? (", shard " + std::to_string(ctx.shard_index) + "/" +
                                std::to_string(ctx.shard_count))
                                   .c_str()
                             : "");

  const auto batch_for = [&](std::size_t ui, std::size_t ni) {
    plants::FleetSynthesisSpec spec;
    spec.target_utilization = utilizations[ui];
    spec.n_apps = fleet_sizes[ni];
    const std::size_t point = ui * fleet_sizes.size() + ni;
    return experiments::sched_fleet_batch(spec, trials,
                                          runtime::task_seed(ctx.seed ^ kBatchSeedSalt, point));
  };

  // Grid decode: index -> (ui, ni, fi, trial), trial fastest.
  const std::size_t per_ni = faults.size() * trials;
  const std::size_t per_ui = fleet_sizes.size() * per_ni;

  runtime::SweepRunner sweep({ctx.jobs, ctx.seed, ctx.shard_index, ctx.shard_count});
  const auto range = sweep.range(total);
  const auto cells = sweep.run(total, [&](std::size_t index, Rng&) {
    const std::size_t ui = index / per_ui;
    const std::size_t ni = (index / per_ni) % fleet_sizes.size();
    const std::size_t fi = (index / trials) % faults.size();
    const std::size_t trial = index % trials;
    const std::string& fault = faults[fi];

    const auto batch = batch_for(ui, ni);
    std::vector<plants::SynthesizedSchedApp> fleet = (*batch)[trial].apps;

    FaultCell cell;
    // Resident baseline: the exact optimum, with the budget frozen AT it
    // (the tightest configuration a resident system would run).
    const Allocation initial = optimal_allocate(online::fleet_to_params(fleet), {});
    cell.initial_slots = initial.slot_count();
    cell.budget = cell.initial_slots;

    // Inject exactly one fault.
    const std::size_t target = trial % fleet.size();
    if (fault == "drop_slot") {
      // The resident system had one spare slot; losing it lands the
      // budget back exactly on the optimum, so the repaired previous
      // partition is already optimal (a zero-gap warm bound).
      cell.budget = cell.initial_slots;
    } else if (fault == "drop_frames") {
      online::apply_drop_frames(fleet[target], 1.4);
    } else if (fault == "delay_frames") {
      online::apply_delay_frames(fleet[target], 0.15 * fleet[target].r);
    } else if (fault == "drift") {
      online::apply_drift(fleet[target], 1.3);
    } else {  // leave
      fleet.erase(fleet.begin() + static_cast<std::ptrdiff_t>(target));
    }

    const auto apps = online::fleet_to_params(fleet);
    online::ReallocationPolicy policy;  // exact_jobs 1: the sweep itself fans out
    policy.exact_max_apps = kMaxFleetForExact;
    const auto result = online::reallocate(apps, initial.slots, cell.budget, policy);
    cell.repaired = result.report.repaired ? 1 : 0;
    cell.warm = result.report.warm_incumbent;
    cell.feasible = result.feasible ? 1 : 0;
    cell.warm_slots = result.feasible ? result.allocation.slot_count() : 0;
    cell.gap = result.report.anytime_gap;

    cell.cold_slots = cold_optimum(apps, cell.budget);
    cell.matches = cell.warm_slots == cell.cold_slots ? 1 : 0;
    return cell;
  });

  const std::string csv_path = ctx.artifact_path("sweep_fault_recovery.csv");
  CsvWriter csv(csv_path, {"index", "target_util", "fleet_size", "fault", "trial",
                           "initial_slots", "budget", "repaired", "warm", "feasible",
                           "warm_slots", "cold_slots", "warm_matches_cold", "gap"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t index = range.begin + i;
    const std::size_t ui = index / per_ui;
    const std::size_t ni = (index / per_ni) % fleet_sizes.size();
    const std::size_t fi = (index / trials) % faults.size();
    const std::size_t trial = index % trials;
    const auto& cell = cells[i];
    csv.write_row(std::vector<std::string>{
        std::to_string(index), format_general(utilizations[ui]),
        std::to_string(fleet_sizes[ni]), faults[fi], std::to_string(trial),
        std::to_string(cell.initial_slots), std::to_string(cell.budget),
        std::to_string(cell.repaired), std::to_string(cell.warm),
        std::to_string(cell.feasible), std::to_string(cell.warm_slots),
        std::to_string(cell.cold_slots), std::to_string(cell.matches),
        std::to_string(cell.gap)});
  }

  // Narrative per-fault aggregate (this shard's instances only).
  TextTable table({"fault", "instances", "repaired", "feasible", "warm==cold"});
  for (std::size_t fi = 0; fi < faults.size(); ++fi) {
    std::size_t instances = 0, repaired = 0, feasible = 0, matches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const std::size_t index = range.begin + i;
      if ((index / trials) % faults.size() != fi) continue;
      ++instances;
      repaired += static_cast<std::size_t>(cells[i].repaired == 1);
      feasible += static_cast<std::size_t>(cells[i].feasible == 1);
      matches += static_cast<std::size_t>(cells[i].matches == 1);
    }
    if (instances == 0) continue;  // fault owned entirely by other shards
    const auto ratio = [&](std::size_t hits) {
      return format_fixed(static_cast<double>(hits) / static_cast<double>(instances), 3);
    };
    table.add_row({faults[fi], std::to_string(instances), ratio(repaired), ratio(feasible),
                   ratio(matches)});
  }
  std::fprintf(ctx.out, "%s\n", table.render().c_str());
  std::fprintf(ctx.out, "%zu instances written to %s\n\n", cells.size(), csv_path.c_str());
}
