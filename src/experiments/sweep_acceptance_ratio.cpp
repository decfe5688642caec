// Experiment "sweep_acceptance_ratio" — the schedulability literature's
// standard acceptance-ratio campaign, run on the paper's slot model.
//
// For each grid point (target utilization U, fleet size n) the sweep
// draws `trials` synthetic fleets at EXACTLY utilization U
// (plants::synthesize_sched_fleet — UUniFast shares, per-family tent
// shapes, deadlines inside the ET tail) and asks each allocator —
// first-fit, best-fit, and the exact branch-and-bound optimum — whether
// the fleet fits `max_slots` TT slots.  The acceptance ratio, the
// fraction of fleets each allocator schedules, maps where the
// heuristics detach from the optimum as utilization squeezes the static
// segment: every drawn application fits a DEDICATED slot by
// construction, so the curve isolates packing quality.
//
// This is the first SPEC-DRIVEN experiment (runtime/campaign_spec.hpp):
// under `cps_run --spec FILE` the grid (utilization points, fleet
// sizes, trials, max_slots) and the generator distributions come from
// the spec's typed parameters; run bare, the built-in defaults below
// apply.  Everything else follows the repo's sharded-sweep contract
// (sweep_flexray_params.cpp is the reference):
//  * fleets are drawn once per grid point as a cached BATCH
//    (experiments::sched_fleet_batch, sched_fleet_batch/v1 store
//    codec), keyed by the generator values + batch seed — shards and
//    warm-store re-runs share one draw;
//  * the (U x n x trial) grid fans out through the range-stealing
//    SweepRunner;
//  * the per-point CSV (leading global-index column) is bit-identical
//    for any --jobs, any --shard partition, any fixture-store state;
//    the aggregated per-curve CSV is written only when unsharded (the
//    canonical aggregate of a sharded campaign is computed from the
//    merged per-point file).
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
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

/// Built-in grid (used when no spec overrides it): utilizations spanning
/// the fall of the acceptance curve for 4 slots, two fleet sizes
/// straddling the exact search's comfortable range.
const std::vector<double> kDefaultUtilizations = {1.0, 1.5, 2.0, 2.5, 3.0, 3.5};
const std::vector<double> kDefaultFleetSizes = {8, 12};
constexpr std::int64_t kDefaultTrials = 200;
constexpr std::int64_t kDefaultMaxSlots = 4;
/// Largest fleet the exact allocator is asked to prove (its documented
/// max_apps_for_exact); larger fleets record exact as "not run" (-1).
constexpr std::size_t kExactAppCap = 20;
/// Decouples batch-draw seeds from SweepRunner per-task seeds.
constexpr std::uint64_t kBatchSeedSalt = 0xACCE97A7C3B10C45ULL;

/// Verdicts of the three allocators on one fleet.
struct Cell {
  double achieved_util = 0.0;
  int ff = 0;     ///< 1 = fits max_slots, 0 = not
  int bf = 0;
  int exact = 0;  ///< additionally -1 = fleet too large for the exact search
  std::size_t ff_slots = 0, bf_slots = 0, exact_slots = 0;  ///< 0 when unschedulable
};

struct AcceptanceWorkspace {
  std::vector<AppSchedParams> apps;
};

/// Slot count if the allocator fits `max_slots`, 0 otherwise.
template <typename AllocFn>
std::size_t try_allocate(AllocFn&& allocate) {
  try {
    return allocate().slot_count();
  } catch (const InfeasibleError&) {
    return 0;
  }
}

}  // namespace

CPS_SWEEP_EXPERIMENT(sweep_acceptance_ratio,
                     "Sweep: acceptance ratio of utilization-controlled fleets per "
                     "allocator (shardable, spec-driven)",
                     "sweep_acceptance_ratio.csv") {
  std::fprintf(ctx.out, "== Sweep: acceptance ratio vs target utilization ==\n");

  // Grid + generator knobs: spec-driven with built-in defaults.  A
  // PRESENT key of the wrong type throws (campaign_spec contract).
  const auto utilizations =
      runtime::spec_doubles(ctx.spec, "grid.utilization", kDefaultUtilizations);
  const auto fleet_sizes_raw =
      runtime::spec_doubles(ctx.spec, "grid.fleet_size", kDefaultFleetSizes);
  const auto trials =
      static_cast<std::size_t>(runtime::spec_int(ctx.spec, "grid.trials", kDefaultTrials));
  const auto max_slots = static_cast<std::size_t>(
      runtime::spec_int(ctx.spec, "grid.max_slots", kDefaultMaxSlots));
  CPS_ENSURE(!utilizations.empty() && !fleet_sizes_raw.empty() && trials >= 1,
             "sweep_acceptance_ratio: grid must be non-empty");
  CPS_ENSURE(max_slots >= 1, "sweep_acceptance_ratio: grid.max_slots must be >= 1");

  std::vector<std::size_t> fleet_sizes;
  fleet_sizes.reserve(fleet_sizes_raw.size());
  for (const double n : fleet_sizes_raw) {
    CPS_ENSURE(n >= 1.0 && n == static_cast<double>(static_cast<std::size_t>(n)),
               "sweep_acceptance_ratio: grid.fleet_size entries must be positive integers");
    fleet_sizes.push_back(static_cast<std::size_t>(n));
  }

  plants::FleetSynthesisSpec generator;  // per-point n/U filled in below
  generator.max_app_utilization =
      runtime::spec_double(ctx.spec, "generator.max_app_utilization", 0.95);
  generator.period_lo = runtime::spec_double(ctx.spec, "generator.period_lo", 3.0);
  generator.period_hi = runtime::spec_double(ctx.spec, "generator.period_hi", 60.0);
  generator.deadline_frac_lo =
      runtime::spec_double(ctx.spec, "generator.deadline_frac_lo", 0.7);
  generator.deadline_frac_hi =
      runtime::spec_double(ctx.spec, "generator.deadline_frac_hi", 1.0);
  if (ctx.spec != nullptr && ctx.spec->params.has("generator.families")) {
    generator.families.clear();
    for (const auto& name :
         runtime::spec_strings(ctx.spec, "generator.families", {}))
      generator.families.push_back(plants::family_from_name(name));
  }

  const std::size_t points = utilizations.size() * fleet_sizes.size();
  const std::size_t total = points * trials;
  std::fprintf(ctx.out,
               "(%zu utilizations x %zu fleet sizes x %zu trials = %zu fleets, "
               "max %zu slots, %d jobs%s)\n\n",
               utilizations.size(), fleet_sizes.size(), trials, total, max_slots, ctx.jobs,
               ctx.sharded() ? (", shard " + std::to_string(ctx.shard_index) + "/" +
                                std::to_string(ctx.shard_count))
                                   .c_str()
                             : "");

  // One cached fleet batch per grid point, seeded independently of the
  // SweepRunner's per-task seed stream.  The sweep bodies pull batches
  // through the FixtureCache, so the first worker to touch a grid point
  // draws (or disk-loads) it and every other worker shares the result.
  const auto batch_for = [&](std::size_t ui, std::size_t ni) {
    plants::FleetSynthesisSpec spec = generator;
    spec.target_utilization = utilizations[ui];
    spec.n_apps = fleet_sizes[ni];
    const std::size_t point = ui * fleet_sizes.size() + ni;
    return experiments::sched_fleet_batch(spec, trials,
                                          runtime::task_seed(ctx.seed ^ kBatchSeedSalt, point));
  };

  AllocationOptions options;
  options.max_slots = max_slots;

  runtime::SweepRunner sweep({ctx.jobs, ctx.seed, ctx.shard_index, ctx.shard_count});
  const auto range = sweep.range(total);
  const auto cells = sweep.run_with_workspace<AcceptanceWorkspace>(
      total, [&](std::size_t index, Rng&, AcceptanceWorkspace& workspace) {
        const std::size_t ui = index / (fleet_sizes.size() * trials);
        const std::size_t ni = (index / trials) % fleet_sizes.size();
        const std::size_t trial = index % trials;

        const auto batch = batch_for(ui, ni);
        const plants::SchedFleet& fleet = (*batch)[trial];
        workspace.apps = plants::to_sched_params(fleet);

        Cell cell;
        cell.achieved_util = fleet.achieved_utilization;
        cell.ff_slots = try_allocate([&] { return first_fit_allocate(workspace.apps, options); });
        cell.bf_slots = try_allocate([&] { return best_fit_allocate(workspace.apps, options); });
        cell.ff = cell.ff_slots > 0 ? 1 : 0;
        cell.bf = cell.bf_slots > 0 ? 1 : 0;
        if (fleet.apps.size() <= kExactAppCap) {
          cell.exact_slots =
              try_allocate([&] { return optimal_allocate(workspace.apps, options); });
          cell.exact = cell.exact_slots > 0 ? 1 : 0;
        } else {
          cell.exact = -1;  // out of the exact search's documented range
        }
        return cell;
      });

  // Per-point artifact: leading global-index column (the merge
  // invariant), grid coordinates, then the three verdicts.
  const std::string csv_path = ctx.artifact_path("sweep_acceptance_ratio.csv");
  CsvWriter csv(csv_path,
                {"index", "target_util", "fleet_size", "trial", "achieved_util",
                 "ff_sched", "bf_sched", "exact_sched", "ff_slots", "bf_slots",
                 "exact_slots"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t index = range.begin + i;
    const std::size_t ui = index / (fleet_sizes.size() * trials);
    const std::size_t ni = (index / trials) % fleet_sizes.size();
    const std::size_t trial = index % trials;
    const auto& cell = cells[i];
    csv.write_row(std::vector<std::string>{
        std::to_string(index), format_general(utilizations[ui]),
        std::to_string(fleet_sizes[ni]), std::to_string(trial),
        format_general(cell.achieved_util), std::to_string(cell.ff),
        std::to_string(cell.bf), std::to_string(cell.exact),
        std::to_string(cell.ff_slots), std::to_string(cell.bf_slots),
        std::to_string(cell.exact_slots)});
  }

  // Narrative acceptance table (this shard's fleets only when sharded).
  TextTable table({"util", "n", "fleets", "ff", "bf", "exact"});
  std::vector<std::vector<std::string>> curve_rows;
  for (std::size_t ui = 0; ui < utilizations.size(); ++ui) {
    for (std::size_t ni = 0; ni < fleet_sizes.size(); ++ni) {
      std::size_t fleets = 0, ff = 0, bf = 0, exact = 0, exact_run = 0;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t index = range.begin + i;
        if (index / (fleet_sizes.size() * trials) != ui ||
            (index / trials) % fleet_sizes.size() != ni)
          continue;
        ++fleets;
        ff += static_cast<std::size_t>(cells[i].ff == 1);
        bf += static_cast<std::size_t>(cells[i].bf == 1);
        if (cells[i].exact >= 0) {
          ++exact_run;
          exact += static_cast<std::size_t>(cells[i].exact == 1);
        }
      }
      if (fleets == 0) continue;  // grid point owned entirely by other shards
      const auto ratio = [](std::size_t hits, std::size_t n) {
        return n == 0 ? std::string("n/a")
                      : format_fixed(static_cast<double>(hits) / static_cast<double>(n), 3);
      };
      table.add_row({format_general(utilizations[ui]), std::to_string(fleet_sizes[ni]),
                     std::to_string(fleets), ratio(ff, fleets), ratio(bf, fleets),
                     ratio(exact, exact_run)});
      curve_rows.push_back({format_general(utilizations[ui]), std::to_string(fleet_sizes[ni]),
                            std::to_string(fleets), ratio(ff, fleets), ratio(bf, fleets),
                            ratio(exact, exact_run)});
    }
  }
  std::fprintf(ctx.out, "%s\n", table.render().c_str());

  // Aggregated curve: canonical only when this process saw every trial.
  if (!ctx.sharded()) {
    const std::string curve_path = ctx.csv_path("sweep_acceptance_ratio_curve.csv");
    CsvWriter curve(curve_path, {"target_util", "fleet_size", "fleets", "ff_ratio",
                                 "bf_ratio", "exact_ratio"});
    for (const auto& row : curve_rows) curve.write_row(row);
    std::fprintf(ctx.out, "acceptance curve written to %s\n", curve_path.c_str());
  }
  std::fprintf(ctx.out, "%zu fleets written to %s\n\n", cells.size(), csv_path.c_str());
}
