// Experiment "sweep_flexray_params" — FlexRay static-slot/cycle-length
// parameter sweep over the fleet (new workload, not a paper figure).
//
// The paper fixes the case study's FlexRay configuration (5 ms cycle,
// 10-slot / 2 ms static segment) and asks how many TT slots the fleet
// needs.  This sweep asks the surrounding design question: across a grid
// of communication-cycle lengths and static-segment sizes, how many
// slots do the first-fit / best-fit heuristics and the exact
// branch-and-bound optimum need, and does the fleet still fit the static
// segment?  Slot access is granted once per communication cycle, so
// every dwell/wait characteristic an application presents to the
// scheduler is quantized UP to whole cycles (ceil(x / cycle) * cycle) —
// longer cycles mean coarser (more conservative) envelopes, which is
// exactly the slot-count-vs-cycle-length trade the sweep maps out.
//
// Each grid point augments the six quantized paper applications with
// extra applications (10-12 apps total, the "larger random fleets"
// direction of the ROADMAP), so the exact optimum exercises the pruned
// B&B well past the paper's n = 6.  The extras are no longer bare random
// tents: they are drawn from a SYNTHESIZED pool of real plants spanning
// three second-order families (the calibrated scaled oscillator, the
// underdamped resonant stage, the unstable inverted pendulum —
// plants::synthesize_extra_fleet), each with a measured dwell/wait curve
// and a fitted tent model, so the campaign's fleet mix reflects
// qualitatively different dynamics.  Per trial, the pool pick and the
// scheduling pressure (r, deadline) are drawn from the grid point's own
// Rng.
//
// Campaign-scale mechanics (this is the repo's reference SHARDED sweep):
//  * the fleet synthesis and the six dwell/wait curves come through the
//    two-level FixtureCache — with `--fixture-store` a warm store turns
//    the whole fixture phase into bit-identical disk loads;
//  * the (cycle x slots x trial) grid fans out through the
//    range-stealing SweepRunner with a per-worker scratch workspace;
//  * under `cps_run --shard i/N` the process evaluates only its
//    contiguous block of the grid and writes
//    sweep_flexray_params.csv.shardIofN; `--merge N` concatenates the
//    blocks into the canonical CSV.  Every row depends only on its
//    global index, so the CSV is bit-identical for any --jobs, any
//    shard partition, and any fixture-store state.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dwell_wait_model.hpp"
#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "flexray/config.hpp"
#include "runtime/experiment.hpp"
#include "runtime/sweep_runner.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/table.hpp"

namespace {

using namespace cps;
using namespace cps::analysis;

/// Cycle lengths swept, as multiples of the case study's 5 ms cycle.
constexpr double kCycleFactors[] = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
constexpr std::size_t kCycleCount = sizeof(kCycleFactors) / sizeof(kCycleFactors[0]);
/// Static-segment sizes swept (the paper's case study uses 10).
constexpr std::size_t kSlotCounts[] = {6, 8, 10, 12};
constexpr std::size_t kSlotConfigCount = sizeof(kSlotCounts) / sizeof(kSlotCounts[0]);
/// Random fleet augmentations per (cycle, slots) configuration.  Sized
/// so the sweep dominates the campaign (the point of sharding it): the
/// 24k-point grid runs a few seconds single-process in Release and
/// splits near-linearly across `--shard` processes.
constexpr std::size_t kTrials = 1000;
/// Extra applications per trial: 4, 5 or 6 on top of the paper's six, so
/// the exact optimum runs on 10-12 applications.
constexpr int kMinExtraApps = 4;
constexpr int kExtraAppSpread = 3;
/// Synthesized augmentation pool: three applications per plant family
/// (scaled oscillator / underdamped resonant / inverted pendulum), built
/// once through the FixtureCache and measured like the paper fleet.
constexpr std::size_t kExtraPoolSize = 9;
constexpr std::uint64_t kExtraPoolSeed = 0xF1EE7E27ULL;

/// The tent-model characteristics of one application, as fitted from its
/// measured dwell/wait curve (paper fleet) or drawn (random extras).
struct TentParams {
  std::string name;
  double xi_tt = 0.0;
  double xi_m = 0.0;
  double k_p = 0.0;
  double xi_et = 0.0;
  double r = 0.0;
  double deadline = 0.0;
};

/// Smallest whole-cycle multiple >= x: the dwell/wait granularity an
/// application experiences when its slot recurs once per cycle.
double quantize_up(double x, double cycle) { return std::ceil(x / cycle) * cycle; }

/// TentParams from a fitted tent model plus the scheduling fields — the
/// single mapping used for both the paper fleet and the random extras,
/// so the two can never diverge in how they are later quantized.
TentParams tent_from(const NonMonotonicModel& model, std::string name, double r,
                     double deadline) {
  TentParams tent;
  tent.name = std::move(name);
  tent.xi_tt = model.xi_tt();
  tent.xi_m = model.xi_m();
  tent.k_p = model.k_p();
  tent.xi_et = model.zero_wait();
  tent.r = r;
  tent.deadline = deadline;
  return tent;
}

/// Sched params of `tent` under cycle-quantized timing.  k_p (the peak
/// LOCATION) is a property of the plant's transient, not of the bus, so
/// it is not quantized — which also keeps xi_et_q >= xi_et > k_p, the
/// model's validity condition, for every cycle length.
AppSchedParams quantized_app(const TentParams& tent, double cycle) {
  AppSchedParams app;
  app.name = tent.name;
  app.min_inter_arrival = tent.r;
  app.deadline = tent.deadline;
  app.model = std::make_shared<NonMonotonicModel>(
      quantize_up(tent.xi_tt, cycle), quantize_up(tent.xi_m, cycle), tent.k_p,
      quantize_up(tent.xi_et, cycle));
  return app;
}

/// Per-point result (everything the CSV row needs).
struct Cell {
  int n_apps = 0;
  bool feasible = false;       ///< allocatable at all (even on dedicated slots)
  std::size_t first_fit = 0;
  std::size_t best_fit = 0;
  std::size_t optimal = 0;
  bool fits_static = false;    ///< optimal slot count fits the static segment
};

/// Per-worker scratch: the application set under allocation, reused
/// across every grid point a worker evaluates.
struct FlexRaySweepWorkspace {
  std::vector<AppSchedParams> apps;
};

}  // namespace

CPS_SWEEP_EXPERIMENT(sweep_flexray_params,
                     "Sweep: FlexRay cycle/static-slot grid vs slots needed (shardable)",
                     "sweep_flexray_params.csv") {
  std::fprintf(ctx.out, "== Sweep: FlexRay cycle length x static slots vs slots needed ==\n");

  // Fixture phase — everything here flows through the two-level
  // FixtureCache: fleet + extra-pool synthesis plus one measured
  // dwell/wait curve per application (the campaign-dominating computes a
  // warm --fixture-store replaces with disk loads).
  const auto fleet = experiments::paper_fleet();
  std::vector<TentParams> paper_tents;
  paper_tents.reserve(fleet->size());
  for (const auto& app : *fleet) {
    const auto curve = experiments::measure_synthesized_curve(app);
    const NonMonotonicModel model = NonMonotonicModel::fit(*curve);
    paper_tents.push_back(tent_from(model, app.target.name, app.target.r, app.target.xi_d));
  }
  const auto pool = experiments::extra_fleet(kExtraPoolSize, kExtraPoolSeed);
  std::vector<TentParams> pool_tents;
  pool_tents.reserve(pool->size());
  std::fprintf(ctx.out, "augmentation pool (%zu apps):", pool->size());
  for (const auto& app : *pool) {
    const auto curve = experiments::measure_synthesized_curve(app);
    const NonMonotonicModel model = NonMonotonicModel::fit(*curve);
    // r and deadline are drawn per trial; the pool carries the measured
    // tent shape of the plant family.
    pool_tents.push_back(tent_from(model, app.target.name, app.target.r, app.target.xi_d));
    std::fprintf(ctx.out, " %s[%s]", app.target.name.c_str(),
                 plants::family_name(app.family));
  }
  std::fprintf(ctx.out, "\n");

  // Pre-quantize the paper fleet once per cycle length; the sweep bodies
  // share these read-only sets (models are shared_ptr, copies are cheap).
  const flexray::FlexRayConfig base_config;
  std::vector<double> cycles(kCycleCount);
  std::vector<std::vector<AppSchedParams>> paper_sets(kCycleCount);
  for (std::size_t ci = 0; ci < kCycleCount; ++ci) {
    cycles[ci] = base_config.cycle_length * kCycleFactors[ci];
    flexray::FlexRayConfig config = base_config;
    config.cycle_length = cycles[ci];
    config.static_slot_count = *std::max_element(kSlotCounts, kSlotCounts + kSlotConfigCount);
    config.validate();  // every swept configuration must be a legal bus
    paper_sets[ci].reserve(paper_tents.size());
    for (const auto& tent : paper_tents)
      paper_sets[ci].push_back(quantized_app(tent, cycles[ci]));
  }

  const std::size_t total = kCycleCount * kSlotConfigCount * kTrials;
  std::fprintf(ctx.out,
               "(%zu cycle lengths x %zu static-segment sizes x %zu trials = %zu points, "
               "%d jobs%s)\n\n",
               kCycleCount, kSlotConfigCount, kTrials, total, ctx.jobs,
               ctx.sharded() ? (", shard " + std::to_string(ctx.shard_index) + "/" +
                                std::to_string(ctx.shard_count))
                                   .c_str()
                             : "");

  runtime::SweepRunner sweep({ctx.jobs, ctx.seed, ctx.shard_index, ctx.shard_count});
  const auto range = sweep.range(total);
  const auto cells = sweep.run_with_workspace<FlexRaySweepWorkspace>(
      total, [&](std::size_t index, Rng& rng, FlexRaySweepWorkspace& workspace) {
        const std::size_t ci = index / (kSlotConfigCount * kTrials);
        const std::size_t si = (index / kTrials) % kSlotConfigCount;
        const std::size_t trial = index % kTrials;
        const double cycle = cycles[ci];

        auto& apps = workspace.apps;
        apps.assign(paper_sets[ci].begin(), paper_sets[ci].end());

        // Augment from the synthesized three-family pool, then quantize
        // to the same cycle.  Each extra draws its pool pick and its
        // scheduling pressure (r, deadline) from the grid point's own
        // Rng; draw order is fixed per index, so every shard and job
        // count sees identical instances.
        const int extras = kMinExtraApps + static_cast<int>(trial % kExtraAppSpread);
        for (int e = 0; e < extras; ++e) {
          TentParams tent =
              pool_tents[static_cast<std::size_t>(rng.uniform_int(
                  0, static_cast<int>(pool_tents.size()) - 1))];
          // The synthesized tents have modest peaks and long ET tails, so
          // the pressure that decides slot sharing is drawn here: bursty
          // re-arrivals (r a few peak-dwells) and deadlines well inside
          // the ET tail.
          tent.r = tent.xi_m * rng.uniform(2.0, 8.0);
          tent.deadline = std::min(tent.r, rng.uniform(0.15, 0.5) * tent.xi_et);
          apps.push_back(quantized_app(tent, cycle));
        }

        Cell cell;
        cell.n_apps = static_cast<int>(apps.size());
        try {
          cell.first_fit = first_fit_allocate(apps).slot_count();
          cell.best_fit = best_fit_allocate(apps).slot_count();
          cell.optimal = optimal_allocate(apps).slot_count();
          cell.feasible = true;
          cell.fits_static = cell.optimal <= kSlotCounts[si];
        } catch (const InfeasibleError&) {
          // Unallocatable even on dedicated slots (the quantized
          // envelopes can exceed a deadline outright); recorded as an
          // infeasible row, excluded from the aggregates.
        }
        return cell;
      });

  // Per-point artifact: leading global-index column (the merge
  // invariant), then the grid coordinates and the allocation verdicts.
  const std::string csv_path = ctx.artifact_path("sweep_flexray_params.csv");
  CsvWriter csv(csv_path, {"index", "cycle_ms", "static_slots", "n_apps", "feasible",
                           "first_fit", "best_fit", "optimal", "fits_static_segment"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::size_t index = range.begin + i;
    const std::size_t ci = index / (kSlotConfigCount * kTrials);
    const std::size_t si = (index / kTrials) % kSlotConfigCount;
    const auto& cell = cells[i];
    csv.write_row(std::vector<std::string>{
        std::to_string(index), format_fixed(cycles[ci] * 1e3, 3),
        std::to_string(kSlotCounts[si]), std::to_string(cell.n_apps),
        cell.feasible ? "1" : "0", std::to_string(cell.first_fit),
        std::to_string(cell.best_fit), std::to_string(cell.optimal),
        cell.fits_static ? "1" : "0"});
  }

  // Narrative aggregates (this shard's rows only when sharded — the
  // canonical numbers live in the merged CSV).
  TextTable table({"cycle [ms]", "slots", "feasible", "avg opt", "avg ff", "fits static"});
  for (std::size_t ci = 0; ci < kCycleCount; ++ci) {
    for (std::size_t si = 0; si < kSlotConfigCount; ++si) {
      std::size_t feasible = 0, fits = 0, points = 0;
      double opt_sum = 0.0, ff_sum = 0.0;
      for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::size_t index = range.begin + i;
        if (index / (kSlotConfigCount * kTrials) != ci ||
            (index / kTrials) % kSlotConfigCount != si)
          continue;
        ++points;
        if (!cells[i].feasible) continue;
        ++feasible;
        opt_sum += static_cast<double>(cells[i].optimal);
        ff_sum += static_cast<double>(cells[i].first_fit);
        if (cells[i].fits_static) ++fits;
      }
      if (points == 0) continue;  // entire configuration owned by other shards
      table.add_row({format_fixed(cycles[ci] * 1e3, 2), std::to_string(kSlotCounts[si]),
                     std::to_string(feasible) + "/" + std::to_string(points),
                     feasible ? format_fixed(opt_sum / static_cast<double>(feasible), 2)
                              : std::string("n/a"),
                     feasible ? format_fixed(ff_sum / static_cast<double>(feasible), 2)
                              : std::string("n/a"),
                     std::to_string(fits) + "/" + std::to_string(feasible)});
    }
  }
  std::fprintf(ctx.out, "%s\n", table.render().c_str());
  std::fprintf(ctx.out, "%zu grid points written to %s\n\n", cells.size(), csv_path.c_str());
}
