// flexray_grid: the 24k-point cycle x static-slot x trial grid of
// sweep_flexray_params.  Set-up is the experiment's fixture phase (paper
// fleet and 9-plant pool synthesis, their dwell/wait curves and tent
// fits) on a cleared FixtureCache; each timed repetition is the sweep:
// cycle quantisation plus ff / bf / exact allocation of 10-12 apps per
// point.  The sweep seed is --seed, so the grid's fleets change with it.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dwell_wait_model.hpp"
#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "flexray/config.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/sweep_runner.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using cps::analysis::AppSchedParams;
using cps::analysis::NonMonotonicModel;

// The grid of sweep_flexray_params.
constexpr double kCycleFactors[] = {0.5, 0.75, 1.0, 1.25, 1.5, 2.0};
constexpr std::size_t kCycleCount = sizeof(kCycleFactors) / sizeof(kCycleFactors[0]);
constexpr std::size_t kSlotCounts[] = {6, 8, 10, 12};
constexpr std::size_t kSlotConfigCount = sizeof(kSlotCounts) / sizeof(kSlotCounts[0]);
constexpr std::size_t kTrials = 1000;
constexpr std::size_t kPoints = kCycleCount * kSlotConfigCount * kTrials;
constexpr int kMinExtraApps = 4;
constexpr int kExtraAppSpread = 3;
constexpr std::size_t kExtraPoolSize = 9;
constexpr std::uint64_t kExtraPoolSeed = 0xF1EE7E27ULL;

struct Tent {
  std::string name;
  double xi_tt = 0.0, xi_m = 0.0, k_p = 0.0, xi_et = 0.0, r = 0.0, deadline = 0.0;
};

Tent tent_from(const NonMonotonicModel& model, std::string name, double r, double deadline) {
  return Tent{std::move(name), model.xi_tt(), model.xi_m(), model.k_p(), model.zero_wait(),
              r, deadline};
}

double quantize_up(double x, double cycle) { return std::ceil(x / cycle) * cycle; }

AppSchedParams quantized_app(const Tent& tent, double cycle) {
  AppSchedParams app;
  app.name = tent.name;
  app.min_inter_arrival = tent.r;
  app.deadline = tent.deadline;
  app.model = std::make_shared<NonMonotonicModel>(quantize_up(tent.xi_tt, cycle),
                                                  quantize_up(tent.xi_m, cycle), tent.k_p,
                                                  quantize_up(tent.xi_et, cycle));
  return app;
}

/// Everything the sweep reads: built by the fixture phase.
struct GridInputs {
  std::vector<Tent> pool;
  std::vector<double> cycles;
  std::vector<std::vector<AppSchedParams>> paper_sets;  ///< per cycle
};

Tent fitted_tent(const cps::plants::SynthesizedApp& app) {
  std::shared_ptr<const cps::sim::DwellWaitCurve> curve;
  {
    ScopedSpan span("fixture.call");
    curve = cps::experiments::measure_synthesized_curve(app);
  }
  ScopedSpan span("analysis.fit");
  return tent_from(NonMonotonicModel::fit(*curve), app.target.name, app.target.r,
                   app.target.xi_d);
}

GridInputs fixture_phase() {
  GridInputs inputs;
  std::shared_ptr<const std::vector<cps::plants::SynthesizedApp>> fleet, pool;
  {
    ScopedSpan span("fixture.call");
    fleet = cps::experiments::paper_fleet();
  }
  std::vector<Tent> paper;
  for (const auto& app : *fleet) paper.push_back(fitted_tent(app));
  {
    ScopedSpan span("fixture.call");
    pool = cps::experiments::extra_fleet(kExtraPoolSize, kExtraPoolSeed);
  }
  for (const auto& app : *pool) inputs.pool.push_back(fitted_tent(app));

  const cps::flexray::FlexRayConfig base;
  for (std::size_t ci = 0; ci < kCycleCount; ++ci) {
    cps::flexray::FlexRayConfig config = base;
    config.cycle_length = base.cycle_length * kCycleFactors[ci];
    config.static_slot_count = kSlotCounts[kSlotConfigCount - 1];
    config.validate();
    inputs.cycles.push_back(config.cycle_length);
    std::vector<AppSchedParams> set;
    for (const auto& tent : paper) set.push_back(quantized_app(tent, config.cycle_length));
    inputs.paper_sets.push_back(std::move(set));
  }
  return inputs;
}

struct Cell {
  int n_apps = 0;
  bool feasible = false;
  bool valid = true;  ///< output check verdict (verification pass only)
  std::size_t first_fit = 0, best_fit = 0, optimal = 0;
  bool fits_static = false;
  double seconds = 0.0;
};

struct Workspace {
  std::vector<AppSchedParams> apps;
};

/// One sweep over the grid.  With `verify` every allocation is checked
/// (partition, analyze_slot re-pass, optimum <= heuristics) in the body.
std::vector<Cell> run_grid(const GridInputs& in, const RunOptions& options, bool verify,
                           std::uint32_t& sweep_id) {
  ScopedSpan sweep("runtime.sweep");
  sweep_id = sweep.id();
  cps::runtime::SweepRunner runner({options.jobs, options.seed});
  return runner.run_with_workspace<Workspace>(
      kPoints, [&in, verify, id = sweep.id()](std::size_t index, cps::Rng& rng, Workspace& ws) {
        ScopedSpan task("runtime.task", id);
        const auto start = Clock::now();
        const std::size_t ci = index / (kSlotConfigCount * kTrials);
        const std::size_t si = (index / kTrials) % kSlotConfigCount;
        const std::size_t trial = index % kTrials;
        const double cycle = in.cycles[ci];
        auto& apps = ws.apps;
        apps.assign(in.paper_sets[ci].begin(), in.paper_sets[ci].end());
        const int extras = kMinExtraApps + static_cast<int>(trial % kExtraAppSpread);
        for (int e = 0; e < extras; ++e) {
          Tent tent = in.pool[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(in.pool.size()) - 1))];
          tent.r = tent.xi_m * rng.uniform(2.0, 8.0);
          tent.deadline = std::min(tent.r, rng.uniform(0.15, 0.5) * tent.xi_et);
          apps.push_back(quantized_app(tent, cycle));
        }
        Cell cell;
        cell.n_apps = static_cast<int>(apps.size());
        try {
          cps::analysis::Allocation ff, bf, opt;
          {
            ScopedSpan span("analysis.ff");
            ff = cps::analysis::first_fit_allocate(apps);
          }
          {
            ScopedSpan span("analysis.bf");
            bf = cps::analysis::best_fit_allocate(apps);
          }
          {
            ScopedSpan span("analysis.exact");
            opt = cps::analysis::optimal_allocate(apps);
          }
          cell.first_fit = ff.slot_count();
          cell.best_fit = bf.slot_count();
          cell.optimal = opt.slot_count();
          cell.feasible = true;
          cell.fits_static = cell.optimal <= kSlotCounts[si];
          if (verify)
            cell.valid = valid_allocation(apps, ff) && valid_allocation(apps, bf) &&
                         valid_allocation(apps, opt) &&
                         cell.optimal <= std::min(cell.first_fit, cell.best_fit);
        } catch (const cps::InfeasibleError&) {
          // Unallocatable even on dedicated slots: a domain answer.
        }
        cell.seconds = seconds_since(start);
        return cell;
      });
}

std::uint64_t digest_of(const std::vector<Cell>& cells) {
  Digest digest;
  for (const auto& cell : cells)
    digest.add(static_cast<std::uint64_t>(cell.n_apps))
        .add(static_cast<std::uint64_t>(cell.feasible))
        .add(static_cast<std::uint64_t>(cell.first_fit))
        .add(static_cast<std::uint64_t>(cell.best_fit))
        .add(static_cast<std::uint64_t>(cell.optimal))
        .add(static_cast<std::uint64_t>(cell.fits_static));
  return digest.value();
}

/// sweep_flexray_params.csv, formatted as cps_run writes it.
void write_csv(const std::string& dir, const GridInputs& in, const std::vector<Cell>& cells) {
  cps::CsvWriter csv(dir + "/sweep_flexray_params.csv",
                     {"index", "cycle_ms", "static_slots", "n_apps", "feasible", "first_fit",
                      "best_fit", "optimal", "fits_static_segment"});
  for (std::size_t index = 0; index < cells.size(); ++index) {
    const auto& cell = cells[index];
    csv.write_row(std::vector<std::string>{
        std::to_string(index),
        cps::format_fixed(in.cycles[index / (kSlotConfigCount * kTrials)] * 1e3, 3),
        std::to_string(kSlotCounts[(index / kTrials) % kSlotConfigCount]),
        std::to_string(cell.n_apps), cell.feasible ? "1" : "0", std::to_string(cell.first_fit),
        std::to_string(cell.best_fit), std::to_string(cell.optimal),
        cell.fits_static ? "1" : "0"});
  }
}

}  // namespace

Report run_flexray_grid(const RunOptions& options) {
  Report report;
  auto& cache = cps::runtime::FixtureCache::instance();
  // Set-up runs kSetups times here and again before every untraced
  // repetition, and setup_s is the median of all of them.  The phase is
  // single-threaded and short (about 25 ms), and on a shared host it read
  // either about 24 ms or about 35 ms depending on the moment: samples
  // spread over the whole run steady the median where a burst at the
  // start did not.
  constexpr int kSetups = 3;
  GridInputs inputs;
  std::vector<double> setups;
  const auto set_up = [&] {
    const auto start = Clock::now();
    cache.clear();
    inputs = fixture_phase();
    setups.push_back(seconds_since(start));
  };
  trace::set_enabled(options.trace);
  const auto before = cache.stats();
  for (int i = 0; i < kSetups; ++i) set_up();
  const auto after = cache.stats();
  trace::set_enabled(false);
  const auto setup_spans = trace::spans();
  trace::reset();

  std::optional<std::uint64_t> first_digest;
  Samples samples;
  std::vector<std::uint32_t> sweep_ids;
  const auto sweep = [&] {
    std::uint32_t sweep_id = 0;
    const auto cells = run_grid(inputs, options, false, sweep_id);
    sweep_ids.push_back(sweep_id);
    for (const auto& cell : cells) samples.add(cell.seconds);
    report.attempted += cells.size();
    const auto digest = digest_of(cells);
    if (!first_digest) first_digest = digest;
    report.check(digest == *first_digest, "flexray_grid: a repetition differs from the first");
  };
  const double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> walls;
  repeat_for(untraced_budget, 3, [&](int) {
    set_up();
    const auto start = Clock::now();
    sweep();
    walls.push_back(seconds_since(start));
  });
  const double setup_s = median(setups);
  const Summary ops = summarize(samples.values());

  std::vector<double> traced_walls;
  if (options.trace) {
    trace::set_enabled(true);
    sweep_ids.clear();
    traced_walls = repeat_for(options.seconds / 2, 3, [&](int) { sweep(); });
    trace::set_enabled(false);
  }
  const auto spans = trace::spans();

  // Output checks, outside the timed phase: one verification sweep.
  std::uint32_t unused = 0;
  const auto verified = run_grid(inputs, options, true, unused);
  std::size_t invalid = 0;
  for (const auto& cell : verified)
    if (!cell.valid) ++invalid;
  report.check(invalid == 0, "flexray_grid: " + std::to_string(invalid) +
                                 " grid points returned an invalid allocation");
  report.check(digest_of(verified) == *first_digest,
               "flexray_grid: the verification sweep differs from the timed ones");
  check_recorded_digest(report, "flexray_grid", options.seed, *first_digest);
  if (!options.csv_dir.empty()) write_csv(options.csv_dir, inputs, verified);

  if (!options.trace) {
    add_end_to_end(report, setup_s, walls, ops, static_cast<double>(report.attempted));
    return report;
  }

  std::size_t improved = 0, feasible = 0;
  for (const auto& cell : verified) {
    if (!cell.feasible) continue;
    ++feasible;
    if (cell.optimal < cell.first_fit) ++improved;
  }
  add_sweep_layers(report, spans, sweep_ids, options.jobs);
  add_allocator_layers(report, spans, static_cast<double>(traced_walls.size()), improved,
                       feasible);
  report.metric("analysis.fit_busy_s", busy(setup_spans, "analysis.fit") / kSetups, "s");
  report.metric("fixture.hits", static_cast<double>(after.hits - before.hits) / kSetups,
                "count");
  report.metric("fixture.misses", static_cast<double>(after.misses - before.misses) / kSetups,
                "count");
  report.metric("fixture.entries", static_cast<double>(after.entries), "count");
  report.metric("fixture.miss_busy_s", busy(setup_spans, "fixture.call") / kSetups, "s");
  report.metric("trace.overhead_pct", overhead_pct(median(traced_walls), median(walls)), "%");
  return report;
}

}  // namespace e2e
