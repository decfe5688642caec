// fleet_characterize: the paper's first step at scale.  Batches of
// synthesized plants (experiments::extra_fleet, one batch seed per sweep
// index drawn from --seed) fan out over SweepRunner; every plant gets a
// batched loop design, a measured dwell/wait curve, a tent fit and the
// ET transient audit.  Set-up does this once against a fresh
// FixtureStore, clears the cache and reloads every fixture from the
// store, then times cold passes without the store (setup_s); the timed
// repetitions repeat the characterisation on an empty cache.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/dwell_wait_model.hpp"
#include "analysis/transient.hpp"
#include "control/loop_design.hpp"
#include "experiments/fixtures.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/fixture_store.hpp"
#include "runtime/sweep_runner.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using Fleet = std::vector<cps::plants::SynthesizedApp>;

constexpr std::size_t kBatchSize = 4;
constexpr std::size_t kBatches = 96;

void add_matrix(Digest& digest, const cps::linalg::Matrix& m) {
  digest.add(static_cast<std::uint64_t>(m.rows())).add(static_cast<std::uint64_t>(m.cols()));
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) digest.add(m(r, c));
}

void add_fleet(Digest& digest, const Fleet& fleet) {
  for (const auto& app : fleet) {
    const auto& t = app.target;
    digest.add(static_cast<std::uint64_t>(app.family)).add(t.name);
    digest.add(t.r).add(t.xi_d).add(t.xi_tt).add(t.xi_et).add(t.xi_m).add(t.k_p).add(t.xi_m_mono);
    add_matrix(digest, app.plant.a());
    add_matrix(digest, app.plant.b());
    add_matrix(digest, app.plant.c());
    add_matrix(digest, app.plant.d());
    digest.add(app.spec.sampling_period).add(app.spec.delay_tt).add(app.spec.delay_et);
    for (const auto& p : app.spec.poles_tt) digest.add(p.real()).add(p.imag());
    for (const auto& p : app.spec.poles_et) digest.add(p.real()).add(p.imag());
    for (std::size_t i = 0; i < app.x0.size(); ++i) digest.add(app.x0[i]);
    digest.add(app.threshold);
  }
}

void add_curve(Digest& digest, const cps::sim::DwellWaitCurve& curve) {
  digest.add(curve.sampling_period());
  for (const auto& p : curve.points())
    digest.add(static_cast<std::uint64_t>(p.wait_steps))
        .add(static_cast<std::uint64_t>(p.dwell_steps))
        .add(p.wait_s)
        .add(p.dwell_s);
}

void add_design(Digest& digest, const cps::control::HybridLoopDesign& design) {
  add_matrix(digest, design.gain_tt);
  add_matrix(digest, design.gain_et);
  add_matrix(digest, design.a_tt);
  add_matrix(digest, design.a_et);
  digest.add(design.rho_tt).add(design.rho_et);
}

struct BatchResult {
  std::uint64_t fixtures = 0;  ///< fleet + curves: what the store holds
  std::uint64_t derived = 0;   ///< designs, tent fits, transient audits
  std::size_t curve_points = 0;
  double seconds = 0.0;
};

std::uint64_t batch_seed(const RunOptions& options, std::size_t b) {
  return cps::runtime::task_seed(options.seed, b);
}

/// Cold characterisation of every batch (fixtures computed, and written
/// to the store when one is attached).
std::vector<BatchResult> characterize(const RunOptions& options, std::uint32_t& sweep_id) {
  ScopedSpan sweep("runtime.sweep");
  sweep_id = sweep.id();
  cps::runtime::SweepRunner runner({options.jobs, options.seed});
  return runner.run(kBatches, [&options, id = sweep.id()](std::size_t b, cps::Rng&) {
    ScopedSpan task("runtime.task", id);
    const auto start = Clock::now();
    std::shared_ptr<const Fleet> fleet;
    {
      ScopedSpan span("plants.synth");
      fleet = cps::experiments::extra_fleet(kBatchSize, batch_seed(options, b));
    }
    std::vector<const cps::control::StateSpace*> plants;
    std::vector<const cps::control::PolePlacementLoopSpec*> specs;
    for (const auto& app : *fleet) {
      plants.push_back(&app.plant);
      specs.push_back(&app.spec);
    }
    std::vector<cps::control::HybridLoopDesign> designs;
    {
      ScopedSpan span("control.design");
      designs = cps::control::design_hybrid_loops_batch(plants, specs);
    }
    BatchResult result;
    Digest fixtures, derived;
    add_fleet(fixtures, *fleet);
    for (std::size_t k = 0; k < fleet->size(); ++k) {
      std::shared_ptr<const cps::sim::DwellWaitCurve> curve;
      {
        ScopedSpan span("sim.curve");
        curve = cps::experiments::measure_synthesized_curve((*fleet)[k]);
      }
      cps::analysis::TransientGrowth growth;
      {
        ScopedSpan span("analysis.fit");
        const auto model = cps::analysis::NonMonotonicModel::fit(*curve);
        derived.add(model.xi_tt()).add(model.xi_m()).add(model.k_p()).add(model.zero_wait());
      }
      {
        ScopedSpan span("analysis.transient");
        growth = cps::analysis::transient_growth_restricted(designs[k].a_et,
                                                            designs[k].state_dim);
      }
      add_curve(fixtures, *curve);
      add_design(derived, designs[k]);
      derived.add(growth.peak_gain).add(static_cast<std::uint64_t>(growth.peak_step));
      result.curve_points += curve->points().size();
    }
    result.fixtures = fixtures.value();
    result.derived = derived.value();
    result.seconds = seconds_since(start);
    return result;
  });
}

/// Reload every fixture of `characterize` (store disk hits after a
/// cache clear); returns the per-batch fixture digests.
std::vector<std::uint64_t> reload(const RunOptions& options) {
  cps::runtime::SweepRunner runner({options.jobs, options.seed});
  return runner.run(kBatches, [&options](std::size_t b, cps::Rng&) {
    ScopedSpan span("store.load");
    Digest digest;
    const auto fleet = cps::experiments::extra_fleet(kBatchSize, batch_seed(options, b));
    add_fleet(digest, *fleet);
    for (const auto& app : *fleet)
      add_curve(digest, *cps::experiments::measure_synthesized_curve(app));
    return digest.value();
  });
}

/// Batched designs must equal the scalar design of every plant, bit for bit.
bool batch_matches_scalar(const RunOptions& options) {
  for (std::size_t b = 0; b < kBatches; ++b) {
    const auto fleet = cps::experiments::extra_fleet(kBatchSize, batch_seed(options, b));
    std::vector<const cps::control::StateSpace*> plants;
    std::vector<const cps::control::PolePlacementLoopSpec*> specs;
    for (const auto& app : *fleet) {
      plants.push_back(&app.plant);
      specs.push_back(&app.spec);
    }
    const auto batched = cps::control::design_hybrid_loops_batch(plants, specs);
    for (std::size_t k = 0; k < fleet->size(); ++k) {
      Digest a, s;
      add_design(a, batched[k]);
      add_design(s, cps::control::design_hybrid_loops((*fleet)[k].plant, (*fleet)[k].spec));
      if (a.value() != s.value()) return false;
    }
  }
  return true;
}

}  // namespace

Report run_fleet_characterize(const RunOptions& options) {
  Report report;
  auto& cache = cps::runtime::FixtureCache::instance();
  const std::string root = options.work_dir + "/fleet";
  // Set-up, part one: the store pass.  A cold characterisation against a
  // fresh store, a cache clear and a reload of every fixture from the
  // store, which must give the cold bytes back.  It is left out of
  // setup_s and of the timed repetitions: its fsync-bound writes on a
  // shared disk drifted 0.5-0.9 s within minutes; the traced run reports
  // its cost as store.write_busy_s and store.load_busy_s.
  trace::set_enabled(options.trace);
  const auto store = std::make_shared<cps::runtime::FixtureStore>(root + "/store");
  cache.set_store(store);
  cache.clear();
  std::uint32_t store_sweep = 0;
  const auto cold = characterize(options, store_sweep);
  cache.clear();
  const auto reloaded = reload(options);
  cache.set_store(nullptr);
  const auto store_stats = store->stats();
  trace::set_enabled(false);
  const auto store_spans = trace::spans();
  trace::reset();
  report.attempted += kBatches;
  for (std::size_t b = 0; b < kBatches; ++b)
    report.check(reloaded[b] == cold[b].fixtures,
                 "fleet_characterize: batch " + std::to_string(b) +
                     " reloaded from the store differs from the cold fixtures");

  // Set-up, part two (setup_s): cold characterisation without a store,
  // the median of kSetups, each checked against the store pass.
  constexpr int kSetups = 3;
  const double setup_s = median_setup(kSetups, [&] {
    cache.clear();
    std::uint32_t unused = 0;
    const auto results = characterize(options, unused);
    report.attempted += kBatches;
    for (std::size_t b = 0; b < kBatches; ++b)
      report.check(results[b].fixtures == cold[b].fixtures,
                   "fleet_characterize: a set-up pass differs from the store pass");
  });

  // Timed repetitions: the same characterisation on an empty cache.
  Samples samples;
  std::vector<std::uint32_t> sweep_ids;
  std::size_t rep_batches = 0;
  const auto rep = [&](int) {
    cache.clear();
    std::uint32_t sweep_id = 0;
    const auto results = characterize(options, sweep_id);
    sweep_ids.push_back(sweep_id);
    report.attempted += results.size();
    rep_batches += results.size();
    for (std::size_t b = 0; b < kBatches; ++b) {
      samples.add(results[b].seconds);
      report.check(results[b].fixtures == cold[b].fixtures &&
                       results[b].derived == cold[b].derived,
                   "fleet_characterize: a repetition differs from the store passes");
    }
  };
  const double untraced_budget = options.trace ? options.seconds / 2 : options.seconds;
  const auto walls = repeat_for(untraced_budget, 3, rep);
  const auto timed_batches = static_cast<double>(rep_batches);
  const Summary ops = summarize(samples.values());

  std::vector<double> traced_walls;
  const auto before = cache.stats();
  if (options.trace) {
    trace::set_enabled(true);
    sweep_ids.clear();
    traced_walls = repeat_for(options.seconds / 2, 3, rep);
    trace::set_enabled(false);
  }
  const auto after = cache.stats();

  // Output checks, outside the timed phase.
  cache.clear();
  report.check(batch_matches_scalar(options),
               "fleet_characterize: batched loop design differs from the scalar design");
  cache.clear();
  std::filesystem::remove_all(root);
  Digest digest;
  for (const auto& result : cold) digest.add(result.fixtures).add(result.derived);
  check_recorded_digest(report, "fleet_characterize", options.seed, digest.value());

  if (!options.trace) {
    add_end_to_end(report, setup_s, walls, ops, timed_batches);
    return report;
  }

  const auto spans = trace::spans();
  const double reps = static_cast<double>(traced_walls.size());
  const double plants = static_cast<double>(kBatches * kBatchSize);
  std::size_t points = 0;
  for (const auto& result : cold) points += result.curve_points;
  const double synth_s = busy(spans, "plants.synth") / reps;
  const double curve_s = busy(spans, "sim.curve") / reps;
  // A store pass did the same synthesis and curves plus the writes.
  const double write_s =
      busy(store_spans, "plants.synth") + busy(store_spans, "sim.curve") - synth_s - curve_s;
  add_sweep_layers(report, spans, sweep_ids, options.jobs);
  report.metric("plants.synth_busy_s", synth_s, "s");
  report.metric("plants.synth_per_plant_ms", synth_s / plants * 1e3, "ms");
  report.metric("control.design_busy_s", busy(spans, "control.design") / reps, "s");
  report.metric("control.designs", plants, "count");
  report.metric("sim.curve_busy_s", curve_s, "s");
  report.metric("sim.curve_points_per_s",
                curve_s > 0.0 ? static_cast<double>(points) / curve_s : 0.0, "1/s");
  report.metric("analysis.fit_busy_s", busy(spans, "analysis.fit") / reps, "s");
  report.metric("analysis.transient_busy_s", busy(spans, "analysis.transient") / reps, "s");
  report.metric("fixture.hits", static_cast<double>(after.hits - before.hits) / reps, "count");
  report.metric("fixture.misses", static_cast<double>(after.misses - before.misses) / reps,
                "count");
  report.metric("fixture.entries", static_cast<double>(after.entries), "count");
  report.metric("store.writes", static_cast<double>(store_stats.writes), "count");
  report.metric("store.disk_hits", static_cast<double>(store_stats.disk_hits), "count");
  report.metric("store.write_busy_s", std::max(0.0, write_s), "s");
  report.metric("store.load_busy_s", busy(store_spans, "store.load"), "s");
  report.metric("trace.overhead_pct", overhead_pct(median(traced_walls), median(walls)), "%");
  return report;
}

}  // namespace e2e
