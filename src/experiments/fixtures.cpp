#include "experiments/fixtures.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/dwell_wait_model.hpp"
#include "control/loop_design.hpp"
#include "linalg/vector.hpp"
#include "plants/servo_motor.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/sweep_runner.hpp"
#include "sim/switched_system.hpp"

// ---------------------------------------------------------------------------
// Field lists of the stored fixture types: how each persists to the
// on-disk store (`cps_run --fixture-store DIR`).  Every double goes
// through its IEEE-754 bit pattern, so a disk hit is bit-identical to a
// fresh compute and experiment CSVs cannot depend on the store's state.
// Each list is part of a codec's /vN layout (the format tags below):
// change one and bump that tag, so stale files are recomputed instead of
// misread.
namespace cps::util {

template <>
struct Layout<sim::DwellWaitPoint> {
  template <typename Io, typename P>
  static void fields(Io& io, P& p) { io(p.wait_steps, p.dwell_steps, p.wait_s, p.dwell_s); }
};

template <>
struct Layout<plants::AppTimingParams> {
  template <typename Io, typename P>
  static void fields(Io& io, P& p) {
    io(p.name, p.r, p.xi_d, p.xi_tt, p.xi_et, p.xi_m, p.k_p, p.xi_m_mono);
  }
};

template <>
struct Layout<control::PolePlacementLoopSpec> {
  template <typename Io, typename S>
  static void fields(Io& io, S& s) {
    io(s.sampling_period, s.delay_tt, s.delay_et, s.poles_tt, s.poles_et);
  }
};

template <>
struct Layout<plants::SynthesizedSchedApp> {
  template <typename Io, typename A>
  static void fields(Io& io, A& a) {
    io(a.name, a.family, a.r, a.deadline, a.xi_tt, a.xi_m, a.k_p, a.xi_et);
  }
};

template <>
struct Layout<plants::SchedFleet> {
  template <typename Io, typename F>
  static void fields(Io& io, F& f) {
    io(f.target_utilization, f.achieved_utilization, f.apps);
  }
};

// The types below check invariants in their constructors (or hold one
// that does): written through their accessors, read back through it.

template <>
struct Layout<sim::DwellWaitCurve> {
  static void write(BinaryWriter& out, const sim::DwellWaitCurve& c) {
    out(c.sampling_period(), c.points());
  }
  static sim::DwellWaitCurve read(BinaryReader& in) {
    return {in.read<double>(), in.read<std::vector<sim::DwellWaitPoint>>()};
  }
};

template <>
struct Layout<control::StateSpace> {
  static void write(BinaryWriter& out, const control::StateSpace& s) {
    out(s.a(), s.b(), s.c(), s.d());
  }
  static control::StateSpace read(BinaryReader& in) {
    using linalg::Matrix;
    return {in.read<Matrix>(), in.read<Matrix>(), in.read<Matrix>(), in.read<Matrix>()};
  }
};

template <>
struct Layout<control::DiscreteSystem> {
  static void write(BinaryWriter& out, const control::DiscreteSystem& s) {
    out(s.phi(), s.gamma0(), s.gamma1(), s.c(), s.sampling_period(), s.delay());
  }
  static control::DiscreteSystem read(BinaryReader& in) {
    using linalg::Matrix;
    return {in.read<Matrix>(), in.read<Matrix>(), in.read<Matrix>(),
            in.read<Matrix>(), in.read<double>(), in.read<double>()};
  }
};

template <>
struct Layout<control::HybridLoopDesign> {
  static void write(BinaryWriter& out, const control::HybridLoopDesign& d) {
    out(d.sys_tt, d.sys_et, d.gain_tt, d.gain_et, d.a_tt, d.a_et, d.state_dim, d.input_dim,
        d.rho_tt, d.rho_et);
  }
  static control::HybridLoopDesign read(BinaryReader& in) {
    using control::DiscreteSystem;
    using linalg::Matrix;
    return {in.read<DiscreteSystem>(), in.read<DiscreteSystem>(), in.read<Matrix>(),
            in.read<Matrix>(),         in.read<Matrix>(),         in.read<Matrix>(),
            in.read<std::size_t>(),    in.read<std::size_t>(),    in.read<double>(),
            in.read<double>()};
  }
};

template <>
struct Layout<plants::SynthesizedApp> {
  static void write(BinaryWriter& out, const plants::SynthesizedApp& app) {
    out(app.family, app.target, app.plant, app.spec, app.x0, app.threshold);
  }
  static plants::SynthesizedApp read(BinaryReader& in) {
    const auto family = in.read<plants::PlantFamily>();
    return {in.read<plants::AppTimingParams>(), in.read<control::StateSpace>(),
            in.read<control::PolePlacementLoopSpec>(), in.read<linalg::Vector>(),
            in.read<double>(), family};
  }
};

}  // namespace cps::util

namespace cps::experiments {

namespace {

using runtime::FixtureHandle;
using runtime::FixtureKey;

// Store format tags of the cached fixtures.  /v2 of the fleet: every
// application carries its PlantFamily (the extra-fleet pool spans three
// families); stale /v1 files recompute instead of misread.
constexpr char kDesignFormat[] = "hybrid_design/v1";
constexpr char kCurveFormat[] = "dwell_wait_curve/v1";
constexpr char kFleetFormat[] = "fleet_synthesis/v2";
constexpr char kSchedFleetBatchFormat[] = "sched_fleet_batch/v1";

/// Content key of a pole-placement design problem: the continuous plant
/// plus every spec field that shapes the two closed loops.
FixtureKey design_key(const control::StateSpace& plant,
                      const control::PolePlacementLoopSpec& spec) {
  FixtureKey key("hybrid_design");
  key.add(plant.a()).add(plant.b()).add(plant.c()).add(plant.d());
  key.add(spec.sampling_period).add(spec.delay_tt).add(spec.delay_et);
  for (const auto& p : spec.poles_tt) key.add(p.real()).add(p.imag());
  for (const auto& p : spec.poles_et) key.add(p.real()).add(p.imag());
  key.add(std::uint64_t{spec.poles_tt.size()}).add(std::uint64_t{spec.poles_et.size()});
  return key;
}

/// Design the two-mode loops for (plant, spec) once and share the result.
std::shared_ptr<const control::HybridLoopDesign> cached_design(
    const control::StateSpace& plant, const control::PolePlacementLoopSpec& spec) {
  return FixtureHandle<control::HybridLoopDesign>(design_key(plant, spec))
      .with_codec(kDesignFormat)
      .get([&] { return control::design_hybrid_loops(plant, spec); });
}

/// Measure the dwell/wait curve of a designed application once and share
/// it.  The key is the exact sweep input: both closed loops, the norm
/// dimension, the disturbed (augmented) state, the sampling period and
/// the settling threshold.
std::shared_ptr<const sim::DwellWaitCurve> cached_curve(const control::HybridLoopDesign& design,
                                                        const linalg::Vector& x0_aug,
                                                        double threshold) {
  FixtureKey key("dwell_wait_curve");
  key.add(design.a_et).add(design.a_tt).add(std::uint64_t{design.state_dim});
  key.add(x0_aug).add(design.sys_tt.sampling_period()).add(threshold);
  return FixtureHandle<sim::DwellWaitCurve>(key).with_codec(kCurveFormat).get([&] {
    sim::SwitchedLinearSystem sys(design.a_et, design.a_tt, design.state_dim);
    sim::DwellWaitSweepOptions opts;
    opts.settling.threshold = threshold;
    return sim::measure_dwell_wait_curve(sys, x0_aug, design.sys_tt.sampling_period(), opts);
  });
}

}  // namespace

std::shared_ptr<const sim::DwellWaitCurve> measure_servo_curve() {
  const plants::ServoExperiment exp;
  const auto design = cached_design(plants::make_servo_motor(), plants::servo_pole_spec(exp));
  return cached_curve(*design, plants::servo_disturbed_state(exp), exp.threshold);
}

std::shared_ptr<const sim::DwellWaitCurve> measure_synthesized_curve(
    const plants::SynthesizedApp& app) {
  const auto design = cached_design(app.plant, app.spec);
  const auto x0 = linalg::Vector::concat(app.x0, linalg::Vector::zero(design->input_dim));
  return cached_curve(*design, x0, app.threshold);
}

std::shared_ptr<const std::vector<plants::SynthesizedApp>> paper_fleet() {
  // Nullary synthesis: the content is the (versioned) recipe itself.
  return FixtureHandle<std::vector<plants::SynthesizedApp>>("fleet_synthesis/table1-v1")
      .with_codec(kFleetFormat)
      .get([] { return plants::synthesize_fleet(); });
}

std::shared_ptr<const std::vector<plants::SynthesizedApp>> extra_fleet(std::size_t count,
                                                                       std::uint64_t seed) {
  FixtureKey key("fleet_synthesis");
  key.add("extras-v1").add(std::uint64_t{count}).add(seed);
  return FixtureHandle<std::vector<plants::SynthesizedApp>>(key)
      .with_codec(kFleetFormat)
      .get([&] { return plants::synthesize_extra_fleet(count, seed); });
}

std::shared_ptr<const std::vector<plants::SchedFleet>> sched_fleet_batch(
    const plants::FleetSynthesisSpec& spec, std::size_t trials, std::uint64_t batch_seed) {
  // Content key: every generator knob plus the batch shape.  Values come
  // from the (typed) campaign spec, so TOML key order, comments and
  // formatting never reach the key — only VALUES do.
  FixtureKey key("sched_fleet_batch");
  key.add(std::uint64_t{spec.n_apps})
      .add(spec.target_utilization)
      .add(spec.max_app_utilization)
      .add(spec.period_lo)
      .add(spec.period_hi)
      .add(spec.deadline_frac_lo)
      .add(spec.deadline_frac_hi);
  key.add(std::uint64_t{spec.families.size()});
  for (const auto family : spec.families) key.add(std::string_view(plants::family_name(family)));
  key.add(std::uint64_t{trials}).add(batch_seed);
  return FixtureHandle<std::vector<plants::SchedFleet>>(key)
      .with_codec(kSchedFleetBatchFormat)
      .get([&] {
        std::vector<plants::SchedFleet> batch;
        batch.reserve(trials);
        for (std::size_t t = 0; t < trials; ++t)
          batch.push_back(
              plants::synthesize_sched_fleet(spec, runtime::task_seed(batch_seed, t)));
        return batch;
      });
}

std::shared_ptr<const control::HybridLoopDesign> paper_loop_design(std::size_t index) {
  const auto fleet = paper_fleet();
  CPS_ENSURE(index < fleet->size(),
             "paper_loop_design: index past the synthesized fleet");
  const auto& item = (*fleet)[index];
  return cached_design(item.plant, item.spec);
}

std::vector<core::ControlApplication> build_paper_fleet() {
  std::vector<core::ControlApplication> apps;
  const auto fleet = paper_fleet();
  apps.reserve(fleet->size());
  for (const auto& item : *fleet) {
    const auto design = cached_design(item.plant, item.spec);
    core::TimingRequirements req{item.target.r, item.target.xi_d, item.threshold};
    apps.emplace_back(item.target.name, *design, req, item.x0);
  }
  return apps;
}

std::vector<core::ControlApplication> build_paper_fleet_with_curves() {
  auto apps = build_paper_fleet();
  const auto fleet = paper_fleet();
  for (std::size_t i = 0; i < apps.size(); ++i)
    apps[i].set_curve(*measure_synthesized_curve((*fleet)[i]));
  return apps;
}

std::size_t paper_slot_of(const std::string& name) {
  if (name == "C3" || name == "C6") return 0;
  if (name == "C2" || name == "C4") return 1;
  return 2;  // C5, C1
}

std::vector<analysis::AppSchedParams> paper_sched_params(bool monotonic) {
  std::vector<analysis::AppSchedParams> apps;
  for (const auto& row : plants::paper_values()) {
    analysis::AppSchedParams app;
    app.name = row.name;
    app.min_inter_arrival = row.r;
    app.deadline = row.xi_d;
    if (monotonic)
      app.model =
          std::make_shared<analysis::ConservativeMonotonicModel>(row.xi_m_mono, row.xi_et);
    else
      app.model = std::make_shared<analysis::NonMonotonicModel>(row.xi_tt, row.xi_m, row.k_p,
                                                                row.xi_et);
    apps.push_back(std::move(app));
  }
  return apps;
}

RandomAppRanges allocator_ablation_ranges() {
  RandomAppRanges r;
  r.xi_tt_lo = 0.3, r.xi_tt_hi = 1.5;
  r.xi_m_factor_lo = 1.0, r.xi_m_factor_hi = 1.8;
  r.xi_et_add_lo = 2.0, r.xi_et_add_hi = 6.0;
  r.k_p_frac_lo = 0.05, r.k_p_frac_hi = 0.4;
  r.r_factor_lo = 6.0, r.r_factor_hi = 30.0;
  r.deadline_frac_lo = 0.6, r.deadline_frac_hi = 1.0;
  return r;
}

RandomAppRanges bounds_ablation_ranges() {
  RandomAppRanges r;
  r.xi_tt_lo = 0.3, r.xi_tt_hi = 2.0;
  r.xi_m_factor_lo = 1.0, r.xi_m_factor_hi = 2.0;
  r.xi_et_add_lo = 2.0, r.xi_et_add_hi = 8.0;
  r.k_p_frac_lo = 0.05, r.k_p_frac_hi = 0.5;
  r.r_factor_lo = 5.0, r.r_factor_hi = 40.0;
  r.deadline_frac_lo = 0.8, r.deadline_frac_hi = 1.0;
  return r;
}

const std::vector<AllocProvingInstance>& alloc_proving_instances() {
  static const std::vector<AllocProvingInstance> instances = {
      {14, 0x5EED3606ULL},
      {16, 0x5EED4604ULL},
      {18, 0x5EED6619ULL},
      {20, 0x5EED860DULL},
  };
  return instances;
}

std::vector<analysis::AppSchedParams> alloc_proving_params(const AllocProvingInstance& inst) {
  Rng rng(inst.seed);
  return random_sched_params(rng, inst.n, allocator_ablation_ranges());
}

std::vector<analysis::AppSchedParams> random_sched_params(Rng& rng, int n,
                                                          const RandomAppRanges& ranges) {
  std::vector<analysis::AppSchedParams> apps;
  apps.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const double xi_tt = rng.uniform(ranges.xi_tt_lo, ranges.xi_tt_hi);
    const double xi_m = xi_tt * rng.uniform(ranges.xi_m_factor_lo, ranges.xi_m_factor_hi);
    const double xi_et = xi_m + rng.uniform(ranges.xi_et_add_lo, ranges.xi_et_add_hi);
    const double k_p = rng.uniform(ranges.k_p_frac_lo, ranges.k_p_frac_hi) * xi_et;
    const double r = xi_m * rng.uniform(ranges.r_factor_lo, ranges.r_factor_hi);
    const double deadline =
        std::min(r, rng.uniform(ranges.deadline_frac_lo, ranges.deadline_frac_hi) * xi_et);
    analysis::AppSchedParams app;
    app.name = "A" + std::to_string(i);
    app.min_inter_arrival = r;
    app.deadline = deadline;
    app.model = std::make_shared<analysis::NonMonotonicModel>(xi_tt, xi_m, k_p, xi_et);
    apps.push_back(std::move(app));
  }
  return apps;
}

}  // namespace cps::experiments
