// Microbenchmarks for the Figure 3 kernels: the dwell/wait sweep (the
// kernel every application characterization runs) and the servo two-mode
// loop design.  The figure itself is produced by `cps_run fig3`
// (src/experiments/fig3_dwell_wait.cpp).
//
// The sweep benches time the exact entry points the experiments use:
// sim::measure_dwell_wait_curve is the optimized incremental kernel the
// fixtures call into, measure_dwell_wait_curve_reference is the frozen
// pre-optimization kernel, and experiments::measure_servo_curve is the
// cached fixture path.  Kernel iterations are timed manually on
// std::chrono::steady_clock (monotonic) and reported as ns/op.
#include "bench_common.hpp"

#include <chrono>

#include "experiments/fixtures.hpp"
#include "oracles/reference.hpp"
#include "plants/servo_motor.hpp"
#include "sim/dwell_wait.hpp"
#include "sim/switched_system.hpp"

namespace {

using namespace cps;

/// Shared setup: the servo switched system and sweep options of Fig. 3.
struct ServoSweepSetup {
  ServoSweepSetup()
      : design(plants::design_servo_loops()),
        sys(design.a_et, design.a_tt, design.state_dim),
        x0(plants::servo_disturbed_state()) {
    opts.settling.threshold = plants::ServoExperiment{}.threshold;
  }
  control::HybridLoopDesign design;
  sim::SwitchedLinearSystem sys;
  linalg::Vector x0;
  sim::DwellWaitSweepOptions opts;
  double h = plants::ServoExperiment{}.sampling_period;
};

template <typename Kernel>
void time_sweep(benchmark::State& state, Kernel kernel) {
  const ServoSweepSetup setup;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto curve = kernel(setup.sys, setup.x0, setup.h, setup.opts);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    benchmark::DoNotOptimize(curve);
  }
}

void bm_servo_curve_sweep(benchmark::State& state) {
  // Disambiguate: measure_dwell_wait_curve gained a workspace overload.
  time_sweep(state, [](const sim::SwitchedLinearSystem& sys, const linalg::Vector& x0,
                       double h, const sim::DwellWaitSweepOptions& opts) {
    return sim::measure_dwell_wait_curve(sys, x0, h, opts);
  });
}
BENCHMARK(bm_servo_curve_sweep)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_servo_curve_sweep_workspace(benchmark::State& state) {
  // The batched-sweep path: one worker measuring curves back to back on
  // a reused DwellWaitWorkspace (what SweepRunner's per-worker workspace
  // threading does).  Bit-identical curve, no per-call scratch setup.
  const ServoSweepSetup setup;
  sim::DwellWaitWorkspace workspace;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    auto curve = sim::measure_dwell_wait_curve(setup.sys, setup.x0, setup.h, setup.opts,
                                               workspace);
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(bm_servo_curve_sweep_workspace)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_servo_curve_sweep_reference(benchmark::State& state) {
  time_sweep(state, sim::measure_dwell_wait_curve_reference);
}
BENCHMARK(bm_servo_curve_sweep_reference)->UseManualTime()->Unit(benchmark::kNanosecond);

void bm_servo_curve_fixture_cached(benchmark::State& state) {
  // First call computes and populates the FixtureCache; the loop then
  // times the hit path every experiment after the first pays.
  benchmark::DoNotOptimize(experiments::measure_servo_curve());
  for (auto _ : state) {
    auto curve = experiments::measure_servo_curve();
    benchmark::DoNotOptimize(curve);
  }
}
BENCHMARK(bm_servo_curve_fixture_cached)->Unit(benchmark::kNanosecond);

void bm_servo_loop_design(benchmark::State& state) {
  for (auto _ : state) {
    auto design = plants::design_servo_loops();
    benchmark::DoNotOptimize(design);
  }
}
BENCHMARK(bm_servo_loop_design)->Unit(benchmark::kNanosecond);

}  // namespace

CPS_BENCHMARK_MAIN();
