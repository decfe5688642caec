// Unit tests for the core module: ControlApplication, the multi-app
// co-simulation (Fig. 1 state machine), the pipeline and the reports.
#include <gtest/gtest.h>

#include <cmath>

#include "core/application.hpp"
#include "core/co_simulation.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "plants/second_order.hpp"
#include "plants/servo_motor.hpp"
#include "util/error.hpp"

namespace {

using namespace cps;
using namespace cps::core;

ControlApplication make_servo_app(const std::string& name, double r, double deadline) {
  auto design = plants::design_servo_loops();
  TimingRequirements req{r, deadline, 0.1};
  const plants::ServoExperiment exp;
  return ControlApplication(name, std::move(design), req,
                            linalg::Vector{exp.disturbance_angle, 0.0});
}

TEST(ApplicationTest, ConstructionValidation) {
  auto design = plants::design_servo_loops();
  const linalg::Vector x0{0.5, 0.0};
  EXPECT_THROW(ControlApplication("", design, {10.0, 5.0, 0.1}, x0), InvalidArgument);
  EXPECT_THROW(ControlApplication("a", design, {10.0, 5.0, 0.1}, linalg::Vector{0.5}),
               InvalidArgument);
  // The paper assumes deadline <= inter-arrival time.
  EXPECT_THROW(ControlApplication("a", design, {5.0, 10.0, 0.1}, x0), InvalidArgument);
  EXPECT_THROW(ControlApplication("a", design, {10.0, 5.0, -0.1}, x0), InvalidArgument);
}

TEST(ApplicationTest, DisturbedStateIsAugmentedWithZeroHeldInput) {
  const auto app = make_servo_app("A", 10.0, 5.0);
  EXPECT_EQ(app.disturbed_state().size(), 3u);
  EXPECT_DOUBLE_EQ(app.disturbed_state()[2], 0.0);
}

TEST(ApplicationTest, CurveMeasurementIsCached) {
  auto app = make_servo_app("A", 10.0, 5.0);
  const auto& c1 = app.measure_curve();
  const auto& c2 = app.measure_curve();
  EXPECT_EQ(&c1, &c2);
  EXPECT_TRUE(app.curve().has_value());
}

TEST(ApplicationTest, SchedParamsRequireModel) {
  auto app = make_servo_app("A", 10.0, 5.0);
  EXPECT_THROW(app.sched_params(), InvalidArgument);
  app.fit_model(ControlApplication::ModelKind::kNonMonotonic);
  const auto params = app.sched_params();
  EXPECT_EQ(params.name, "A");
  EXPECT_DOUBLE_EQ(params.deadline, 5.0);
  ASSERT_NE(params.model, nullptr);
  EXPECT_GT(params.model->max_dwell(), 0.0);
}

TEST(ApplicationTest, AllModelKindsFitAndDominate) {
  auto app = make_servo_app("A", 10.0, 5.0);
  using MK = ControlApplication::ModelKind;
  for (MK kind : {MK::kNonMonotonic, MK::kConservativeMonotonic, MK::kConcave}) {
    const auto model = app.fit_model(kind);
    ASSERT_NE(model, nullptr);
    EXPECT_TRUE(model->dominates(*app.curve(), 1e-9)) << model->name();
  }
  // The simple monotonic fit exists but is allowed to violate.
  EXPECT_NE(app.fit_model(MK::kSimpleMonotonic), nullptr);
}

TEST(CoSimTest, SingleAppSettlesNearPureTtTime) {
  // Alone on its slot with a disturbance at t = 0 the app is granted TT
  // immediately and settles in ~xi_tt.
  auto app = make_servo_app("solo", 10.0, 5.0);
  CoSimulationOptions options;
  options.horizon = 6.0;
  CoSimulator cosim(options);
  cosim.add_application(app, 0, {0.0});
  const auto result = cosim.run();
  ASSERT_EQ(result.apps.size(), 1u);
  EXPECT_TRUE(result.apps[0].all_deadlines_met);
  EXPECT_NEAR(result.apps[0].worst_response, 0.68, 0.05);
  // The transient must have used the TT slot.
  bool used_tt = false;
  for (const auto& s : result.apps[0].trajectory.samples())
    if (s.mode == sim::Mode::kTimeTriggered) used_tt = true;
  EXPECT_TRUE(used_tt);
}

TEST(CoSimTest, ContendingAppIsDelayedByNonPreemption) {
  // Two identical apps on one slot, simultaneous disturbances: the
  // lower-priority one (longer deadline) must wait and respond later.
  auto hi = make_servo_app("hi", 10.0, 3.0);
  auto lo = make_servo_app("lo", 10.0, 8.0);
  CoSimulationOptions options;
  options.horizon = 9.0;
  CoSimulator cosim(options);
  cosim.add_application(hi, 0, {0.0});
  cosim.add_application(lo, 0, {0.0});
  const auto result = cosim.run();
  const auto& r_hi = result.apps[0];
  const auto& r_lo = result.apps[1];
  EXPECT_LT(r_hi.worst_response, r_lo.worst_response);
  // The high-priority app responds like a solo app.
  EXPECT_NEAR(r_hi.worst_response, 0.68, 0.05);
}

TEST(CoSimTest, SeparateSlotsRemoveTheInterference) {
  auto a = make_servo_app("a", 10.0, 3.0);
  auto b = make_servo_app("b", 10.0, 8.0);
  CoSimulationOptions options;
  options.horizon = 9.0;
  CoSimulator cosim(options);
  cosim.add_application(a, 0, {0.0});
  cosim.add_application(b, 1, {0.0});
  const auto result = cosim.run();
  EXPECT_NEAR(result.apps[0].worst_response, result.apps[1].worst_response, 0.05);
}

TEST(CoSimTest, NoDisturbanceMeansNoTransient) {
  auto app = make_servo_app("quiet", 10.0, 5.0);
  CoSimulationOptions options;
  options.horizon = 2.0;
  CoSimulator cosim(options);
  cosim.add_application(app, 0, {});
  const auto result = cosim.run();
  EXPECT_TRUE(result.apps[0].response_times.empty());
  EXPECT_TRUE(result.apps[0].all_deadlines_met);
  for (const auto& s : result.apps[0].trajectory.samples()) {
    EXPECT_EQ(s.mode, sim::Mode::kEventTriggered);
    EXPECT_NEAR(s.norm, 0.0, 1e-12);
  }
}

TEST(CoSimTest, BusDelaysAreBoundedByWorstCase) {
  auto app = make_servo_app("bus", 10.0, 5.0);
  CoSimulationOptions options;
  options.horizon = 4.0;
  CoSimulator cosim(options);
  cosim.add_application(app, 0, {0.0});
  const auto result = cosim.run();
  // Static: at most one cycle + slot; dynamic: bounded by the analysis.
  EXPECT_GT(result.apps[0].max_tt_delay, 0.0);
  EXPECT_LE(result.apps[0].max_tt_delay, 0.005 + 0.0002 + 1e-12);
  EXPECT_GT(result.apps[0].max_et_delay, 0.0);
  EXPECT_LT(result.apps[0].max_et_delay, 0.02);  // below the control period
}

TEST(CoSimTest, LaterDisturbanceAlsoHandled) {
  auto app = make_servo_app("late", 10.0, 5.0);
  CoSimulationOptions options;
  options.horizon = 10.0;
  CoSimulator cosim(options);
  cosim.add_application(app, 0, {3.0});
  const auto result = cosim.run();
  ASSERT_EQ(result.apps[0].response_times.size(), 1u);
  EXPECT_NEAR(result.apps[0].response_times[0], 0.68, 0.05);
}

TEST(CoSimTest, ValidationErrors) {
  CoSimulationOptions options;
  options.horizon = 2.0;
  CoSimulator cosim(options);
  EXPECT_THROW(cosim.run(), InvalidArgument);  // no apps
  auto app = make_servo_app("v", 10.0, 5.0);
  EXPECT_THROW(cosim.add_application(app, 0, {5.0}), InvalidArgument);  // beyond horizon
}

TEST(PipelineTest, ServoPairEndToEnd) {
  HybridCommDesign design;
  design.add_application(make_servo_app("A1", 10.0, 3.0));
  design.add_application(make_servo_app("A2", 10.0, 8.0));
  PipelineOptions options;
  options.cosim.horizon = 10.0;
  const PipelineResult result = design.run(options);
  ASSERT_EQ(result.summaries.size(), 2u);
  EXPECT_TRUE(result.summaries[0].curve_non_monotonic);
  EXPECT_GE(result.slot_count(), 1u);
  ASSERT_TRUE(result.verification.has_value());
  EXPECT_TRUE(result.verification->all_deadlines_met);
}

TEST(PipelineTest, EmptyPipelineThrows) {
  HybridCommDesign design;
  EXPECT_THROW(design.run(), InvalidArgument);
}

TEST(ReportTest, RenderingsContainTheKeyFigures) {
  HybridCommDesign design;
  design.add_application(make_servo_app("A1", 10.0, 3.0));
  design.add_application(make_servo_app("A2", 10.0, 8.0));
  PipelineOptions options;
  options.cosim.horizon = 10.0;
  const PipelineResult result = design.run(options);

  const std::string summaries = render_summaries(result.summaries);
  EXPECT_NE(summaries.find("A1"), std::string::npos);
  EXPECT_NE(summaries.find("xi_TT"), std::string::npos);

  const std::string alloc = render_allocation(result.allocation);
  EXPECT_NE(alloc.find("TT slots required"), std::string::npos);
  EXPECT_NE(alloc.find("S1"), std::string::npos);

  ASSERT_TRUE(result.verification.has_value());
  const std::string cosim = render_cosim(*result.verification);
  EXPECT_NE(cosim.find("worst response"), std::string::npos);

  const std::string ascii =
      render_response_ascii(result.verification->apps[0], 0.1);
  EXPECT_NE(ascii.find("A1"), std::string::npos);
  EXPECT_NE(ascii.find("T"), std::string::npos);  // TT markers present
}

}  // namespace
