#include "control/loop_design.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "control/pole_placement.hpp"
#include "linalg/eigen.hpp"
#include "linalg/simd_batch.hpp"
#include "util/error.hpp"

namespace cps::control {

linalg::Matrix augment_state_weight(const linalg::Matrix& q, std::size_t input_dim,
                                    double input_weight) {
  CPS_ENSURE(q.is_square(), "augment_state_weight: Q must be square");
  CPS_ENSURE(input_weight >= 0.0, "augment_state_weight: weight must be >= 0");
  const std::size_t n = q.rows();
  linalg::Matrix out(n + input_dim, n + input_dim);
  out.set_block(0, 0, q);
  for (std::size_t i = 0; i < input_dim; ++i) out(n + i, n + i) = input_weight;
  return out;
}

HybridLoopDesign design_hybrid_loops(const StateSpace& plant, const HybridLoopSpec& spec) {
  CPS_ENSURE(spec.sampling_period > 0.0, "design_hybrid_loops: h must be positive");
  CPS_ENSURE(spec.delay_tt >= 0.0 && spec.delay_tt <= spec.sampling_period,
             "design_hybrid_loops: 0 <= d_tt <= h required");
  CPS_ENSURE(spec.delay_et >= 0.0 && spec.delay_et <= spec.sampling_period,
             "design_hybrid_loops: 0 <= d_et <= h required");

  const std::size_t n = plant.state_dim();
  const std::size_t m = plant.input_dim();
  CPS_ENSURE(spec.q_tt.rows() == n && spec.q_tt.cols() == n, "q_tt must be n x n");
  CPS_ENSURE(spec.q_et.rows() == n && spec.q_et.cols() == n, "q_et must be n x n");
  CPS_ENSURE(spec.r_tt.rows() == m && spec.r_tt.cols() == m, "r_tt must be m x m");
  CPS_ENSURE(spec.r_et.rows() == m && spec.r_et.cols() == m, "r_et must be m x m");

  auto [sys_tt, sys_et] =
      c2d_pair(plant, spec.sampling_period, spec.delay_tt, spec.delay_et);

  // Design each mode's LQR on its augmented realization so the gain acts on
  // the common state z = [x; u_prev].
  const auto aug_tt = sys_tt.augmented();
  const auto aug_et = sys_et.augmented();
  const linalg::Matrix q_tt_aug = augment_state_weight(spec.q_tt, m, spec.input_memory_weight);
  const linalg::Matrix q_et_aug = augment_state_weight(spec.q_et, m, spec.input_memory_weight);

  const LqrDesign lqr_tt = dlqr(aug_tt.a, aug_tt.b, q_tt_aug, spec.r_tt);
  const LqrDesign lqr_et = dlqr(aug_et.a, aug_et.b, q_et_aug, spec.r_et);

  HybridLoopDesign out{std::move(sys_tt), std::move(sys_et), lqr_tt.gain, lqr_et.gain,
                       lqr_tt.closed_loop, lqr_et.closed_loop, n, m};
  out.rho_tt = linalg::spectral_radius(out.a_tt);
  out.rho_et = linalg::spectral_radius(out.a_et);
  if (out.rho_tt >= 1.0)
    throw NumericalError("design_hybrid_loops: TT closed loop unstable");
  if (out.rho_et >= 1.0)
    throw NumericalError("design_hybrid_loops: ET closed loop unstable");
  return out;
}

std::vector<std::complex<double>> oscillatory_pole_set(double rho, double theta,
                                                       std::size_t total, double rest) {
  CPS_ENSURE(total >= 2, "oscillatory_pole_set: need at least two poles");
  CPS_ENSURE(rho > 0.0 && rho < 1.0, "oscillatory_pole_set: radius must be in (0, 1)");
  CPS_ENSURE(std::fabs(rest) < 1.0, "oscillatory_pole_set: rest poles must be stable");
  std::vector<std::complex<double>> poles{std::polar(rho, theta), std::polar(rho, -theta)};
  for (std::size_t i = 2; i < total; ++i) poles.emplace_back(rest, 0.0);
  return poles;
}

namespace {

/// Shared back half of the pole-placement design: everything after the
/// discretization, on (sys_tt, sys_et) produced either by the scalar
/// c2d_pair or by one lane of c2d_pair_batch — bit-identical operands
/// either way, so the placed gains and audits are too.
HybridLoopDesign finish_pole_placement_design(const PolePlacementLoopSpec& spec,
                                              DiscreteSystem sys_tt, DiscreteSystem sys_et,
                                              std::size_t n) {
  const auto aug_tt = sys_tt.augmented();
  const auto aug_et = sys_et.augmented();

  const linalg::Matrix k_tt = place_poles(aug_tt.a, aug_tt.b, spec.poles_tt);
  const linalg::Matrix k_et = place_poles(aug_et.a, aug_et.b, spec.poles_et);

  HybridLoopDesign out{std::move(sys_tt),  std::move(sys_et), k_tt, k_et,
                       aug_tt.a - aug_tt.b * k_tt, aug_et.a - aug_et.b * k_et, n, 1};
  out.rho_tt = linalg::spectral_radius(out.a_tt);
  out.rho_et = linalg::spectral_radius(out.a_et);
  if (out.rho_tt >= 1.0)
    throw NumericalError("design_hybrid_loops(poles): TT closed loop unstable");
  if (out.rho_et >= 1.0)
    throw NumericalError("design_hybrid_loops(poles): ET closed loop unstable");
  return out;
}

void validate_pole_placement_inputs(const StateSpace& plant,
                                    const PolePlacementLoopSpec& spec) {
  CPS_ENSURE(plant.input_dim() == 1,
             "pole-placement design supports single-input plants only");
  CPS_ENSURE(spec.sampling_period > 0.0, "design_hybrid_loops: h must be positive");
  CPS_ENSURE(spec.delay_tt >= 0.0 && spec.delay_tt <= spec.sampling_period,
             "design_hybrid_loops: 0 <= d_tt <= h required");
  CPS_ENSURE(spec.delay_et >= 0.0 && spec.delay_et <= spec.sampling_period,
             "design_hybrid_loops: 0 <= d_et <= h required");
  const std::size_t n = plant.state_dim();
  CPS_ENSURE(spec.poles_tt.size() == n + 1, "poles_tt must contain n+1 poles");
  CPS_ENSURE(spec.poles_et.size() == n + 1, "poles_et must contain n+1 poles");
  for (const auto& p : spec.poles_tt)
    CPS_ENSURE(std::abs(p) < 1.0, "poles_tt must lie inside the unit disc");
  for (const auto& p : spec.poles_et)
    CPS_ENSURE(std::abs(p) < 1.0, "poles_et must lie inside the unit disc");
}

}  // namespace

std::vector<HybridLoopDesign> design_hybrid_loops_batch(
    const std::vector<const StateSpace*>& plants,
    const std::vector<const PolePlacementLoopSpec*>& specs) {
  CPS_ENSURE(plants.size() == specs.size(),
             "design_hybrid_loops_batch: plants/specs size mismatch");
  const std::size_t count = plants.size();
  std::vector<std::optional<HybridLoopDesign>> slots(count);
  for (std::size_t i = 0; i < count; ++i) validate_pole_placement_inputs(*plants[i], *specs[i]);

  // Group by plant shape (batch lanes must agree on dimensions), keeping
  // each group's entries in input order; results scatter back by index,
  // so the output order never depends on the grouping.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t lhs, std::size_t rhs) {
    return plants[lhs]->state_dim() < plants[rhs]->state_dim();
  });

  constexpr std::size_t W = linalg::kSimdWidth;
  std::size_t g = 0;
  while (g < count) {
    std::size_t g_end = g + 1;
    while (g_end < count &&
           plants[order[g_end]]->state_dim() == plants[order[g]]->state_dim())
      ++g_end;
    for (std::size_t lo = g; lo < g_end; lo += W) {
      const std::size_t lanes = std::min(W, g_end - lo);
      const StateSpace* lane_plants[W];
      double h[W], d_tt[W], d_et[W];
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t i = order[lo + l];
        lane_plants[l] = plants[i];
        h[l] = specs[i]->sampling_period;
        d_tt[l] = specs[i]->delay_tt;
        d_et[l] = specs[i]->delay_et;
      }
      auto pairs = c2d_pair_batch(lane_plants, h, d_tt, d_et, lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t i = order[lo + l];
        slots[i] = finish_pole_placement_design(*specs[i], std::move(pairs[l].first),
                                                std::move(pairs[l].second),
                                                plants[i]->state_dim());
      }
    }
    g = g_end;
  }
  std::vector<HybridLoopDesign> out;
  out.reserve(count);
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

HybridLoopDesign design_hybrid_loops(const StateSpace& plant,
                                     const PolePlacementLoopSpec& spec) {
  validate_pole_placement_inputs(plant, spec);
  auto [sys_tt, sys_et] =
      c2d_pair(plant, spec.sampling_period, spec.delay_tt, spec.delay_et);
  return finish_pole_placement_design(spec, std::move(sys_tt), std::move(sys_et),
                                      plant.state_dim());
}

}  // namespace cps::control
