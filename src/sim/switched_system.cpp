#include "sim/switched_system.hpp"

#include <cmath>
#include <utility>

#include "linalg/batch_kernels.hpp"
#include "util/error.hpp"

namespace cps::sim {

Trajectory::Trajectory(double sampling_period, std::vector<Sample> samples)
    : h_(sampling_period), samples_(std::move(samples)) {
  CPS_ENSURE(h_ > 0.0, "Trajectory: sampling period must be positive");
}

const Sample& Trajectory::at(std::size_t k) const {
  if (k >= samples_.size()) throw DimensionMismatch("Trajectory: index out of range");
  return samples_[k];
}

double Trajectory::peak_norm() const {
  double best = 0.0;
  for (const auto& s : samples_) best = std::max(best, s.norm);
  return best;
}

SwitchedLinearSystem::SwitchedLinearSystem(linalg::Matrix a_et, linalg::Matrix a_tt,
                                           std::size_t norm_dim)
    : a_et_(std::move(a_et)), a_tt_(std::move(a_tt)), norm_dim_(norm_dim) {
  CPS_ENSURE(a_et_.is_square() && a_tt_.is_square(), "SwitchedLinearSystem: matrices must be square");
  CPS_ENSURE(a_et_.rows() == a_tt_.rows(),
             "SwitchedLinearSystem: A1 and A2 must have equal dimension");
  CPS_ENSURE(norm_dim_ >= 1 && norm_dim_ <= a_et_.rows(),
             "SwitchedLinearSystem: norm_dim out of range");
}

double SwitchedLinearSystem::threshold_norm(const linalg::Vector& state) const {
  CPS_ENSURE(state.size() == dimension(), "threshold_norm: state dimension mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < norm_dim_; ++i) acc += state[i] * state[i];
  return std::sqrt(acc);
}

linalg::Vector SwitchedLinearSystem::step(const linalg::Vector& state, Mode mode) const {
  return mode == Mode::kEventTriggered ? a_et_ * state : a_tt_ * state;
}

Trajectory SwitchedLinearSystem::simulate(const linalg::Vector& x0, std::size_t switch_step,
                                          std::size_t total_steps,
                                          double sampling_period) const {
  CPS_ENSURE(x0.size() == dimension(), "simulate: x0 dimension mismatch");
  std::vector<Sample> samples;
  samples.reserve(total_steps + 1);

  // Double-buffered inner loop on two raw state buffers with pointer
  // swapping: zero per-step allocations, and each Sample is built directly
  // inside the storage reserved above (no temporary + move; inline Vector
  // payload, so the state copy is heap-free too).  The matvec and the
  // threshold norm run the same FP operations in the same order as the
  // frozen simulate_reference (oracles/reference.hpp) — trajectories are
  // bit-identical (tests/sim_golden_test.cpp).
  const std::size_t dim = dimension();
  linalg::Vector xbuf = x0;
  linalg::Vector sbuf(dim);
  double* cur = xbuf.data();
  double* nxt = sbuf.data();
  for (std::size_t k = 0; k <= total_steps; ++k) {
    const Mode mode = k < switch_step ? Mode::kEventTriggered : Mode::kTimeTriggered;
    Sample& sample = samples.emplace_back();
    sample.state.assign(cur, dim);
    double acc = 0.0;
    for (std::size_t i = 0; i < norm_dim_; ++i) acc += cur[i] * cur[i];
    sample.norm = std::sqrt(acc);  // same accumulation as threshold_norm()
    sample.mode = mode;
    if (k == total_steps) break;
    const double* ad =
        (mode == Mode::kEventTriggered ? a_et_ : a_tt_).data();  // same a * x matvec
    for (std::size_t i = 0; i < dim; ++i) {
      double row_acc = 0.0;
      const double* arow = ad + i * dim;
      for (std::size_t j = 0; j < dim; ++j) row_acc += arow[j] * cur[j];
      nxt[i] = row_acc;
    }
    std::swap(cur, nxt);
  }
  return Trajectory(sampling_period, std::move(samples));
}

std::vector<Trajectory> SwitchedLinearSystem::simulate_batch(const linalg::Vector* x0s,
                                                             std::size_t count,
                                                             std::size_t switch_step,
                                                             std::size_t total_steps,
                                                             double sampling_period) const {
  TrajectoryBatchWorkspace workspace;  // cold: every call pays the sample allocations
  return simulate_batch(x0s, count, switch_step, total_steps, sampling_period, workspace);
}

std::vector<Trajectory> SwitchedLinearSystem::simulate_batch(
    const linalg::Vector* x0s, std::size_t count, std::size_t switch_step,
    std::size_t total_steps, double sampling_period, TrajectoryBatchWorkspace& ws) const {
  constexpr std::size_t W = linalg::kSimdWidth;
  CPS_ENSURE(count >= 1 && count <= W, "simulate_batch: count must be in [1, kSimdWidth]");
  for (std::size_t l = 0; l < count; ++l)
    CPS_ENSURE(x0s[l].size() == dimension(), "simulate: x0 dimension mismatch");
  std::vector<Trajectory> out;
  out.reserve(count);
  if (count == 1) {  // scalar fallback: no lanes to share an instruction stream
    out.push_back(simulate(x0s[0], switch_step, total_steps, sampling_period));
    return out;
  }

  // SoA lockstep advance: one W-wide shared-matrix matvec and one W-wide
  // threshold norm per step; every lane performs the scalar simulate()
  // operations in the same order (ragged batches pad by replicating the
  // last initial state — the padding lanes are never recorded).
  const std::size_t dim = dimension();
  linalg::BatchVec& state = ws.state;
  linalg::BatchVec& scratch = ws.scratch;
  state.resize(dim);
  scratch.resize(dim);
  for (std::size_t l = 0; l < W; ++l) state.load_lane(l, x0s[l < count ? l : count - 1].data());

  // Per-lane sample storage comes from the workspace pool (capacity
  // recycled across calls); missing vectors are created cold.
  std::vector<std::vector<Sample>> samples(count);
  for (auto& lane : samples) {
    if (!ws.sample_pool.empty()) {
      lane = std::move(ws.sample_pool.back());
      ws.sample_pool.pop_back();
      lane.clear();
    }
    lane.reserve(total_steps + 1);
  }
  // De-interleave scratch: lane l's state contiguous at [l*dim, (l+1)*dim),
  // so each Sample assign is a straight contiguous copy instead of a
  // strided per-lane gather.
  ws.transposed.resize(count * dim);
  double* transposed = ws.transposed.data();

  for (std::size_t k = 0; k <= total_steps; ++k) {
    const Mode mode = k < switch_step ? Mode::kEventTriggered : Mode::kTimeTriggered;
    linalg::DoubleBatch acc = linalg::DoubleBatch::zero();
    for (std::size_t i = 0; i < norm_dim_; ++i) {
      const linalg::DoubleBatch xi = linalg::DoubleBatch::load(state.at(i));
      acc = linalg::DoubleBatch::multiply_add(xi, xi, acc);
    }
    double norms[W];
    linalg::DoubleBatch::sqrt(acc).store(norms);  // same accumulation + IEEE sqrt
    for (std::size_t i = 0; i < dim; ++i) {
      const double* element = state.at(i);
      for (std::size_t l = 0; l < count; ++l) transposed[l * dim + i] = element[l];
    }
    for (std::size_t l = 0; l < count; ++l) {
      Sample& sample = samples[l].emplace_back();
      sample.state.assign(transposed + l * dim, dim);
      sample.norm = norms[l];
      sample.mode = mode;
    }
    if (k == total_steps) break;
    linalg::batch_apply_shared_into(mode == Mode::kEventTriggered ? a_et_ : a_tt_, state,
                                    scratch);
    state.swap(scratch);
  }
  for (std::size_t l = 0; l < count; ++l)
    out.emplace_back(sampling_period, std::move(samples[l]));
  return out;
}

}  // namespace cps::sim
