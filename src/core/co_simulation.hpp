// Multi-application co-simulation of the dynamic resource allocation
// scheme (paper Fig. 1 state machine, producing Fig. 5).
//
// All applications run with a common sampling period h on a shared FlexRay
// bus.  Per control step:
//   1. disturbances due in this step displace the plant state;
//   2. slot owners back in steady state (||x|| <= E_th) release their slot;
//   3. transient applications (||x|| > E_th) request their allocated slot;
//      the highest-priority requester is granted if the slot is free
//      (non-preemptive: a busy slot is never taken away);
//   4. every application evolves one step under its active mode's closed
//      loop (TT if it holds the slot, ET otherwise) and its control
//      message transits the bus (static slot vs dynamic segment), which
//      the transmission log records.
//
// Response times per disturbance and deadline verdicts are derived from
// the recorded norm trajectories afterwards.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/application.hpp"
#include "flexray/bus.hpp"
#include "sim/switched_system.hpp"

namespace cps::core {

/// Per-application outcome of a co-simulation run.
struct AppCoSimResult {
  std::string name;
  std::size_t slot = 0;                 ///< TT slot the app was allocated to
  sim::Trajectory trajectory;           ///< states, norms and active modes
  std::vector<double> disturbance_times;
  /// Response time of each disturbance [s]: first return of ||x|| to the
  /// threshold after the disturbance (the paper's "system back in steady
  /// state", cf. Fig. 5); +inf when it never settles within the window.
  std::vector<double> response_times;
  bool all_deadlines_met = true;
  double worst_response = 0.0;
  /// Times the norm re-crossed the threshold after first settling (an
  /// oscillatory ET loop can briefly re-leave the steady-state set; the
  /// paper's analysis treats only the first return).
  std::size_t steady_state_excursions = 0;

  /// Observed message delays [s] through the FlexRay model.
  double max_tt_delay = 0.0;
  double max_et_delay = 0.0;
};

/// Who held a TT slot at each control step (Fig. 5's slot-occupancy
/// strips).  `owner[k]` is the index into CoSimulationResult::apps of the
/// holder at step k, or npos when the slot was free.
struct SlotTimeline {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  double sampling_period = 0.0;
  std::vector<std::size_t> owner;

  /// Fraction of steps the slot was held (TT utilization of the slot).
  double occupancy() const;

  /// Number of distinct grant intervals.
  std::size_t grant_count() const;
};

struct CoSimulationResult {
  std::vector<AppCoSimResult> apps;
  std::vector<SlotTimeline> slots;
  bool all_deadlines_met = true;
};

struct CoSimulationOptions {
  double horizon = 12.0;          ///< simulated time [s]
  bool simulate_bus = true;       ///< move messages through the FlexRay model
  flexray::FlexRayConfig bus_config;  ///< defaults mirror the case study
};

/// Co-simulator: register applications with their slot assignment and
/// disturbance schedule, then run.
class CoSimulator {
 public:
  explicit CoSimulator(CoSimulationOptions options = {});

  /// Register an application (not owned; must outlive run()).  `slot` is
  /// the index of the shared TT slot it was allocated to; `disturbances`
  /// are arrival times within the horizon.
  void add_application(const ControlApplication& app, std::size_t slot,
                       std::vector<double> disturbances);

  /// Run the co-simulation; can be called repeatedly (stateless between
  /// runs apart from the options).
  CoSimulationResult run() const;

 private:
  struct Entry {
    const ControlApplication* app;
    std::size_t slot;
    std::vector<double> disturbances;
  };

  CoSimulationOptions options_;
  std::vector<Entry> entries_;
};

}  // namespace cps::core
