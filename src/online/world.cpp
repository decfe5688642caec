#include "online/world.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "runtime/sweep_runner.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"

namespace cps::online {

World::World(ScenarioSpec scenario, std::uint64_t seed, ReallocationPolicy policy)
    : scenario_(std::move(scenario)), seed_(seed), policy_(policy) {
  CPS_ENSURE(scenario_.ticks >= 1 && scenario_.tick_seconds > 0.0,
             "World: scenario must be validated (make_scenario)");
  slot_budget_ = scenario_.slot_budget;

  plants::FleetSynthesisSpec synthesis;
  synthesis.n_apps = scenario_.n_apps;
  synthesis.target_utilization = scenario_.utilization;
  const plants::SchedFleet fleet = plants::synthesize_sched_fleet(synthesis, seed_);
  apps_.reserve(fleet.apps.size());
  for (const auto& app : fleet.apps) add_app(app);

  reallocate_now(nullptr);  // the cold initial allocation ("init" row)
}

void World::add_app(plants::SynthesizedSchedApp params) {
  // The app's private arrival Rng is keyed by (world seed, name hash):
  // stable under fleet churn (joining or removing OTHER apps never
  // perturbs an app's arrival stream).
  const std::uint64_t app_seed = runtime::task_seed(seed_, util::fnv1a64(params.name));
  AppState state{std::move(params), Rng(app_seed), 0.0, 0, 0, false, 0.0};
  // First disturbance: at least one minimum inter-arrival time out, so a
  // joining app never fires mid-tick-0 of its life.
  state.next_arrival =
      sim_time() + state.params.r * (1.0 + state.rng.uniform(0.0, 1.0));
  apps_.push_back(std::move(state));
}

std::vector<std::string> World::app_names() const {
  std::vector<std::string> names;
  names.reserve(apps_.size());
  for (const auto& app : apps_) names.push_back(app.params.name);
  return names;
}

void World::apply_event(const ScenarioEvent& event) {
  const auto find_app = [&](const std::string& name) -> AppState& {
    for (auto& app : apps_)
      if (app.params.name == name) return app;
    throw Error("World: event targets absent app '" + name +
                "' (scenario validation should have caught this)");
  };
  switch (event.kind) {
    case EventKind::kDropSlot:
      if (outage_) break;  // nothing left to lose
      if (slot_budget_ == 0) slot_budget_ = allocation_.slot_count();  // materialize
      if (slot_budget_ <= 1)
        outage_ = true;  // the last slot is gone: total outage (absorbing)
      else
        --slot_budget_;
      break;
    case EventKind::kDropFrames:
      apply_drop_frames(find_app(event.app).params, event.factor);
      break;
    case EventKind::kDelayFrames:
      apply_delay_frames(find_app(event.app).params, event.delay);
      break;
    case EventKind::kDrift:
      apply_drift(find_app(event.app).params, event.factor);
      break;
    case EventKind::kJoin: {
      plants::SynthesizedSchedApp params;
      params.name = event.app;
      params.r = event.r;
      params.deadline = event.deadline;
      params.xi_tt = event.xi_tt;
      params.xi_m = event.xi_m;
      params.k_p = event.k_p;
      params.xi_et = event.xi_et;
      add_app(std::move(params));
      break;
    }
    case EventKind::kLeave: {
      const std::string& name = event.app;
      apps_.erase(std::remove_if(apps_.begin(), apps_.end(),
                                 [&](const AppState& app) { return app.params.name == name; }),
                  apps_.end());
      break;
    }
  }
}

void World::refresh_verdicts() {
  std::map<std::string, const analysis::AppSchedResult*> verdicts;
  for (const auto& slot : allocation_.analyses)
    for (const auto& result : slot.results) verdicts[result.name] = &result;
  for (auto& app : apps_) {
    const auto it = verdicts.find(app.params.name);
    app.schedulable = it != verdicts.end() && it->second->schedulable;
    app.response = it != verdicts.end() ? it->second->response : 0.0;
  }
}

void World::log_row(const std::string& event, const std::string& app,
                    const std::string& detail) {
  log_.push_back({tick_, event, app, allocation_.slot_count(), feasible_, apps_.size(),
                  total_arrivals_, total_misses_, detail});
}

void World::reallocate_now(const ScenarioEvent* trigger) {
  const std::string name = trigger != nullptr ? event_kind_name(trigger->kind) : "init";
  ReallocationReport report;
  if (outage_) {
    // No slots left: nothing to allocate.  Every arrival misses until
    // the scenario ends (drop_slot is absorbing; see apply_event).
    report.slots_before = allocation_.slot_count();
    allocation_ = analysis::Allocation{};
    feasible_ = false;
    report.tick = tick_;
    report.trigger = name;
  } else {
    ReallocationResult result =
        reallocate(fleet_to_params([&] {
                     std::vector<plants::SynthesizedSchedApp> fleet;
                     fleet.reserve(apps_.size());
                     for (const auto& app : apps_) fleet.push_back(app.params);
                     return fleet;
                   }()),
                   allocation_.slots, slot_budget_, policy_);
    allocation_ = std::move(result.allocation);
    feasible_ = result.feasible;
    report = result.report;
    report.tick = tick_;
    report.trigger = name;
  }
  reports_.push_back(report);
  refresh_verdicts();

  // Kind-specific detail, then the re-allocation's warm/gap — all exact
  // integers or shortest-round-trip floats, never wall-clock times (the
  // event log is byte-compared across runs and job counts).
  std::string detail;
  if (trigger != nullptr) {
    switch (trigger->kind) {
      case EventKind::kDropSlot:
        detail = "budget=" + std::string(outage_ ? "0" : std::to_string(slot_budget_));
        break;
      case EventKind::kDropFrames:
      case EventKind::kDrift:
        detail = "factor=" + format_general(trigger->factor);
        break;
      case EventKind::kDelayFrames:
        detail = "delay=" + format_general(trigger->delay);
        break;
      case EventKind::kJoin:
        detail = "r=" + format_general(trigger->r);
        break;
      case EventKind::kLeave:
        break;
    }
  }
  if (!detail.empty()) detail += " ";
  detail += "warm=" + std::to_string(report.warm_incumbent) +
            " gap=" + std::to_string(report.anytime_gap);
  log_row(name, trigger != nullptr ? trigger->app : "", detail);
}

void World::simulate_tick() {
  const double tick_end =
      static_cast<double>(tick_ + 1) * scenario_.tick_seconds;
  for (auto& app : apps_) {
    std::uint64_t missed_this_tick = 0;
    while (app.next_arrival < tick_end) {
      ++app.arrivals;
      ++total_arrivals_;
      if (app.schedulable) {
        // ET/TT switched semantics, analysis-driven: the app spends (at
        // worst) its response time in TT mode handling the disturbance.
        total_tt_seconds_ += app.response;
      } else {
        ++app.misses;
        ++total_misses_;
        ++missed_this_tick;
      }
      app.next_arrival += app.params.r * (1.0 + app.rng.uniform(0.0, 1.0));
    }
    if (missed_this_tick > 0)
      log_row("miss", app.params.name, "count=" + std::to_string(missed_this_tick));
  }
}

std::uint64_t World::advance(std::uint64_t n_ticks) {
  std::uint64_t computed = 0;
  while (computed < n_ticks && tick_ < scenario_.ticks) {
    // Faults fire at the START of their tick, before its arrivals.
    while (next_event_ < scenario_.events.size() &&
           scenario_.events[next_event_].at_tick == tick_) {
      apply_event(scenario_.events[next_event_]);
      reallocate_now(&scenario_.events[next_event_]);
      ++next_event_;
    }
    simulate_tick();
    ++tick_;
    ++computed;
  }
  if (tick_ >= scenario_.ticks && !ended_) {
    ended_ = true;
    log_row("end", "", "tt=" + format_general(total_tt_seconds_));
  }
  return computed;
}

void write_event_log_csv(const std::string& path, const World& world) {
  CsvWriter csv(path, {"tick", "sim_time", "event", "app", "slots", "feasible", "fleet",
                       "arrivals", "misses", "detail"});
  const double dt = world.scenario().tick_seconds;
  for (const auto& row : world.event_log()) {
    csv.write_row(std::vector<std::string>{
        std::to_string(row.tick), format_general(static_cast<double>(row.tick) * dt),
        row.event, row.app, std::to_string(row.slots), row.feasible ? "1" : "0",
        std::to_string(row.fleet), std::to_string(row.arrivals),
        std::to_string(row.misses), row.detail});
  }
}

}  // namespace cps::online
