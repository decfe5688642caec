#include "serve/queries.hpp"

#include <chrono>
#include <exception>
#include <thread>

#include "analysis/schedulability.hpp"
#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "plants/fleet_synthesis.hpp"
#include "util/error.hpp"

namespace cps::serve {

namespace {

void check_cancel(const QueryContext& context, const char* what) {
  if (context.cancel != nullptr && context.cancel->load(std::memory_order_relaxed))
    throw CancelledError(what);
}

analysis::MaxWaitMethod method_from(std::uint64_t method) {
  if (method == 0) return analysis::MaxWaitMethod::kClosedFormBound;
  if (method == 1) return analysis::MaxWaitMethod::kFixedPoint;
  throw InvalidArgument("method must be 0 (closed-form bound) or 1 (fixed point)");
}

plants::FleetSynthesisSpec to_spec(const FleetQuery& query) {
  if (query.n_apps > kMaxFleetApps)
    throw InvalidArgument("n_apps must be at most " + std::to_string(kMaxFleetApps));
  plants::FleetSynthesisSpec spec;
  spec.n_apps = static_cast<std::size_t>(query.n_apps);
  spec.target_utilization = query.target_utilization;
  spec.max_app_utilization = query.max_app_utilization;
  spec.period_lo = query.period_lo;
  spec.period_hi = query.period_hi;
  spec.deadline_frac_lo = query.deadline_frac_lo;
  spec.deadline_frac_hi = query.deadline_frac_hi;
  return spec;  // families: generator default (all three, equal weight)
}

/// The warm fleet draw behind kAllocate / kSchedCheck: a one-trial batch
/// through the two-level FixtureCache, so repeated queries for the same
/// (spec, seed) hit memory and restarted daemons hit the store.
std::vector<analysis::AppSchedParams> fleet_params(const FleetQuery& query) {
  const auto batch = experiments::sched_fleet_batch(to_spec(query), 1, query.seed);
  return plants::to_sched_params(batch->front());
}

/// A response payload: the value's field list, written.
template <typename T>
std::string encoded(const T& value) {
  util::BinaryWriter out;
  out(value);
  return out.take();
}

std::string handle_ping(util::BinaryReader& in, const QueryContext& context) {
  auto request = PingRequest::decode(in);
  // Sleep in small slices so a deadline can cut the wait short — this is
  // what makes the overload/deadline tests deterministic without leaning
  // on branch-and-bound runtimes.
  auto remaining = std::chrono::milliseconds(request.sleep_ms);
  while (remaining.count() > 0) {
    check_cancel(context, "ping: sleep cancelled");
    const auto slice = std::min(remaining, std::chrono::milliseconds(2));
    std::this_thread::sleep_for(slice);
    remaining -= slice;
  }
  check_cancel(context, "ping: sleep cancelled");
  return encoded(request);
}

std::string handle_curve(util::BinaryReader& in) {
  in.expect_end();  // kCurve takes no parameters
  const auto curve = experiments::measure_servo_curve();
  CurveResponse response;
  response.sampling_period = curve->sampling_period();
  response.xi_tt = curve->xi_tt();
  response.xi_et = curve->xi_et();
  response.xi_m = curve->xi_m();
  response.k_p = curve->k_p();
  response.n_points = curve->points().size();
  return encoded(response);
}

std::string handle_loop_design(util::BinaryReader& in) {
  const auto request = LoopDesignRequest::decode(in);
  const auto index = static_cast<std::size_t>(request.app_index);
  const auto fleet = experiments::paper_fleet();
  CPS_ENSURE(index < fleet->size(), "loop_design: app_index past the paper fleet");
  const auto design = experiments::paper_loop_design(index);
  LoopDesignResponse response;
  response.name = (*fleet)[index].target.name;
  response.rho_tt = design->rho_tt;
  response.rho_et = design->rho_et;
  response.state_dim = design->state_dim;
  response.input_dim = design->input_dim;
  return encoded(response);
}

std::string handle_allocate(util::BinaryReader& in, const QueryContext& context) {
  const auto request = AllocateRequest::decode(in);
  analysis::AllocationOptions options;
  options.method = method_from(request.method);
  options.max_slots = static_cast<std::size_t>(request.max_slots);
  options.cancel = context.cancel;
  auto params = fleet_params(request.fleet);
  check_cancel(context, "allocate: cancelled before the allocator ran");

  AllocateResponse response;
  try {
    analysis::Allocation allocation;
    switch (static_cast<AllocatorKind>(request.allocator)) {
      case AllocatorKind::kFirstFit:
        allocation = analysis::first_fit_allocate(std::move(params), options);
        break;
      case AllocatorKind::kBestFit:
        allocation = analysis::best_fit_allocate(std::move(params), options);
        break;
      case AllocatorKind::kExact:
        allocation = analysis::optimal_allocate(std::move(params), options);
        break;
      default:
        throw InvalidArgument("allocator must be 0 (ff), 1 (bf) or 2 (exact)");
    }
    response.slot_count = allocation.slot_count();
    response.slots = allocation.slots;
    response.all_schedulable = 1;
    for (const auto& slot_verdict : allocation.analyses)
      if (!slot_verdict.all_schedulable) response.all_schedulable = 0;
  } catch (const InfeasibleError&) {
    // A domain answer (the fleet cannot fit max_slots), not a failure.
    response.feasible = 0;
    response.slot_count = 0;
    response.all_schedulable = 0;
    response.slots.clear();
  }
  return encoded(response);
}

std::string handle_sched_check(util::BinaryReader& in, const QueryContext& context) {
  const auto request = SchedCheckRequest::decode(in);
  const auto method = method_from(request.method);
  auto params = fleet_params(request.fleet);
  check_cancel(context, "sched_check: cancelled before the analysis ran");
  const auto verdict = analysis::analyze_slot(std::move(params), method);
  SchedCheckResponse response;
  response.all_schedulable = verdict.all_schedulable ? 1 : 0;
  response.apps.reserve(verdict.results.size());
  for (const auto& result : verdict.results) {
    SchedCheckResponse::App app;
    app.name = result.name;
    app.response = result.response;
    app.deadline = result.deadline;
    app.schedulable = result.schedulable ? 1 : 0;
    response.apps.push_back(std::move(app));
  }
  return encoded(response);
}

std::string handle_stats(util::BinaryReader& in, const QueryContext& context) {
  in.expect_end();  // kStats takes no parameters
  StatsResponse response;
  if (context.stats) response.counters = context.stats();
  return encoded(response);
}

QueryResult error_result(Status status, std::string_view what) {
  return QueryResult{status, encode_error_payload(what)};
}

}  // namespace

void PingRequest::encode(util::BinaryWriter& out) const { out(*this); }
PingRequest PingRequest::decode(util::BinaryReader& in) { return in.read_all<PingRequest>(); }

void CurveResponse::encode(util::BinaryWriter& out) const { out(*this); }
CurveResponse CurveResponse::decode(util::BinaryReader& in) {
  return in.read_all<CurveResponse>();
}

void LoopDesignRequest::encode(util::BinaryWriter& out) const { out(*this); }
LoopDesignRequest LoopDesignRequest::decode(util::BinaryReader& in) {
  return in.read_all<LoopDesignRequest>();
}

void LoopDesignResponse::encode(util::BinaryWriter& out) const { out(*this); }
LoopDesignResponse LoopDesignResponse::decode(util::BinaryReader& in) {
  return in.read_all<LoopDesignResponse>();
}

void AllocateRequest::encode(util::BinaryWriter& out) const { out(*this); }
AllocateRequest AllocateRequest::decode(util::BinaryReader& in) {
  return in.read_all<AllocateRequest>();
}

void AllocateResponse::encode(util::BinaryWriter& out) const { out(*this); }
AllocateResponse AllocateResponse::decode(util::BinaryReader& in) {
  return in.read_all<AllocateResponse>();
}

void SchedCheckRequest::encode(util::BinaryWriter& out) const { out(*this); }
SchedCheckRequest SchedCheckRequest::decode(util::BinaryReader& in) {
  return in.read_all<SchedCheckRequest>();
}

void SchedCheckResponse::encode(util::BinaryWriter& out) const { out(*this); }
SchedCheckResponse SchedCheckResponse::decode(util::BinaryReader& in) {
  return in.read_all<SchedCheckResponse>();
}

void StatsResponse::encode(util::BinaryWriter& out) const { out(*this); }
StatsResponse StatsResponse::decode(util::BinaryReader& in) {
  return in.read_all<StatsResponse>();
}

QueryResult dispatch(Opcode opcode, std::string_view payload, const QueryContext& context) {
  try {
    util::BinaryReader in(payload);
    std::string response;
    switch (opcode) {
      case Opcode::kPing: response = handle_ping(in, context); break;
      case Opcode::kCurve: response = handle_curve(in); break;
      case Opcode::kLoopDesign: response = handle_loop_design(in); break;
      case Opcode::kAllocate: response = handle_allocate(in, context); break;
      case Opcode::kSchedCheck: response = handle_sched_check(in, context); break;
      case Opcode::kStats: response = handle_stats(in, context); break;
      default:
        return error_result(Status::kBadRequest,
                            "unknown opcode " +
                                std::to_string(static_cast<unsigned>(opcode)));
    }
    return QueryResult{Status::kOk, std::move(response)};
  } catch (const CancelledError& error) {
    return error_result(Status::kDeadlineExceeded, error.what());
  } catch (const util::SerializeError& error) {
    return error_result(Status::kBadRequest, std::string("undecodable payload: ") + error.what());
  } catch (const InvalidArgument& error) {
    return error_result(Status::kBadRequest, error.what());
  } catch (const std::exception& error) {
    return error_result(Status::kInternalError, error.what());
  }
}

std::string encode_error_payload(std::string_view what) { return encoded(what); }

std::string decode_error_payload(std::string_view payload) {
  try {
    util::BinaryReader in(payload);
    return in.read_all<std::string>();
  } catch (const util::SerializeError&) {
    return std::string(payload);  // best effort for malformed error frames
  }
}

}  // namespace cps::serve
