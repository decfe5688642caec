// The cps_serve query catalog: per-opcode payload layouts and the one
// dispatcher both the daemon and `cps_query --local` run.
//
// Every payload struct carries one field list, which encode() writes and
// decode() reads back through util/serialize (exact IEEE-754 bit
// round-trips; decode also rejects trailing bytes and any element count
// larger than the payload).  Every handler is a pure function of its request
// payload plus the resident fixture state — so a response computed by
// the daemon is BYTE-IDENTICAL to one computed in-process by the same
// dispatcher (the contract_daemon_local CTest `cmp`s exactly that).  The expensive
// inputs (servo curve, paper fleet, loop designs, synthesized fleets)
// come from the two-level runtime::FixtureCache, which is the point of
// a resident server: the first request pays the compute (or a store
// load), every later one is a memory lookup plus the query itself.
//
// Cancellation: handlers receive a cancel flag and poll it at their
// natural check points (the exact allocator's DFS via
// AllocationOptions::cancel, the ping sleep loop); observing it throws
// cps::CancelledError, which dispatch() maps to
// Status::kDeadlineExceeded.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "util/serialize.hpp"

namespace cps::serve {

/// kPing request: echo plus an optional busy-wait, so load tests can
/// occupy a worker for a deterministic duration (the sleep polls the
/// cancel flag, so a deadline still cuts it short).
struct PingRequest {
  std::string echo;
  std::uint64_t sleep_ms = 0;

  template <typename Io>
  void fields(Io& io) { io(echo, sleep_ms); }
  void encode(util::BinaryWriter& out) const;
  static PingRequest decode(util::BinaryReader& in);
};

/// kCurve response: the characteristic values of the resident servo
/// dwell/wait curve (experiments::measure_servo_curve).
struct CurveResponse {
  double sampling_period = 0.0;
  double xi_tt = 0.0;
  double xi_et = 0.0;
  double xi_m = 0.0;
  double k_p = 0.0;
  std::uint64_t n_points = 0;

  template <typename Io>
  void fields(Io& io) { io(sampling_period, xi_tt, xi_et, xi_m, k_p, n_points); }
  void encode(util::BinaryWriter& out) const;
  static CurveResponse decode(util::BinaryReader& in);
};

/// kLoopDesign request: one paper-fleet application by synthesis index.
struct LoopDesignRequest {
  std::uint64_t app_index = 0;

  template <typename Io>
  void fields(Io& io) { io(app_index); }
  void encode(util::BinaryWriter& out) const;
  static LoopDesignRequest decode(util::BinaryReader& in);
};

/// kLoopDesign response: the design facts of the two-mode controller.
struct LoopDesignResponse {
  std::string name;
  double rho_tt = 0.0;  ///< TT closed-loop spectral radius
  double rho_et = 0.0;  ///< ET closed-loop spectral radius
  std::uint64_t state_dim = 0;
  std::uint64_t input_dim = 0;

  template <typename Io>
  void fields(Io& io) { io(name, rho_tt, rho_et, state_dim, input_dim); }
  void encode(util::BinaryWriter& out) const;
  static LoopDesignResponse decode(util::BinaryReader& in);
};

/// Largest fleet a kAllocate / kSchedCheck query may ask for: the exact
/// allocator's bitmask width.  A larger n_apps answers kBadRequest, so a
/// client cannot make the daemon draw (and cache) an unbounded fleet.
constexpr std::uint64_t kMaxFleetApps = 64;

/// The fleet a kAllocate / kSchedCheck query runs on: the PR-6
/// utilization-controlled generator's knobs plus a seed.  Drawn through
/// experiments::sched_fleet_batch (trials = 1), so the draw is cached in
/// memory AND in the persistent store — re-asking for the same fleet
/// never redraws it.  n_apps is at most kMaxFleetApps.
struct FleetQuery {
  std::uint64_t n_apps = 10;
  double target_utilization = 1.0;
  double max_app_utilization = 0.95;
  double period_lo = 3.0;
  double period_hi = 60.0;
  double deadline_frac_lo = 0.7;
  double deadline_frac_hi = 1.0;
  std::uint64_t seed = 1;

  template <typename Io>
  void fields(Io& io) {
    io(n_apps, target_utilization, max_app_utilization, period_lo, period_hi,
       deadline_frac_lo, deadline_frac_hi, seed);
  }
};

/// Allocator selection for kAllocate.
enum class AllocatorKind : std::uint64_t {
  kFirstFit = 0,
  kBestFit = 1,
  kExact = 2,  ///< branch-and-bound; the deadline-cancellable path
};

/// kAllocate request.
struct AllocateRequest {
  FleetQuery fleet;
  std::uint64_t allocator = 0;  ///< AllocatorKind
  std::uint64_t method = 0;     ///< 0 closed-form bound, 1 exact fixed point
  std::uint64_t max_slots = 0;  ///< 0 = unlimited

  template <typename Io>
  void fields(Io& io) { io(fleet, allocator, method, max_slots); }
  void encode(util::BinaryWriter& out) const;
  static AllocateRequest decode(util::BinaryReader& in);
};

/// kAllocate response.  `feasible` is 0 when the allocator proved the
/// fleet cannot fit max_slots (a domain answer, not an error).
struct AllocateResponse {
  std::uint64_t feasible = 1;
  std::uint64_t slot_count = 0;
  std::uint64_t all_schedulable = 0;
  std::vector<std::vector<std::string>> slots;  ///< app names per slot

  template <typename Io>
  void fields(Io& io) { io(feasible, slot_count, all_schedulable, slots); }
  void encode(util::BinaryWriter& out) const;
  static AllocateResponse decode(util::BinaryReader& in);
};

/// kSchedCheck request: the schedulability verdict of the whole fleet
/// sharing ONE slot (the paper's analyze_slot on the full set).
struct SchedCheckRequest {
  FleetQuery fleet;
  std::uint64_t method = 0;  ///< 0 closed-form bound, 1 exact fixed point

  template <typename Io>
  void fields(Io& io) { io(fleet, method); }
  void encode(util::BinaryWriter& out) const;
  static SchedCheckRequest decode(util::BinaryReader& in);
};

/// kSchedCheck response: per-application outcomes in priority order.
struct SchedCheckResponse {
  struct App {
    std::string name;
    double response = 0.0;
    double deadline = 0.0;
    std::uint64_t schedulable = 0;

    template <typename Io>
    void fields(Io& io) { io(name, response, deadline, schedulable); }
  };
  std::uint64_t all_schedulable = 0;
  std::vector<App> apps;

  template <typename Io>
  void fields(Io& io) { io(all_schedulable, apps); }
  void encode(util::BinaryWriter& out) const;
  static SchedCheckResponse decode(util::BinaryReader& in);
};

/// kStats response: named monotonic counters (the server's admission /
/// deadline / cache numbers).  A name list instead of a fixed struct so
/// the daemon can grow counters without a protocol bump.
struct StatsResponse {
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  template <typename Io>
  void fields(Io& io) { io(counters); }
  void encode(util::BinaryWriter& out) const;
  static StatsResponse decode(util::BinaryReader& in);
};

/// What a handler needs beyond its payload.
struct QueryContext {
  /// Cooperative cancellation (deadline expiry / drain); may be null.
  const std::atomic<bool>* cancel = nullptr;
  /// Counter snapshot provider for kStats; empty = kStats answers with
  /// whatever the fixture cache alone can report.
  std::function<std::vector<std::pair<std::string, std::uint64_t>>()> stats;
};

/// Outcome of one dispatched request.
struct QueryResult {
  Status status = Status::kOk;
  std::string payload;  ///< per-opcode response on kOk, one string otherwise
};

/// Decode `payload`, run the opcode's handler, encode the response.
/// Never throws: decode failures and InvalidArgument map to kBadRequest,
/// CancelledError to kDeadlineExceeded, anything else to kInternalError
/// (each with a diagnostic-string payload).
QueryResult dispatch(Opcode opcode, std::string_view payload, const QueryContext& context);

/// The payload of every non-kOk answer: one diagnostic string.
std::string encode_error_payload(std::string_view what);

/// The diagnostic string carried by every non-kOk payload.
std::string decode_error_payload(std::string_view payload);

}  // namespace cps::serve
