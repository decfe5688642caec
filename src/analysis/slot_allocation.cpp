#include "analysis/slot_allocation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <utility>

#include "runtime/parallel_search.hpp"
#include "util/error.hpp"

namespace cps::analysis {

namespace {

/// Package a set of slots (each already in priority order) as Allocation.
Allocation finalize(std::vector<std::vector<AppSchedParams>> slots,
                    const AllocationOptions& options) {
  Allocation out;
  out.slots.reserve(slots.size());
  out.analyses.reserve(slots.size());
  for (auto& slot : slots) {
    std::vector<std::string> names;
    names.reserve(slot.size());
    for (const auto& a : slot) names.push_back(a.name);
    out.slots.push_back(std::move(names));
    out.analyses.push_back(analyze_slot(slot, options.method));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Fast slot-feasibility engine.
//
// The allocators spend their entire runtime asking "is this slot's
// application set schedulable?".  analyze_slot answers that, but each call
// copies the AppSchedParams (std::string names included), re-sorts them and
// heap-allocates the result vector.  This engine answers the same question
// over *indices* into the caller's priority-sorted application vector with
// the exact floating-point operation order of analyze_slot (same sums, same
// maxima, same comparisons), so its verdicts are bit-identical — and it
// memoizes verdicts by membership bitmask, because branch-and-bound re-tests
// the same slot contents along many branches.

struct AppFacts {
  double xi_m = 0.0;     // model->max_dwell(), the xi^M of the analysis
  double util = 0.0;     // xi_m / r, one interference-utilization term
  double r = 1.0;        // minimum inter-arrival time
  double deadline = 1.0;
  const DwellWaitModel* model = nullptr;
};

// The Eq. (5) recurrence term is shared with the semantic source:
// fixed_point_interference_term (analysis/schedulability.hpp).  Both the
// feasibility engine below and the conflict screen's pair recurrence
// must evaluate the identical expression for the pair bound to stay a
// true lower bound of the real feasibility math.

class SlotFeasibility {
 public:
  /// `apps` must stay alive and unmodified for the engine's lifetime and
  /// must already be in priority order.
  SlotFeasibility(const std::vector<AppSchedParams>& apps, MaxWaitMethod method)
      : method_(method) {
    facts_.reserve(apps.size());
    for (const auto& a : apps) {
      CPS_ENSURE(a.model != nullptr, "schedulability: every app needs a dwell/wait model");
      CPS_ENSURE(a.min_inter_arrival > 0.0, "schedulability: r must be positive");
      CPS_ENSURE(a.deadline > 0.0, "schedulability: deadline must be positive");
      AppFacts f;
      f.xi_m = a.model->max_dwell();
      f.util = f.xi_m / a.min_inter_arrival;
      f.r = a.min_inter_arrival;
      f.deadline = a.deadline;
      f.model = a.model.get();
      facts_.push_back(f);
    }
    if (facts_.size() <= kMaxMemoApps) memo_.assign(kInitialMemoCapacity, 0);
  }

  const AppFacts& facts(std::size_t i) const { return facts_[i]; }

  /// Schedulability of the slot holding exactly `members` (indices in
  /// increasing = priority order).  Equals
  /// analyze_slot({apps[members]...}, method).all_schedulable bit for bit.
  bool feasible(const std::vector<std::size_t>& members) {
    if (memo_.empty()) return compute(members.data(), members.size());
    std::uint64_t mask = 0;
    for (std::size_t i : members) mask |= std::uint64_t{1} << i;
    return memoized(mask, [&] { return compute(members.data(), members.size()); });
  }

  /// Schedulability of the slot whose members are the set bits of `mask`
  /// (the search's form: no member list is materialized on a memo hit).
  bool feasible_mask(std::uint64_t mask) {
    const auto from_mask = [this, mask] {
      std::size_t members[64];
      std::size_t count = 0;
      for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
        members[count++] = static_cast<std::size_t>(__builtin_ctzll(rest));
      return compute(members, count);
    };
    return memo_.empty() ? from_mask() : memoized(mask, from_mask);
  }

 private:
  /// The memo stores `mask << 1 | verdict`, so masks need a spare bit.
  static constexpr std::size_t kMaxMemoApps = 63;
  static constexpr std::size_t kInitialMemoCapacity = 128;

  /// Memoized verdict of `mask`: a flat open-addressing table (linear
  /// probing, power-of-two capacity, load <= 3/4) whose words are
  /// `mask << 1 | verdict`; 0 marks an empty word, as no mask is 0.
  template <typename Compute>
  bool memoized(std::uint64_t mask, Compute&& compute_verdict) {
    std::size_t at = probe(mask);
    if (memo_[at] != 0) return (memo_[at] & 1) != 0;
    const bool ok = compute_verdict();
    if (4 * (memo_size_ + 1) > 3 * memo_.size()) {
      const std::vector<std::uint64_t> old = std::move(memo_);
      memo_.assign(2 * old.size(), 0);
      for (const std::uint64_t word : old)
        if (word != 0) memo_[probe(word >> 1)] = word;
      at = probe(mask);
    }
    memo_[at] = mask << 1 | (ok ? 1 : 0);
    ++memo_size_;
    return ok;
  }

  /// Index of `mask`'s word, or of the empty word where it belongs.
  std::size_t probe(std::uint64_t mask) const {
    const std::size_t wrap = memo_.size() - 1;
    std::size_t at = static_cast<std::size_t>((mask * 0x9E3779B97F4A7C15ULL) >> 32) & wrap;
    while (memo_[at] != 0 && (memo_[at] >> 1) != mask) at = (at + 1) & wrap;
    return at;
  }

  bool compute(const std::size_t* members, std::size_t count) const {
    // Mirrors analyze_slot member by member — including evaluating every
    // member rather than stopping at the first failure, so an exception a
    // later member would raise (fixed-point non-convergence) surfaces
    // exactly as in the reference path.  Keep in sync with
    // analysis/schedulability.cpp (the semantic source of this math).
    bool all_ok = true;
    for (std::size_t i = 0; i < count; ++i) {
      // Blocking a (Eq. 8): largest lower-priority max dwell.
      double a = 0.0;
      for (std::size_t k = i + 1; k < count; ++k) a = std::max(a, facts_[members[k]].xi_m);
      // Interference utilization m (Eq. 19).
      double m = 0.0;
      for (std::size_t j = 0; j < i; ++j) m += facts_[members[j]].util;
      if (m >= 1.0) return false;  // every lower-priority member fails too

      double k_hat;
      if (method_ == MaxWaitMethod::kClosedFormBound) {
        double a_prime = a;
        for (std::size_t j = 0; j < i; ++j) a_prime += facts_[members[j]].xi_m;
        k_hat = a_prime / (1.0 - m);
      } else {
        // Exact fixed point of Eq. (5), identical to max_wait_fixed_point.
        double k = a;
        for (std::size_t j = 0; j < i; ++j) k += facts_[members[j]].xi_m;
        bool converged = false;
        for (int it = 0; it < 10000; ++it) {
          double next = a;
          for (std::size_t j = 0; j < i; ++j)
            next += fixed_point_interference_term(k, facts_[members[j]].r,
                                                  facts_[members[j]].xi_m);
          if (std::fabs(next - k) <= 1e-12) {
            k = next;
            converged = true;
            break;
          }
          k = next;
        }
        if (!converged)
          throw NumericalError(
              "max_wait_fixed_point: recurrence did not converge (m < 1 violated?)");
        k_hat = k;
      }
      const double response = k_hat + facts_[members[i]].model->dwell(k_hat);
      if (!(response <= facts_[members[i]].deadline + 1e-12)) all_ok = false;
    }
    return all_ok;
  }

  MaxWaitMethod method_;
  std::vector<AppFacts> facts_;
  std::vector<std::uint64_t> memo_;  ///< empty when the fleet exceeds kMaxMemoApps
  std::size_t memo_size_ = 0;
};

/// Dedicated-slot feasibility of one application, throwing the shared
/// diagnostic otherwise.
void require_alone_feasible(SlotFeasibility& engine, const AppSchedParams& app,
                            std::size_t index) {
  if (!engine.feasible({index}))
    throw InfeasibleError("application '" + app.name +
                          "' cannot meet its deadline even on a dedicated TT slot");
}

/// First-fit over indices (the paper's heuristic), shared by the public
/// entry point and the branch-and-bound seed.  max_slots = 0 is unlimited.
std::vector<std::vector<std::size_t>> first_fit_indices(
    SlotFeasibility& engine, const std::vector<AppSchedParams>& apps, std::size_t max_slots) {
  std::vector<std::vector<std::size_t>> slots;
  std::vector<std::size_t> candidate;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    bool placed = false;
    for (auto& slot : slots) {
      candidate = slot;
      candidate.push_back(i);
      if (engine.feasible(candidate)) {
        slot = candidate;
        placed = true;
        break;
      }
    }
    if (!placed) {
      // A new slot always accepts a single application provided it can
      // meet its deadline alone; verify to fail loudly otherwise.
      require_alone_feasible(engine, apps[i], i);
      slots.push_back({i});
      if (max_slots != 0 && slots.size() > max_slots)
        throw InfeasibleError("slot allocation exceeds the available " +
                              std::to_string(max_slots) + " TT slots");
    }
  }
  return slots;
}

/// Materialize index slots back into application slots for finalize().
std::vector<std::vector<AppSchedParams>> materialize(
    const std::vector<std::vector<std::size_t>>& slots,
    const std::vector<AppSchedParams>& apps) {
  std::vector<std::vector<AppSchedParams>> out;
  out.reserve(slots.size());
  for (const auto& slot : slots) {
    std::vector<AppSchedParams> block;
    block.reserve(slot.size());
    for (std::size_t i : slot) block.push_back(apps[i]);
    out.push_back(std::move(block));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Branch-and-bound machinery for optimal_allocate.
//
// One search: a canonical depth-first pass bounded at k slots finds the
// FIRST partition into <= k slots in canonical order (applications in
// index order; each tries the existing slots by index, then a new
// slot), or proves none exists.  optimal_allocate runs it at k = root
// lower bound, k + 1, ... below the first-fit count, so the first level
// that finds a partition is the optimum and its partition is the
// canonical-first optimal witness — the one the pre-optimization
// search returns.
//
// Four pruning layers sit on top of the feasibility engine; each is SOUND
// (it never excludes the canonical-first partition of a level), so the
// returned partition stays bit-identical to the reference search:
//
//  * Conflict pairs: (i, j) such that NO slot containing both can be
//    feasible.  The screen rests on monotone wait growth — adding slot
//    members only grows blocking and interference, so each member's
//    maximum wait in a superset slot is at least its wait in the pair —
//    plus DwellWaitModel::min_response_from, a sound infimum of the
//    response beyond a known wait (the non-monotonic tent makes plain
//    response monotonicity false, so the infimum is what must clear the
//    deadline).  A conflicting pair in a candidate slot means
//    feasible() would return false; skipping the call changes nothing.
//  * Symmetry breaking: an application whose IMMEDIATE predecessor in
//    priority order is an interchangeable twin (bitwise-equal r,
//    deadline, xi_M, utilization and an identical dwell curve) never
//    goes into a slot below that twin's.  Exchange argument: swapping
//    two ADJACENT-index applications preserves every other member's
//    relative priority position inside both affected slots (no third
//    application's index can lie between them), so the swap maps any
//    partition violating the rule to an equally feasible one strictly
//    earlier in canonical DFS order — the canonical-first witness always
//    satisfies the rule.  Adjacency is essential: for non-adjacent twins
//    an application between them could sit above one twin and below the
//    other, the swap would change intra-slot priority structure, and the
//    screen could prune every optimal partition.
//  * Utilization / fractional-packing bound: in any feasible slot the
//    lowest-priority member sees m < 1, so a slot's total utilization is
//    < 1 + (utilization of its lowest-priority member); the e extra
//    slots a completion opens absorb < e + (sum of the e largest
//    remaining utilizations), the e future lowest-priority members being
//    distinct applications.
//  * Conflict-clique bound: a greedy clique among the remaining
//    applications needs pairwise-distinct slots; members conflicting
//    with every existing slot need that many NEW slots.

constexpr std::size_t kNoTwin = static_cast<std::size_t>(-1);

std::uint64_t bit_of(std::size_t i) { return std::uint64_t{1} << i; }

/// A node of the canonical search tree: apps [0, next) are placed.  A
/// partial partition is reachable by exactly one choice sequence (apps are
/// placed in index order and slots are identified by their lowest-index
/// member), so no transposition bookkeeping is needed.
struct SearchState {
  struct Slot {
    std::uint64_t mask;     ///< members; increasing bits = priority order
    double load;            ///< in-order sum of the members' utilizations
    std::uint64_t tested;   ///< apps whose extension of `mask` was tested
    std::uint64_t accepts;  ///< tested apps the slot accepts
  };
  std::vector<Slot> slots;
  std::vector<std::size_t> slot_of;  ///< slot index of each placed app

  explicit SearchState(std::size_t n) : slot_of(n, 0) {}

  /// Feasibility of slot s plus app i, probing the engine at most once
  /// per (slot contents, app): the tested/accepts bits live until the
  /// slot's membership changes, and push()/pop() save and restore them.
  bool accepts_app(std::size_t s, std::size_t i, SlotFeasibility& engine) {
    Slot& slot = slots[s];
    const std::uint64_t app = bit_of(i);
    if ((slot.tested & app) == 0) {
      if (engine.feasible_mask(slot.mask | app)) slot.accepts |= app;
      slot.tested |= app;
    }
    return (slot.accepts & app) != 0;
  }

  /// Append `app` to slot s; returns the slot as it was, for pop().
  /// Appending keeps the load the exact in-order sum, and pop() restores
  /// the saved load instead of subtracting — (L + u) - u can drift ulps
  /// away from L, and the loads feed the >= 1.0 feasibility screen and
  /// the lower bounds, which must see exactly the sum the feasibility
  /// engine computes.
  Slot push(std::size_t s, std::size_t app, double util) {
    const Slot saved = slots[s];
    slots[s] = Slot{saved.mask | bit_of(app), saved.load + util, 0, 0};
    slot_of[app] = s;
    return saved;
  }
  void pop(std::size_t s, const Slot& saved) { slots[s] = saved; }
  void open(std::size_t app, double util) {
    slots.push_back(Slot{bit_of(app), util, 0, 0});
    slot_of[app] = slots.size() - 1;
  }
  void close() { slots.pop_back(); }
};

/// Precomputed instance facts shared (read-only) by every deepening level
/// and every parallel subtree task: utilizations, suffix tables, conflict
/// masks, greedy conflict cliques per suffix, and twins.
struct SearchFacts {
  std::size_t n = 0;
  MaxWaitMethod method = MaxWaitMethod::kClosedFormBound;
  std::vector<double> utils;                    ///< facts(i).util, index order
  std::vector<double> suffix_util;              ///< sum of utils over apps [i, n)
  std::vector<double> suffix_max;               ///< max util over apps [i, n)
  std::vector<std::vector<double>> suffix_top;  ///< [i][e]: e largest utils in [i, n)
  std::vector<std::uint64_t> conflict;          ///< apps that can never share with i
  std::vector<std::uint64_t> clique_suffix;     ///< greedy conflict clique within [i, n)
  std::vector<std::size_t> twin;                ///< adjacent interchangeable predecessor
  std::size_t total_lb = 1;                     ///< root lower bound on the slot count

  SearchFacts(const SlotFeasibility& engine, MaxWaitMethod wait_method, std::size_t count)
      : n(count), method(wait_method) {
    utils.reserve(n);
    for (std::size_t i = 0; i < n; ++i) utils.push_back(engine.facts(i).util);

    suffix_util.assign(n + 1, 0.0);
    suffix_max.assign(n + 1, 0.0);
    for (std::size_t i = n; i-- > 0;) {
      suffix_util[i] = utils[i] + suffix_util[i + 1];
      suffix_max[i] = std::max(utils[i], suffix_max[i + 1]);
    }
    suffix_top.assign(n + 1, {});
    for (std::size_t i = 0; i <= n; ++i) {
      std::vector<double> desc(utils.begin() + static_cast<std::ptrdiff_t>(i), utils.end());
      std::sort(desc.begin(), desc.end(), std::greater<double>());
      auto& top = suffix_top[i];
      top.assign(desc.size() + 1, 0.0);
      for (std::size_t e = 0; e < desc.size(); ++e) top[e + 1] = top[e] + desc[e];
    }

    conflict.assign(n, 0);
    for (std::size_t j = 1; j < n; ++j)
      for (std::size_t i = 0; i < j; ++i)
        if (never_share(engine, i, j)) {
          conflict[i] |= bit_of(j);
          conflict[j] |= bit_of(i);
        }

    clique_suffix.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i) clique_suffix[i] = greedy_clique(i);

    // Only the ADJACENT predecessor qualifies as a twin (see the file
    // comment: the exchange argument needs no third index between the
    // pair).  Interchangeable runs still chain: twin[j] = j-1 for every
    // later member of the run.
    twin.assign(n, kNoTwin);
    for (std::size_t j = 1; j < n; ++j) {
      const AppFacts& a = engine.facts(j - 1);
      const AppFacts& b = engine.facts(j);
      if (bits_equal(a.r, b.r) && bits_equal(a.deadline, b.deadline) &&
          bits_equal(a.xi_m, b.xi_m) && bits_equal(a.util, b.util) &&
          a.model->same_curve(*b.model))
        twin[j] = j - 1;
    }

    // Root bound: smallest S with total_util < S + (sum of the S largest
    // utils) — every partition into S slots has total utilization below
    // that, since the S lowest-priority members are distinct applications
    // — strengthened by the greedy conflict clique over the full set.
    for (std::size_t s = 1; s <= n; ++s) {
      if (suffix_util[0] < static_cast<double>(s) + suffix_top[0][s]) {
        total_lb = s;
        break;
      }
    }
    total_lb = std::max(
        total_lb, static_cast<std::size_t>(__builtin_popcountll(clique_suffix[0])));
  }

  /// Lower bound on the final slot count from a node where apps [0, i)
  /// form `state` and apps [i, n) are still unplaced.
  std::size_t lower_bound_at(std::size_t i, const SearchState& state) const {
    const std::size_t used = state.slots.size();
    if (i >= n) return used;  // nothing left to place

    // (a) Fractional packing over interference utilizations.
    std::size_t packing = used;
    const double remaining = suffix_util[i];
    const double u_max = suffix_max[i];
    double capacity = 0.0;  // what the existing slots can still absorb
    for (const auto& slot : state.slots) capacity += std::max(0.0, 1.0 + u_max - slot.load);
    if (remaining > capacity) {
      const double deficit = remaining - capacity;
      const auto& top = suffix_top[i];
      std::size_t extra = 1;
      while (extra < top.size() &&
             !(deficit < static_cast<double>(extra) + top[extra]))
        ++extra;
      packing = used + extra;
    }

    // (b) Conflict clique: remaining clique members that conflict with
    // every existing slot need pairwise-distinct NEW slots.
    std::size_t need_new = 0;
    std::uint64_t clique = clique_suffix[i];
    while (clique != 0) {
      const auto v = static_cast<std::size_t>(__builtin_ctzll(clique));
      clique &= clique - 1;
      bool fits_existing = false;
      for (const auto& slot : state.slots)
        if ((conflict[v] & slot.mask) == 0) {
          fits_existing = true;
          break;
        }
      if (!fits_existing) ++need_new;
    }
    return std::max(packing, used + need_new);
  }

 private:
  /// True when i and j (i higher priority) provably cannot share ANY
  /// feasible slot.  Sound under both wait methods: a superset slot only
  /// grows each member's maximum wait beyond the pair's, and
  /// min_response_from bounds the response from below beyond that wait.
  bool never_share(const SlotFeasibility& engine, std::size_t i, std::size_t j) const {
    const AppFacts& hi = engine.facts(i);
    const AppFacts& lo = engine.facts(j);
    // The lower-priority member's interference utilization alone: m >= 1
    // fails the slot outright in compute().
    if (hi.util >= 1.0) return true;
    // i's side: with j anywhere below it, i's blocking is at least xi_M_j.
    if (hi.model->min_response_from(lo.xi_m) > hi.deadline + 1e-12) return true;
    // j's side: with i anywhere above it, j's wait is at least the pair's
    // k_hat (monotone in blocking and interference set for both methods).
    double k_min = 0.0;
    if (method == MaxWaitMethod::kClosedFormBound) {
      k_min = hi.xi_m / (1.0 - hi.util);
    } else {
      double k = hi.xi_m;  // the pair's critical-instant seed
      bool converged = false;
      for (int it = 0; it < 10000; ++it) {
        const double next = fixed_point_interference_term(k, hi.r, hi.xi_m);  // a = 0
        if (std::fabs(next - k) <= 1e-12) {
          k = next;
          converged = true;
          break;
        }
        k = next;
      }
      if (!converged) return false;  // conservative: claim nothing
      k_min = k;
    }
    return lo.model->min_response_from(k_min) > lo.deadline + 1e-12;
  }

  /// Deterministic greedy clique in the conflict graph restricted to
  /// [start, n): vertices by descending suffix degree, ties by index.
  std::uint64_t greedy_clique(std::size_t start) const {
    const std::uint64_t all = n == 64 ? ~std::uint64_t{0} : bit_of(n) - 1;
    const std::uint64_t suffix_mask = all & ~(bit_of(start) - 1);
    std::vector<std::size_t> order;
    order.reserve(n - start);
    for (std::size_t v = start; v < n; ++v) order.push_back(v);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const int da = __builtin_popcountll(conflict[a] & suffix_mask);
      const int db = __builtin_popcountll(conflict[b] & suffix_mask);
      if (da != db) return da > db;
      return a < b;
    });
    std::uint64_t clique = 0;
    for (const std::size_t v : order)
      if ((conflict[v] & clique) == clique) clique |= bit_of(v);
    return clique;
  }
};

/// The bounded canonical search: the first partition into at most
/// `max_slots` slots in canonical depth-first order below one node, or
/// none.  The witness of a level is the canonical-first partition of
/// that level because every screen keeps it (it satisfies the symmetry
/// rule by the exchange argument above).
class BoundedSearch {
 public:
  /// `winner` / `task`: a parallel subtree task stops once a
  /// lower-index task has found a partition (winner < task).
  BoundedSearch(SlotFeasibility& engine, const SearchFacts& facts, std::size_t max_slots,
                const std::atomic<bool>* cancel,
                const runtime::SharedIncumbent* winner = nullptr, std::size_t task = 0)
      : engine_(engine), facts_(facts), bound_(max_slots + 1), cancel_(cancel),
        winner_(winner), task_(task), state_(facts.n) {}

  /// Search below `node` (apps [next_app, n) unplaced); true when it
  /// holds a partition, which witness() then returns.
  bool run(SearchState node, std::size_t next_app) {
    state_ = std::move(node);
    dfs(next_app);
    return found_;
  }

  /// The partition found: each slot's members in priority order.
  std::vector<std::vector<std::size_t>> witness() const {
    std::vector<std::vector<std::size_t>> slots;
    for (const auto& slot : state_.slots) {
      auto& members = slots.emplace_back();
      for (std::uint64_t rest = slot.mask; rest != 0; rest &= rest - 1)
        members.push_back(static_cast<std::size_t>(__builtin_ctzll(rest)));
    }
    return slots;
  }

  /// Nodes expanded so far.
  std::uint64_t nodes() const { return nodes_; }

 private:
  void dfs(std::size_t i) {
    // Cooperative cancellation: a relaxed flag poll every 32 nodes keeps
    // the check off the profile while bounding the latency between a
    // deadline expiring and the search abandoning (node cost times 32).
    if ((++nodes_ & 31u) == 0) {
      if (cancel_ != nullptr && cancel_->load(std::memory_order_relaxed))
        throw CancelledError("optimal_allocate: exact search cancelled");
      if (winner_ != nullptr && winner_->load() < task_) done_ = true;
    }
    if (done_) return;
    if (state_.slots.size() >= bound_ || facts_.lower_bound_at(i, state_) >= bound_) return;
    if (i == facts_.n) {
      found_ = done_ = true;
      return;
    }

    const double util = facts_.utils[i];
    const std::uint64_t conflicts = facts_.conflict[i];
    // Symmetry: never below the twin's slot.
    const std::size_t s_min = facts_.twin[i] == kNoTwin ? 0 : state_.slot_of[facts_.twin[i]];
    for (std::size_t s = s_min; s < state_.slots.size(); ++s) {
      if (state_.slots[s].load >= 1.0) continue;  // the newcomer's m would be >= 1
      if ((conflicts & state_.slots[s].mask) != 0) continue;  // conflicting member
      if (!state_.accepts_app(s, i, engine_)) continue;
      const SearchState::Slot saved = state_.push(s, i, util);
      dfs(i + 1);
      if (done_) return;  // keep the witness in state_
      state_.pop(s, saved);
      // Last-application dominance, canonical form: the first feasible
      // existing slot for the final app IS the canonical-first completion
      // from this node; if it met the bound we are done, and if not, no
      // other placement of the final app can (all give the same count).
      if (i + 1 == facts_.n) return;
    }
    if (state_.slots.size() + 1 < bound_) {
      state_.open(i, util);
      dfs(i + 1);
      if (done_) return;
      state_.close();
    }
  }

  SlotFeasibility& engine_;
  const SearchFacts& facts_;
  std::size_t bound_;  ///< slot counts >= bound_ are pruned
  const std::atomic<bool>* cancel_;
  const runtime::SharedIncumbent* winner_;
  std::size_t task_;
  SearchState state_;
  std::uint64_t nodes_ = 0;
  bool found_ = false;
  bool done_ = false;
};

/// A node of the canonical search tree, emitted by expand_frontier for a
/// parallel subtree task.
struct FrontierNode {
  SearchState state;
  std::size_t next_app = 0;
};

/// Expand the canonical search tree bounded at `max_slots`
/// level-synchronously (every node on one level is replaced by its
/// non-pruned children, in canonical order: existing slots by index, then
/// a new slot) until at least `target` nodes exist, the tree is
/// exhausted, or the next level would reach the last application.  The
/// list is in canonical order and independent of the worker count, and
/// its pruning is the search's own, so the canonical-first partition of
/// the level lies in the lowest-index subtree that holds any.
std::vector<FrontierNode> expand_frontier(SlotFeasibility& engine, const SearchFacts& facts,
                                          std::size_t max_slots, std::size_t target) {
  const std::size_t bound = max_slots + 1;
  std::vector<FrontierNode> frontier;
  frontier.push_back(FrontierNode{SearchState(facts.n), 0});
  while (!frontier.empty() && frontier.size() < target &&
         frontier.front().next_app + 2 < facts.n) {
    std::vector<FrontierNode> next;
    next.reserve(frontier.size() * 2);
    for (auto& node : frontier) {
      const std::size_t i = node.next_app;
      SearchState& state = node.state;
      if (state.slots.size() >= bound || facts.lower_bound_at(i, state) >= bound) continue;
      const double util = facts.utils[i];
      const std::uint64_t conflicts = facts.conflict[i];
      const std::size_t s_min = facts.twin[i] == kNoTwin ? 0 : state.slot_of[facts.twin[i]];
      for (std::size_t s = s_min; s < state.slots.size(); ++s) {
        if (state.slots[s].load >= 1.0 || (conflicts & state.slots[s].mask) != 0) continue;
        if (!state.accepts_app(s, i, engine)) continue;
        SearchState child = state;
        child.push(s, i, util);
        next.push_back(FrontierNode{std::move(child), i + 1});
      }
      if (state.slots.size() + 1 < bound) {
        SearchState child = std::move(state);
        child.open(i, util);
        next.push_back(FrontierNode{std::move(child), i + 1});
      }
    }
    frontier = std::move(next);
  }
  return frontier;
}

/// How many frontier subtree tasks a parallel level aims for.  Fixed (not
/// derived from the job count) so the decomposition is identical for
/// every `exact_jobs`.
constexpr std::size_t kFrontierTarget = 128;

/// Below this size the sequential search always wins; skip the fan-out.
constexpr std::size_t kMinAppsForParallelSearch = 10;

/// One level of the deepening: the canonical-first partition into at most
/// `max_slots` slots, or nullopt when none exists.  With exact_jobs > 1
/// the level fans out over the frontier subtrees; the answer is the
/// witness of the lowest-index subtree that holds one, which is the
/// sequential search's witness.
std::optional<std::vector<std::vector<std::size_t>>> search_level(
    const std::vector<AppSchedParams>& apps, SlotFeasibility& engine,
    const SearchFacts& facts, std::size_t max_slots, const AllocationOptions& options,
    std::uint64_t& nodes) {
  if (options.exact_jobs <= 1 || facts.n < kMinAppsForParallelSearch) {
    BoundedSearch search(engine, facts, max_slots, options.cancel);
    const bool found = search.run(SearchState(facts.n), 0);
    nodes += search.nodes();
    if (!found) return std::nullopt;
    return search.witness();
  }

  struct TaskResult {
    std::uint64_t nodes = 0;
    std::optional<std::vector<std::vector<std::size_t>>> witness;
  };
  const auto frontier = expand_frontier(engine, facts, max_slots, kFrontierTarget);
  // The lowest task index that found a partition so far (frontier.size()
  // while none has); tasks above it stop.  A task that observes the
  // cancel flag throws CancelledError, which map() rethrows after
  // cancelling the pending tasks.
  runtime::SharedIncumbent winner(frontier.size());
  runtime::ParallelSearch pool({options.exact_jobs});
  const auto results = pool.map(frontier.size(), [&](std::size_t t) {
    TaskResult result;
    if (winner.load() < t) return result;
    // Task-private memo; the facts are identical (same inputs).
    SlotFeasibility task_engine(apps, facts.method);
    BoundedSearch search(task_engine, facts, max_slots, options.cancel, &winner, t);
    if (search.run(frontier[t].state, frontier[t].next_app)) {
      winner.improve(t);
      result.witness = search.witness();
    }
    result.nodes = search.nodes();
    return result;
  });
  for (const auto& result : results) nodes += result.nodes;
  if (winner.load() == frontier.size()) return std::nullopt;
  return results[winner.load()].witness;
}

}  // namespace

Allocation first_fit_allocate(std::vector<AppSchedParams> apps,
                              const AllocationOptions& options) {
  CPS_ENSURE(!apps.empty(), "first_fit_allocate: need at least one application");
  sort_by_priority(apps);
  SlotFeasibility engine(apps, options.method);
  const auto slots = first_fit_indices(engine, apps, options.max_slots);
  return finalize(materialize(slots, apps), options);
}

Allocation best_fit_allocate(std::vector<AppSchedParams> apps,
                             const AllocationOptions& options) {
  CPS_ENSURE(!apps.empty(), "best_fit_allocate: need at least one application");
  sort_by_priority(apps);
  SlotFeasibility engine(apps, options.method);

  // Interference utilization of a slot's contents, summed in priority
  // order exactly as the pre-rework slot_load lambda did.
  auto slot_load = [&engine](const std::vector<std::size_t>& slot) {
    double load = 0.0;
    for (std::size_t i : slot) load += engine.facts(i).util;
    return load;
  };

  std::vector<std::vector<std::size_t>> slots;
  std::vector<std::size_t> candidate;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    double best_load = -1.0;
    std::size_t best_slot = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      candidate = slots[s];
      candidate.push_back(i);
      if (!engine.feasible(candidate)) continue;
      const double load = slot_load(candidate);
      if (load > best_load) {
        best_load = load;
        best_slot = s;
      }
    }
    if (best_slot < slots.size()) {
      // Appending preserves priority order: i outranks nothing already
      // placed (apps are processed by decreasing priority).
      slots[best_slot].push_back(i);
    } else {
      require_alone_feasible(engine, apps[i], i);
      slots.push_back({i});
      if (options.max_slots != 0 && slots.size() > options.max_slots)
        throw InfeasibleError("slot allocation exceeds the available " +
                              std::to_string(options.max_slots) + " TT slots");
    }
  }
  return finalize(materialize(slots, apps), options);
}

Allocation optimal_allocate(std::vector<AppSchedParams> apps, const AllocationOptions& options,
                            std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "optimal_allocate: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "optimal_allocate: exact search limited to max_apps_for_exact applications");
  CPS_ENSURE(apps.size() <= 64,
             "optimal_allocate: exact search limited to 64 applications (bitmask state)");
  sort_by_priority(apps);
  SlotFeasibility engine(apps, options.method);
  for (std::size_t i = 0; i < apps.size(); ++i) require_alone_feasible(engine, apps[i], i);

  // The paper's first-fit heuristic seeds the upper bound — and remains
  // the answer whenever the search cannot beat it, exactly as in the
  // reference implementation.
  const auto seed = first_fit_indices(engine, apps, 0);

  const SearchFacts facts(engine, options.method, apps.size());
  // Iterative deepening from the root lower bound: every level below the
  // optimum is refuted, and the first level that holds a partition
  // returns its canonical-first witness.  When no level below the seed
  // does, the seed is optimal and is returned as is.
  std::vector<std::vector<std::size_t>> best = seed;
  ExactSearchStats stats;
  stats.first_fit_slots = seed.size();
  stats.root_lower_bound = facts.total_lb;
  for (std::size_t k = facts.total_lb; k < seed.size(); ++k) {
    ++stats.levels;
    auto witness = search_level(apps, engine, facts, k, options, stats.nodes);
    if (witness) {
      best = std::move(*witness);
      break;
    }
  }
  if (options.stats != nullptr) *options.stats = stats;

  if (options.max_slots != 0 && best.size() > options.max_slots)
    throw InfeasibleError("optimal allocation still exceeds the available " +
                          std::to_string(options.max_slots) + " TT slots");
  return finalize(materialize(best, apps), options);
}

Allocation optimal_allocate_reference(std::vector<AppSchedParams> apps,
                                      const AllocationOptions& options,
                                      std::size_t max_apps_for_exact) {
  CPS_ENSURE(!apps.empty(), "optimal_allocate: need at least one application");
  CPS_ENSURE(apps.size() <= max_apps_for_exact,
             "optimal_allocate: exact search limited to max_apps_for_exact applications");
  sort_by_priority(apps);
  for (const auto& app : apps) {
    if (!analyze_slot({app}, options.method).all_schedulable)
      throw InfeasibleError("application '" + app.name +
                            "' cannot meet its deadline even on a dedicated TT slot");
  }

  // The seed's pre-optimization branch and bound, frozen: place
  // applications one by one into an existing block or a new one, pruning
  // only branches that already use >= the best-known number of slots, with
  // a full analyze_slot per visited node.
  std::vector<std::vector<AppSchedParams>> best;
  std::size_t best_count;
  {
    const Allocation seed = first_fit_allocate(apps, AllocationOptions{options.method, 0});
    best_count = seed.slot_count();
    best.clear();
    for (const auto& names : seed.slots) {
      std::vector<AppSchedParams> block;
      for (const auto& name : names)
        for (const auto& app : apps)
          if (app.name == name) block.push_back(app);
      best.push_back(std::move(block));
    }
  }

  std::vector<std::vector<AppSchedParams>> current;
  auto recurse = [&](auto&& self, std::size_t index) -> void {
    if (current.size() >= best_count) return;  // cannot improve
    if (index == apps.size()) {
      best = current;
      best_count = current.size();
      return;
    }
    const AppSchedParams& app = apps[index];
    for (std::size_t s = 0; s < current.size(); ++s) {
      current[s].push_back(app);
      if (analyze_slot(current[s], options.method).all_schedulable) self(self, index + 1);
      current[s].pop_back();
    }
    if (current.size() + 1 < best_count) {
      current.push_back({app});
      self(self, index + 1);
      current.pop_back();
    }
  };
  recurse(recurse, 0);

  if (options.max_slots != 0 && best_count > options.max_slots)
    throw InfeasibleError("optimal allocation still exceeds the available " +
                          std::to_string(options.max_slots) + " TT slots");
  for (auto& slot : best) sort_by_priority(slot);
  return finalize(std::move(best), options);
}

}  // namespace cps::analysis
