#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/schedulability.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

/// Result digests at the default seed (kCampaignSeed), recorded from a
/// Release build.  A change that alters any allocation, fixture or daemon
/// answer at that seed fails the output check here.
struct RecordedDigest {
  const char* workload;
  std::uint64_t digest;
};
constexpr RecordedDigest kRecorded[] = {
    {"alloc_tail", 0xd319a7468cf3817bULL},
    {"flexray_grid", 0x9fe1fc7a5e33c56fULL},
    {"fleet_characterize", 0x0b5ded813c6e72efULL},
    {"serve_mixed", 0xcf132287ff4a0dbbULL},
};

}  // namespace

void add_end_to_end(Report& report, double setup_s, const std::vector<double>& rep_walls,
                    const Summary& ops, double good_ops) {
  double timed_s = 0.0;
  for (const double wall : rep_walls) timed_s += wall;
  report.metric("setup_s", setup_s, "s");
  report.metric("wall_s", median(rep_walls), "s");
  report.metric("latency_p50_ms", ops.p50 * 1e3, "ms");
  report.metric("latency_tail_ms", ops.tail * 1e3, "ms");
  report.metric("goodput_qps", timed_s > 0.0 ? good_ops / timed_s : 0.0, "1/s");
  report.metric("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0, "MB");
  std::fprintf(stderr, "latency samples: n=%zu, tail = p%.2f%s\n", ops.n, ops.tail_q * 100.0,
               ops.valid_tail ? "" : " (fewer than 11 samples: max)");
}

void add_sweep_layers(Report& report, const std::vector<Span>& spans,
                      const std::vector<std::uint32_t>& sweep_ids, int jobs) {
  std::vector<double> busy_ratios, tails;
  for (const auto id : sweep_ids) {
    const auto shape = sweep_shape(spans, id, "runtime.task", jobs);
    busy_ratios.push_back(shape.busy_ratio);
    tails.push_back(shape.tail_s);
  }
  report.metric("runtime.sweep_busy_ratio", median(busy_ratios), "ratio");
  report.metric("runtime.tail_s", median(tails), "s");
}

void add_allocator_layers(Report& report, const std::vector<Span>& spans, double reps,
                          std::size_t improved, std::size_t feasible) {
  const auto exact = durations(spans, "analysis.exact");
  const Summary summary = summarize(exact);
  report.metric("analysis.exact_calls", static_cast<double>(exact.size()) / reps, "count");
  report.metric("analysis.exact_busy_s", busy(spans, "analysis.exact") / reps, "s");
  report.metric("analysis.exact_p50_ms", summary.p50 * 1e3, "ms");
  report.metric("analysis.exact_tail_ms", summary.tail * 1e3, "ms");
  report.metric("analysis.exact_max_ms", summary.max * 1e3, "ms");
  report.metric("analysis.exact_improved_ratio",
                feasible ? static_cast<double>(improved) / static_cast<double>(feasible) : 0.0,
                "ratio");
  report.metric("analysis.heuristic_busy_s",
                (busy(spans, "analysis.ff") + busy(spans, "analysis.bf")) / reps, "s");
}

namespace {

using cps::analysis::AppSchedParams;

/// Backtracking over which same-named application fills each slot
/// position (fleets drawn from a small pool repeat names): true when some
/// assignment uses every application once and passes every slot.
bool assign_slots(const std::vector<AppSchedParams>& apps,
                  const std::vector<std::vector<std::string>>& slots, std::size_t slot,
                  std::size_t position, std::vector<bool>& used,
                  std::vector<AppSchedParams>& current) {
  if (slot == slots.size()) return true;
  if (position == slots[slot].size()) {
    if (current.empty() || !cps::analysis::analyze_slot(current).all_schedulable) return false;
    std::vector<AppSchedParams> next;
    return assign_slots(apps, slots, slot + 1, 0, used, next);
  }
  for (std::size_t i = 0; i < apps.size(); ++i) {
    if (used[i] || apps[i].name != slots[slot][position]) continue;
    used[i] = true;
    current.push_back(apps[i]);
    if (assign_slots(apps, slots, slot, position + 1, used, current)) return true;
    current.pop_back();
    used[i] = false;
  }
  return false;
}

}  // namespace

bool valid_allocation(const std::vector<AppSchedParams>& apps,
                      const cps::analysis::Allocation& allocation) {
  std::size_t placed = 0;
  for (const auto& slot : allocation.slots) placed += slot.size();
  if (placed != apps.size()) return false;
  std::vector<bool> used(apps.size(), false);
  std::vector<AppSchedParams> current;
  return assign_slots(apps, allocation.slots, 0, 0, used, current);
}

void add_allocation(Digest& digest, const cps::analysis::Allocation& allocation) {
  digest.add(static_cast<std::uint64_t>(allocation.slot_count()));
  for (const auto& slot : allocation.slots) {
    digest.add(static_cast<std::uint64_t>(slot.size()));
    for (const auto& name : slot) digest.add(name);
  }
}

void add_apps(Digest& digest, const std::vector<cps::analysis::AppSchedParams>& apps) {
  for (const auto& app : apps)
    digest.add(app.name)
        .add(app.min_inter_arrival)
        .add(app.deadline)
        .add(app.model->dwell(0.0))
        .add(app.model->max_dwell())
        .add(app.model->zero_wait());
}

void check_recorded_digest(Report& report, const char* workload, std::uint64_t seed,
                           std::uint64_t digest) {
  std::fprintf(stderr, "%s result digest: 0x%016llx\n", workload,
               static_cast<unsigned long long>(digest));
  if (seed != kCampaignSeed) return;
  for (const auto& recorded : kRecorded) {
    if (std::strcmp(recorded.workload, workload) != 0) continue;
    char what[160];
    std::snprintf(what, sizeof what, "%s digest 0x%016llx differs from the recorded 0x%016llx",
                  workload, static_cast<unsigned long long>(digest),
                  static_cast<unsigned long long>(recorded.digest));
    report.check(digest == recorded.digest, what);
  }
}

}  // namespace e2e
