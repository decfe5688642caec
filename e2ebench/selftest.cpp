// Tests of the benchmark's own helpers: the percentile rule, self-time
// arithmetic, the span recorder, sweep shape, determinism of the
// generated inputs and the recorded-digest check.  Exits 0 when every
// check passes.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace e2e;

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what);
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_percentile_rule() {
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Summary a = summarize(thousand);
  expect(a.n == 1000 && a.valid_tail, "1000 samples hold a valid tail");
  expect(near(a.tail_q, 0.99) && near(a.tail, 990.0), "1000 samples: tail is p99 (rank 990)");
  expect(near(a.p50, 500.0) && near(a.max, 1000.0), "1000 samples: median and max");

  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  const Summary b = summarize(hundred);
  expect(near(b.tail_q, 0.90) && near(b.tail, 90.0),
         "100 samples: highest percentile with ten beyond it is p90");

  std::vector<Summary> parts(4);
  for (int i = 0; i < 4; ++i) parts[static_cast<std::size_t>(i)].tail = 4.0 - i;
  expect(near(combine(parts, 0.5).tail, 2.0) && near(combine(parts, 0.25).tail, 1.0),
         "parts combine at the nearest-rank quantile of their figures");

  const Summary c = summarize({3.0, 1.0, 2.0});
  expect(!c.valid_tail && near(c.tail, 3.0) && near(c.p50, 2.0), "3 samples: no valid tail");

  std::vector<double> missed(1000, 1.0);
  for (int i = 0; i < 20; ++i) missed[static_cast<std::size_t>(i)] = kMissed;
  expect(std::isinf(summarize(missed).tail), "2% misses push p99 past every limit");
  expect(near(summarize(missed).p50, 1.0), "misses leave the median alone");
}

void test_self_time() {
  // Parent [0, 10] with two overlapping children (parallel workers) and
  // one running past the parent's end: covered = [1, 5] + [8, 10].
  std::vector<Span> spans = {
      {"parent", 0.0, 10.0, 1, 0, 0, 0},
      {"child", 1.0, 3.0, 2, 1, 0, 0},
      {"child", 2.0, 5.0, 3, 1, 1, 0},
      {"child", 8.0, 12.0, 4, 1, 2, 0},
      {"grandchild", 1.5, 2.5, 5, 2, 0, 0},
  };
  const auto self = self_times(spans);
  expect(near(self.at(1), 4.0), "self time subtracts the union of child intervals");
  expect(near(self.at(2), 1.0), "a child's own children are subtracted from it");
  expect(near(self.at(4), 4.0), "a leaf's self time is its duration");
  expect(near(busy(spans, "child"), 9.0), "busy sums durations by name");
}

void test_sweep_shape() {
  std::vector<Span> spans = {
      {"runtime.sweep", 0.0, 10.0, 1, 0, 0, 0},
      {"runtime.task", 0.0, 4.0, 2, 1, 1, 0},
      {"runtime.task", 0.0, 10.0, 3, 1, 2, 0},
  };
  const auto shape = sweep_shape(spans, 1, "runtime.task", 2);
  expect(near(shape.busy_ratio, 0.7), "busy ratio = task time / (jobs x wall)");
  expect(near(shape.tail_s, 6.0), "tail runs from the first idle worker to the end");
  expect(near(sweep_shape(spans, 1, "runtime.task", 3).tail_s, 10.0),
         "a worker with no task is idle from the start");
}

void test_recorder() {
  trace::reset();
  {
    ScopedSpan off("off");
    expect(off.id() == 0, "a span opened while tracing is off records nothing");
  }
  trace::set_enabled(true);
  std::uint32_t outer_id = 0, inner_id = 0;
  {
    ScopedSpan outer("outer");
    outer_id = outer.id();
    ScopedSpan inner("inner", 0, 7);
    inner_id = inner.id();
  }
  const auto t0 = Clock::now();
  trace::record("call", t0, t0 + std::chrono::milliseconds(3), 9);
  trace::set_enabled(false);
  trace::record("ignored", t0, t0, 1);
  const auto spans = trace::spans();
  expect(spans.size() == 3, "three spans recorded, none while tracing is off");
  const auto calls = durations(spans, "call");
  expect(calls.size() == 1 && near(calls[0], 0.003), "a recorded span keeps its explicit times");
  for (const auto& span : spans) {
    if (span.id == inner_id)
      expect(span.parent == outer_id && span.request == 7, "inner span's parent and request id");
    if (span.id == outer_id) expect(span.parent == 0, "outer span is a root");
  }
  trace::reset();
  expect(trace::spans().empty(), "reset drops every span");
}

void test_generated_inputs() {
  const auto grid = alloc_tail_grid();
  expect(grid.size() == 220, "the alloc_tail grid holds 220 fleets");
  expect(grid.front().size() == 6 && grid.back().size() == 20, "sizes run from 6 to 20");
  Digest a, b;
  for (const auto& apps : grid) add_apps(a, apps);
  for (const auto& apps : alloc_tail_grid()) add_apps(b, apps);
  expect(a.value() == b.value(), "alloc_tail instance generation is deterministic");

  const auto s1 = serve_schedule(42, 5000, 1000.0, 0);
  const auto s2 = serve_schedule(42, 5000, 1000.0, 0);
  const auto s3 = serve_schedule(43, 5000, 1000.0, 0);
  bool same = s1.size() == s2.size(), differs = false;
  std::vector<int> counts(kServeKinds, 0);
  for (std::size_t j = 0; j < s1.size(); ++j) {
    same = same && s1[j].kind == s2[j].kind && s1[j].payload == s2[j].payload &&
           s1[j].opcode == s2[j].opcode && s1[j].due == s2[j].due;
    differs = differs || s1[j].payload != s3[j].payload;
    ++counts[static_cast<std::size_t>(s1[j].kind)];
  }
  expect(same, "the request mix is deterministic for a seed");
  expect(differs, "another seed draws another mix");
  expect(near(s1[1000].due, 1.0), "request j is due at j / rate");
  int misses = 0, exact = 0;
  for (int kind = 0; kind < kServeKinds; ++kind) {
    const std::string name = serve_kind_name(kind);
    if (name == "sched_miss") misses = counts[static_cast<std::size_t>(kind)];
    if (name == "alloc_exact") exact = counts[static_cast<std::size_t>(kind)];
  }
  expect(misses > 350 && misses < 650, "a tenth of the mix misses the cache");
  expect(exact > 100 && exact < 350, "a few percent of the mix is exact allocation");
}

void test_digest_check() {
  expect(Digest().add(1.0).value() != Digest().add(std::uint64_t{1}).value(),
         "digests see bit patterns, not values");
  expect(Digest().add("ab").add("c").value() != Digest().add("a").add("bc").value(),
         "strings are length-prefixed");
  Report other;
  check_recorded_digest(other, "alloc_tail", kCampaignSeed + 1, 123);
  expect(other.correct, "digests are compared only at the default seed");
  Report wrong;
  check_recorded_digest(wrong, "flexray_grid", kCampaignSeed, 123);
  expect(!wrong.correct && !wrong.problems.empty(), "a wrong digest at the default seed fails");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  test_sweep_shape();
  test_recorder();
  test_generated_inputs();
  test_digest_check();
  if (g_failures == 0) std::printf("selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
