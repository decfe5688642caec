#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "linalg/simd_batch.hpp"

namespace e2e {

Summary summarize(std::vector<double> samples) {
  Summary summary;
  summary.n = samples.size();
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  summary.p50 = samples[(n - 1) / 2];
  summary.max = samples.back();
  if (n <= 10) {
    summary.tail_q = 1.0;
    summary.tail = summary.max;
    return summary;
  }
  // Nearest rank k (1-based) of the q-quantile is ceil(q n); n - k samples
  // lie beyond it.  Take p99's rank unless that leaves fewer than ten.
  const auto p99_rank = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  const std::size_t rank = std::min(p99_rank, n - 10);
  summary.tail_q = static_cast<double>(rank) / static_cast<double>(n);
  summary.tail = samples[rank - 1];
  summary.valid_tail = true;
  return summary;
}

Summary combine(const std::vector<Summary>& parts, double q) {
  Summary summary;
  std::vector<double> p50s, tails;
  for (const auto& part : parts) {
    summary.n += part.n;
    summary.tail_q = part.tail_q;
    summary.valid_tail = part.valid_tail;
    summary.max = std::max(summary.max, part.max);
    p50s.push_back(part.p50);
    tails.push_back(part.tail);
  }
  if (parts.empty()) return summary;
  summary.p50 = quantile(p50s, q);
  summary.tail = quantile(tails, q);
  return summary;
}

Samples::Samples(std::size_t capacity) : capacity_(capacity) { values_.reserve(capacity); }

void Samples::add(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  // splitmix64 draw in [0, seen): keep the value with probability
  // capacity / seen, replacing a uniformly chosen slot.
  state_ += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const std::size_t slot = static_cast<std::size_t>(z % seen_);
  if (slot < capacity_) values_[slot] = value;
}

double quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::max<std::size_t>(rank, 1) - 1];
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// --- spans ------------------------------------------------------------------

namespace {

const Clock::time_point g_epoch = Clock::now();
std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

struct ThreadBuffer {
  std::mutex mutex;  // guards spans: the owner appends, spans() reads
  std::vector<Span> spans;
  std::uint32_t thread = 0;
  std::uint32_t current = 0;  // innermost open span (owner thread only)
};

struct Registry {
  std::mutex mutex;  // guards buffers
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
};

Registry& registry() {
  static Registry instance;
  return instance;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto created = std::make_shared<ThreadBuffer>();
    auto& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    created->thread = static_cast<std::uint32_t>(reg.buffers.size());
    reg.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

double now_s() { return std::chrono::duration<double>(Clock::now() - g_epoch).count(); }

}  // namespace

namespace trace {

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void reset() {
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& buffer : reg.buffers) {
    std::lock_guard<std::mutex> inner(buffer->mutex);
    buffer->spans.clear();
  }
}

std::vector<Span> spans() {
  std::vector<Span> all;
  auto& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  for (auto& buffer : reg.buffers) {
    std::lock_guard<std::mutex> inner(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

void record(std::string_view name, Clock::time_point start, Clock::time_point end,
            std::uint64_t request) {
  if (!enabled()) return;
  auto& buffer = local_buffer();
  const auto since_epoch = [](Clock::time_point t) {
    return std::chrono::duration<double>(t - g_epoch).count();
  };
  const std::uint32_t id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(
      Span{name, since_epoch(start), since_epoch(end), id, 0, buffer.thread, request});
}

}  // namespace trace

ScopedSpan::ScopedSpan(std::string_view name, std::uint32_t parent, std::uint64_t request) {
  if (!trace::enabled()) return;
  auto& buffer = local_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  outer_ = buffer.current;
  name_ = name;
  parent_ = parent != 0 ? parent : buffer.current;
  request_ = request;
  buffer.current = id_;
  start_ = now_s();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  const double end = now_s();
  auto& buffer = local_buffer();
  buffer.current = outer_;
  std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(Span{name_, start_, end, id_, parent_, buffer.thread, request_});
}

std::map<std::uint32_t, double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> children;
  for (const auto& span : spans)
    if (span.parent != 0) children[span.parent].emplace_back(span.start, span.end);
  std::map<std::uint32_t, double> self;
  for (const auto& span : spans) {
    double covered = 0.0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      // Union of the child intervals clipped to the parent: parallel
      // children (pool workers) overlap, and time is only covered once.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double run_start = 0.0, run_end = -1.0;
      bool open = false;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, span.start);
        hi = std::min(hi, span.end);
        if (hi <= lo) continue;
        if (open && lo <= run_end) {
          run_end = std::max(run_end, hi);
        } else {
          if (open) covered += run_end - run_start;
          run_start = lo;
          run_end = hi;
          open = true;
        }
      }
      if (open) covered += run_end - run_start;
    }
    self[span.id] = span.duration() - covered;
  }
  return self;
}

double busy(const std::vector<Span>& spans, std::string_view name) {
  double total = 0.0;
  for (const auto& span : spans)
    if (span.name == name) total += span.duration();
  return total;
}

std::vector<double> durations(const std::vector<Span>& spans, std::string_view name) {
  std::vector<double> out;
  for (const auto& span : spans)
    if (span.name == name) out.push_back(span.duration());
  return out;
}

SweepShape sweep_shape(const std::vector<Span>& spans, std::uint32_t sweep_id,
                       std::string_view task, int jobs) {
  SweepShape shape;
  const Span* sweep = nullptr;
  for (const auto& span : spans)
    if (span.id == sweep_id) sweep = &span;
  if (sweep == nullptr || jobs < 1) return shape;
  double task_time = 0.0;
  std::map<std::uint32_t, double> last_end;  // per worker thread
  for (const auto& span : spans) {
    if (span.parent != sweep_id || span.name != task) continue;
    task_time += span.duration();
    auto& end = last_end[span.thread];
    end = std::max(end, span.end);
  }
  if (last_end.empty()) return shape;
  double first_idle = sweep->end;
  for (const auto& [thread, end] : last_end) first_idle = std::min(first_idle, end);
  // A worker that never ran a task was idle from the start.
  if (static_cast<int>(last_end.size()) < jobs) first_idle = sweep->start;
  shape.busy_ratio = task_time / (static_cast<double>(jobs) * sweep->duration());
  shape.tail_s = sweep->end - first_idle;
  return shape;
}

// --- digests, host, report --------------------------------------------------

void Digest::mix(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= bytes[i];
    hash_ *= 0x100000001b3ULL;
  }
}

Digest& Digest::add(std::uint64_t value) {
  mix(&value, sizeof value);
  return *this;
}

Digest& Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  mix(text.data(), text.size());
  return *this;
}

std::size_t current_rss_kb() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return resident * static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) / 1024;
}

std::size_t peak_rss_kb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss);  // kB on Linux
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        auto model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

bool release_build() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

std::string host_fingerprint_json() {
  std::ostringstream out;
  out << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
      << json_escape(cpu_model()) << "\", \"simd_width\": " << cps::linalg::kSimdWidth
      << ", \"simd_isa\": \"" << cps::linalg::simd_isa_name() << "\", \"compiler\": \""
#if defined(__clang__)
      << "clang " << __clang_major__ << "." << __clang_minor__
#elif defined(__GNUC__)
      << "gcc " << __GNUC__ << "." << __GNUC_MINOR__
#else
      << "unknown"
#endif
      << "\", \"build_type\": \"" << (release_build() ? "release" : "debug") << "\"}";
  return out.str();
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  if (problems.size() < 20) problems.push_back(what);
}

std::string report_json(const Report& report) {
  std::ostringstream out;
  out << "{\"correct\": " << (report.correct ? "true" : "false")
      << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& metric = report.metrics[i];
    // A missed operation is infinitely late; JSON has no infinity, so it
    // prints as an unmistakable 1e300.
    const double value = std::isfinite(metric.value) ? metric.value : 1e300;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    out << (i ? ", " : "") << "\"" << metric.name << "\": {\"value\": " << number
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

}  // namespace e2e
