// cps_query — client CLI for the cps_serve daemon (src/serve/).
//
//   cps_query [options] <op>      op: ping|curve|design|alloc|sched|stats
//
// Single-shot mode prints the decoded response fields plus the FNV-1a 64
// digest of the raw payload bytes; `--local` runs the IDENTICAL query
// dispatcher in-process instead of over the socket and prints the same
// lines, so `cmp <(cps_query --socket S op) <(cps_query --local op)`
// verifies daemon answers byte-for-byte (the contract_daemon_local CTest does).
//
// Load mode (--repeat N [--concurrency C]) drives the daemon with many
// requests and prints one per-status summary line — the saturation
// probe of the admission-control tests.
//
// Shed requests (`overloaded`) are retried up to --retries times with
// the deterministic jittered exponential backoff of runtime/backoff.hpp
// (same schedule as the PR-8 campaign supervisor).
//
// Exit codes: 0 success, 1 the query (still) failed, 2 usage errors.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/backoff.hpp"
#include "runtime/cli.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/fixture_store.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/queries.hpp"
#include "util/hash.hpp"

namespace {

using cps::runtime::CliError;
using cps::serve::Opcode;
using cps::serve::Status;

double parse_cli_double(const std::string& text, const std::string& what) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || end == text.c_str())
    throw CliError(what + ": not a number: '" + text + "'");
  return value;
}

void print_fingerprint(const std::string& payload) {
  std::printf("payload_fnv64 %s\n", cps::util::hex64(cps::util::fnv1a64(payload)).c_str());
}

struct QuerySpec {
  Opcode opcode = Opcode::kPing;
  std::string payload;  ///< encoded request payload
};

/// Print the decoded response fields (deterministic; shared by socket
/// and --local mode so CI can cmp the two outputs).
void print_reply(Opcode opcode, Status status, const std::string& payload) {
  std::printf("status %s\n", cps::serve::status_name(status));
  if (status != Status::kOk) {
    std::printf("message %s\n", cps::serve::decode_error_payload(payload).c_str());
    print_fingerprint(payload);
    return;
  }
  cps::util::BinaryReader in(payload);
  switch (opcode) {
    case Opcode::kPing: {
      const auto reply = cps::serve::PingRequest::decode(in);
      std::printf("echo %s\n", reply.echo.c_str());
      break;
    }
    case Opcode::kCurve: {
      const auto curve = cps::serve::CurveResponse::decode(in);
      std::printf("sampling_period %.17g\n", curve.sampling_period);
      std::printf("xi_tt %.17g\n", curve.xi_tt);
      std::printf("xi_et %.17g\n", curve.xi_et);
      std::printf("xi_m %.17g\n", curve.xi_m);
      std::printf("k_p %.17g\n", curve.k_p);
      std::printf("n_points %llu\n", static_cast<unsigned long long>(curve.n_points));
      break;
    }
    case Opcode::kLoopDesign: {
      const auto design = cps::serve::LoopDesignResponse::decode(in);
      std::printf("name %s\n", design.name.c_str());
      std::printf("rho_tt %.17g\n", design.rho_tt);
      std::printf("rho_et %.17g\n", design.rho_et);
      std::printf("state_dim %llu\n", static_cast<unsigned long long>(design.state_dim));
      std::printf("input_dim %llu\n", static_cast<unsigned long long>(design.input_dim));
      break;
    }
    case Opcode::kAllocate: {
      const auto alloc = cps::serve::AllocateResponse::decode(in);
      std::printf("feasible %llu\n", static_cast<unsigned long long>(alloc.feasible));
      std::printf("slot_count %llu\n", static_cast<unsigned long long>(alloc.slot_count));
      std::printf("all_schedulable %llu\n",
                  static_cast<unsigned long long>(alloc.all_schedulable));
      for (std::size_t s = 0; s < alloc.slots.size(); ++s) {
        std::printf("slot %zu", s);
        for (const auto& name : alloc.slots[s]) std::printf(" %s", name.c_str());
        std::printf("\n");
      }
      break;
    }
    case Opcode::kSchedCheck: {
      const auto check = cps::serve::SchedCheckResponse::decode(in);
      std::printf("all_schedulable %llu\n",
                  static_cast<unsigned long long>(check.all_schedulable));
      for (const auto& app : check.apps)
        std::printf("app %s response %.17g deadline %.17g schedulable %llu\n",
                    app.name.c_str(), app.response, app.deadline,
                    static_cast<unsigned long long>(app.schedulable));
      break;
    }
    case Opcode::kStats: {
      const auto stats = cps::serve::StatsResponse::decode(in);
      for (const auto& [name, value] : stats.counters)
        std::printf("counter %s %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
      break;
    }
  }
  print_fingerprint(payload);
}

}  // namespace

int main(int argc, char** argv) {
  using cps::runtime::CliParser;

  std::string socket_path;
  std::uint64_t tcp_port = 0;
  bool local = false;
  std::uint64_t deadline_ms = 0;
  std::uint64_t timeout_ms = 10000;
  std::uint64_t repeat = 1;
  std::uint64_t concurrency = 1;
  std::uint64_t retries = 0;
  std::string backoff_base = "0.05";
  std::string backoff_factor = "2.0";
  std::string backoff_max = "2.0";
  std::uint64_t backoff_seed = 0x5EED5EEDULL;
  std::string echo = "hello";
  std::uint64_t sleep_ms = 0;
  std::uint64_t app_index = 0;
  std::uint64_t apps = 10;
  std::string util_s = "0.6";
  std::string max_app_util_s = "0.95";
  std::string period_lo_s = "3", period_hi_s = "60";
  std::string deadline_frac_lo_s = "0.7", deadline_frac_hi_s = "1.0";
  std::uint64_t seed = 1;
  std::string allocator = "ff";
  std::string method = "bound";
  std::uint64_t max_slots = 0;
  std::string fixture_store_dir;

  CliParser cli("cps_query", "<ping|curve|design|alloc|sched|stats>");
  cli.add_string({"--socket"}, &socket_path, "PATH", "daemon Unix socket path");
  cli.add_u64({"--port"}, &tcp_port, "PORT", "connect 127.0.0.1:PORT instead");
  cli.add_flag({"--local"}, &local,
               "run the query dispatcher in-process (byte-identity checks)");
  cli.add_u64({"--deadline-ms"}, &deadline_ms, "MS",
              "server-side per-request deadline budget (0 = none)");
  cli.add_u64({"--timeout-ms"}, &timeout_ms, "MS", "client transport timeout");
  cli.add_u64({"--repeat"}, &repeat, "N", "load mode: total requests to send");
  cli.add_u64({"--concurrency"}, &concurrency, "N", "load mode: client threads");
  cli.add_u64({"--retries"}, &retries, "N",
              "retries (with backoff) when the daemon sheds 'overloaded'");
  cli.add_string({"--backoff-base"}, &backoff_base, "SEC", "retry backoff base");
  cli.add_string({"--backoff-factor"}, &backoff_factor, "X", "retry backoff factor");
  cli.add_string({"--backoff-max"}, &backoff_max, "SEC", "retry backoff cap");
  cli.add_u64({"--backoff-seed"}, &backoff_seed, "N", "retry backoff jitter seed");
  cli.add_string({"--echo"}, &echo, "STR", "ping: text to echo");
  cli.add_u64({"--sleep-ms"}, &sleep_ms, "MS", "ping: hold a worker this long");
  cli.add_u64({"--app-index"}, &app_index, "I", "design: paper-fleet app index");
  cli.add_u64({"--apps"}, &apps, "N", "alloc/sched: applications per fleet");
  cli.add_string({"--util"}, &util_s, "U", "alloc/sched: target utilization");
  cli.add_string({"--max-app-util"}, &max_app_util_s, "U",
                 "alloc/sched: per-app utilization cap");
  cli.add_string({"--period-lo"}, &period_lo_s, "SEC", "alloc/sched: period range low");
  cli.add_string({"--period-hi"}, &period_hi_s, "SEC", "alloc/sched: period range high");
  cli.add_string({"--deadline-frac-lo"}, &deadline_frac_lo_s, "F",
                 "alloc/sched: deadline fraction low");
  cli.add_string({"--deadline-frac-hi"}, &deadline_frac_hi_s, "F",
                 "alloc/sched: deadline fraction high");
  cli.add_u64({"--seed"}, &seed, "N", "alloc/sched: fleet draw seed");
  cli.add_string({"--allocator"}, &allocator, "KIND", "alloc: ff|bf|exact");
  cli.add_string({"--method"}, &method, "M", "alloc/sched: bound|fixed-point");
  cli.add_u64({"--max-slots"}, &max_slots, "N", "alloc: slot cap (0 = unlimited)");
  cli.add_string({"--fixture-store"}, &fixture_store_dir, "DIR",
                 "--local: attach the persistent fixture store");

  QuerySpec spec;
  cps::runtime::BackoffPolicy backoff;
  try {
    const auto positionals = cli.parse({argv + 1, argv + argc});
    if (cli.help_requested()) {
      std::fputs(cli.help().c_str(), stdout);
      return 0;
    }
    if (positionals.size() != 1)
      throw CliError("exactly one operation (ping|curve|design|alloc|sched|stats)");
    if (!local && socket_path.empty() && tcp_port == 0)
      throw CliError("--socket PATH (or --port / --local) is required");

    backoff.base_seconds = parse_cli_double(backoff_base, "--backoff-base");
    backoff.factor = parse_cli_double(backoff_factor, "--backoff-factor");
    backoff.max_seconds = parse_cli_double(backoff_max, "--backoff-max");
    backoff.seed = backoff_seed;

    cps::serve::FleetQuery fleet;
    fleet.n_apps = apps;
    fleet.target_utilization = parse_cli_double(util_s, "--util");
    fleet.max_app_utilization = parse_cli_double(max_app_util_s, "--max-app-util");
    fleet.period_lo = parse_cli_double(period_lo_s, "--period-lo");
    fleet.period_hi = parse_cli_double(period_hi_s, "--period-hi");
    fleet.deadline_frac_lo = parse_cli_double(deadline_frac_lo_s, "--deadline-frac-lo");
    fleet.deadline_frac_hi = parse_cli_double(deadline_frac_hi_s, "--deadline-frac-hi");
    fleet.seed = seed;

    const std::string& op = positionals.front();
    cps::util::BinaryWriter payload;
    if (op == "ping") {
      spec.opcode = Opcode::kPing;
      cps::serve::PingRequest request;
      request.echo = echo;
      request.sleep_ms = sleep_ms;
      request.encode(payload);
    } else if (op == "curve") {
      spec.opcode = Opcode::kCurve;
    } else if (op == "design") {
      spec.opcode = Opcode::kLoopDesign;
      cps::serve::LoopDesignRequest request;
      request.app_index = app_index;
      request.encode(payload);
    } else if (op == "alloc") {
      spec.opcode = Opcode::kAllocate;
      cps::serve::AllocateRequest request;
      request.fleet = fleet;
      if (allocator == "ff")
        request.allocator = static_cast<std::uint64_t>(cps::serve::AllocatorKind::kFirstFit);
      else if (allocator == "bf")
        request.allocator = static_cast<std::uint64_t>(cps::serve::AllocatorKind::kBestFit);
      else if (allocator == "exact")
        request.allocator = static_cast<std::uint64_t>(cps::serve::AllocatorKind::kExact);
      else
        throw CliError("--allocator must be ff, bf or exact");
      if (method == "bound")
        request.method = 0;
      else if (method == "fixed-point")
        request.method = 1;
      else
        throw CliError("--method must be bound or fixed-point");
      request.max_slots = max_slots;
      request.encode(payload);
    } else if (op == "sched") {
      spec.opcode = Opcode::kSchedCheck;
      cps::serve::SchedCheckRequest request;
      request.fleet = fleet;
      if (method == "bound")
        request.method = 0;
      else if (method == "fixed-point")
        request.method = 1;
      else
        throw CliError("--method must be bound or fixed-point");
      request.encode(payload);
    } else if (op == "stats") {
      spec.opcode = Opcode::kStats;
    } else {
      throw CliError("unknown operation '" + op + "'");
    }
    spec.payload = payload.take();
  } catch (const CliError& error) {
    std::fprintf(stderr, "cps_query: %s\n%s", error.what(), cli.help().c_str());
    return 2;
  }

  try {
    // One request with shed-retries; returns the final (status, payload).
    const auto run_once = [&](std::size_t stream) -> std::pair<Status, std::string> {
      for (int attempt = 1;; ++attempt) {
        Status status;
        std::string payload;
        if (local) {
          cps::serve::QueryContext context;  // no deadline, no server stats
          auto result = cps::serve::dispatch(spec.opcode, spec.payload, context);
          status = result.status;
          payload = std::move(result.payload);
        } else {
          cps::serve::ClientOptions options;
          options.socket_path = socket_path;
          options.tcp_port = static_cast<int>(tcp_port);
          options.timeout_ms = static_cast<int>(timeout_ms);
          cps::serve::QueryClient client(std::move(options));
          auto reply = client.call(spec.opcode, spec.payload,
                                   static_cast<std::uint32_t>(deadline_ms));
          status = reply.status();
          payload = std::move(reply.payload);
        }
        if (status != Status::kOverloaded || attempt > static_cast<int>(retries))
          return {status, std::move(payload)};
        const double delay = cps::runtime::backoff_delay(backoff, stream, attempt);
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    };

    if (local && !fixture_store_dir.empty())
      cps::runtime::FixtureCache::instance().set_store(
          std::make_shared<cps::runtime::FixtureStore>(fixture_store_dir));

    if (repeat <= 1 && concurrency <= 1) {
      const auto [status, payload] = run_once(0);
      print_reply(spec.opcode, status, payload);
      return status == Status::kOk ? 0 : 1;
    }

    // Load mode: `repeat` requests across `concurrency` threads; count
    // final statuses (after retries) per kind.
    const std::size_t n_threads = std::max<std::uint64_t>(1, concurrency);
    std::atomic<std::uint64_t> next{0};
    std::vector<std::vector<std::uint64_t>> counts(
        n_threads, std::vector<std::uint64_t>(6, 0));
    std::atomic<std::uint64_t> transport_errors{0};
    std::vector<std::thread> threads;
    threads.reserve(n_threads);
    for (std::size_t t = 0; t < n_threads; ++t) {
      threads.emplace_back([&, t] {
        while (next.fetch_add(1, std::memory_order_relaxed) < repeat) {
          try {
            const auto [status, payload] = run_once(t);
            const auto index = static_cast<std::size_t>(status);
            if (index < counts[t].size()) ++counts[t][index];
          } catch (const std::exception&) {
            transport_errors.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();

    std::uint64_t total[6] = {0, 0, 0, 0, 0, 0};
    for (const auto& per_thread : counts)
      for (std::size_t i = 0; i < 6; ++i) total[i] += per_thread[i];
    std::printf("repeat %llu concurrency %llu\n",
                static_cast<unsigned long long>(repeat),
                static_cast<unsigned long long>(n_threads));
    for (std::size_t i = 0; i < 6; ++i)
      std::printf("%s %llu\n", cps::serve::status_name(static_cast<Status>(i)),
                  static_cast<unsigned long long>(total[i]));
    std::printf("transport_error %llu\n",
                static_cast<unsigned long long>(transport_errors.load()));
    return (total[static_cast<std::size_t>(Status::kOk)] > 0 &&
            transport_errors.load() == 0)
               ? 0
               : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cps_query: %s\n", error.what());
    return 1;
  }
}
