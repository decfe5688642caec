// cps_serve — the resident query daemon (src/serve/).
//
// Serves warm-path queries (dwell/wait curve, loop designs, slot
// allocation, schedulability verdicts) over a Unix-domain socket —
// optionally also loopback TCP — from the process fixture cache, backed
// by the persistent store when --fixture-store is given.  See
// docs/ARCHITECTURE.md (server section) for the frame protocol and the
// admission-control / drain semantics.
//
// Memory stays bounded whatever clients send: the fixture cache keeps
// the runtime::FixtureCache::kMaxEntries (4096) most recently used
// fixtures, and a fleet query may ask for at most
// serve::kMaxFleetApps (64) applications, so never-seen fleet seeds
// evict each other instead of growing the process.  An attached
// --fixture-store still grows by one file per never-seen fleet.
//
// Exit codes: 0 after a graceful drain (SIGTERM/SIGINT), 1 on startup
// or serving failure, 2 on usage errors.
//
//   cps_serve --socket /tmp/cps.sock [options]
//
//   --socket PATH         Unix-domain socket to serve on (required)
//   --listen PORT         also serve on 127.0.0.1:PORT
//   --workers N           query worker threads (default 2)
//   --max-queue N         admission bound: pending requests beyond this
//                         are shed with `overloaded` (default 64)
//   --max-conns N         accepted connections cap (default 64)
//   --read-timeout-ms N   drop a connection mid-frame this long (5000)
//   --write-timeout-ms N  drop a connection not draining responses (5000)
//   --idle-timeout-ms N   close a silent idle connection (60000)
//   --fixture-store DIR   attach the persistent fixture store
//   --ready-file FILE     publish FILE once accepting (scripts poll it)
//   --warm                pre-compute curve + fleet + designs before
//                         accepting, so first queries are already warm

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "experiments/fixtures.hpp"
#include "runtime/cli.hpp"
#include "runtime/fixture_cache.hpp"
#include "runtime/fixture_store.hpp"
#include "serve/server.hpp"
#include "util/signal_safe.hpp"

namespace {

// Written by the signal handler, read by the server's poll loop at
// least every poll timeout.  The handler does nothing else — every
// consequence of the signal runs on the serving thread.
volatile std::sig_atomic_t g_drain = 0;

void on_drain_signal(int) { g_drain = 1; }

}  // namespace

int main(int argc, char** argv) {
  using cps::runtime::CliError;
  using cps::runtime::CliParser;

  std::string socket_path;
  std::uint64_t listen_port = 0;
  std::uint64_t workers = 2;
  std::uint64_t max_queue = 64;
  std::uint64_t max_conns = 64;
  std::uint64_t read_timeout_ms = 5000;
  std::uint64_t write_timeout_ms = 5000;
  std::uint64_t idle_timeout_ms = 60000;
  std::string fixture_store_dir;
  std::string ready_file;
  bool warm = false;

  CliParser cli("cps_serve", "");
  cli.add_string({"--socket"}, &socket_path, "PATH",
                 "Unix-domain socket path to serve on (required)");
  cli.add_u64({"--listen"}, &listen_port, "PORT",
              "also accept loopback TCP connections on 127.0.0.1:PORT");
  cli.add_u64({"--workers"}, &workers, "N", "query worker threads");
  cli.add_u64({"--max-queue"}, &max_queue, "N",
              "bounded admission queue; beyond it requests are shed with 'overloaded'");
  cli.add_u64({"--max-conns"}, &max_conns, "N", "accepted-connection cap");
  cli.add_u64({"--read-timeout-ms"}, &read_timeout_ms, "MS",
              "drop a connection whose frame stays incomplete this long");
  cli.add_u64({"--write-timeout-ms"}, &write_timeout_ms, "MS",
              "drop a connection that stops draining its responses");
  cli.add_u64({"--idle-timeout-ms"}, &idle_timeout_ms, "MS",
              "close a connection with no traffic and nothing pending");
  cli.add_string({"--fixture-store"}, &fixture_store_dir, "DIR",
                 "attach the persistent fixture store (warm restarts)");
  cli.add_string({"--ready-file"}, &ready_file, "FILE",
                 "publish FILE once the server is accepting");
  cli.add_flag({"--warm"}, &warm,
               "pre-compute curve/fleet/designs before accepting");

  try {
    const auto positionals = cli.parse({argv + 1, argv + argc});
    if (cli.help_requested()) {
      std::fputs(cli.help().c_str(), stdout);
      return 0;
    }
    if (!positionals.empty()) throw CliError("cps_serve takes no positional arguments");
    if (socket_path.empty()) throw CliError("--socket is required");
  } catch (const CliError& error) {
    std::fprintf(stderr, "cps_serve: %s\n%s", error.what(), cli.help().c_str());
    return 2;
  }

  try {
    if (!fixture_store_dir.empty())
      cps::runtime::FixtureCache::instance().set_store(
          std::make_shared<cps::runtime::FixtureStore>(fixture_store_dir));

    if (warm) {
      // Pay the expensive fixtures up front (or load them from the
      // store), so the first client query is already a memory hit.
      std::fputs("cps_serve: warming fixtures...\n", stderr);
      cps::experiments::measure_servo_curve();
      const auto fleet = cps::experiments::paper_fleet();
      for (std::size_t i = 0; i < fleet->size(); ++i)
        cps::experiments::paper_loop_design(i);
      std::fputs("cps_serve: fixtures warm\n", stderr);
    }

    // Plain flag-setting handlers: the poll loop observes g_drain and
    // runs the actual drain on the serving thread.
    std::signal(SIGTERM, on_drain_signal);
    std::signal(SIGINT, on_drain_signal);
    std::signal(SIGPIPE, SIG_IGN);  // peer resets surface as EPIPE, not death

    cps::serve::ServeOptions options;
    options.socket_path = socket_path;
    options.tcp_port = static_cast<int>(listen_port);
    options.workers = static_cast<int>(workers);
    options.max_queue = static_cast<std::size_t>(max_queue);
    options.max_connections = static_cast<std::size_t>(max_conns);
    options.read_timeout_ms = static_cast<int>(read_timeout_ms);
    options.write_timeout_ms = static_cast<int>(write_timeout_ms);
    options.idle_timeout_ms = static_cast<int>(idle_timeout_ms);
    options.drain_flag = &g_drain;
    options.ready_file = ready_file;

    cps::serve::Server server(std::move(options));
    std::fprintf(stderr, "cps_serve: serving on %s%s\n", socket_path.c_str(),
                 listen_port > 0
                     ? (" and 127.0.0.1:" + std::to_string(listen_port)).c_str()
                     : "");
    server.run();

    // Graceful drain completed: print the final counters.  fprintf is
    // fine here — we are on the main thread, outside any signal handler
    // (the handler only set a flag).
    std::fputs("cps_serve: drained; final counters:\n", stderr);
    for (const auto& [name, value] : server.stats().snapshot())
      std::fprintf(stderr, "  %-28s %llu\n", name.c_str(),
                   static_cast<unsigned long long>(value));
    return 0;
  } catch (const std::exception& error) {
    // Teardown logging via the async-signal-safe writer: this path can
    // race worker threads being torn down, and stderr stdio locks are
    // the one thing we must not depend on while exiting abnormally.
    cps::util::safe_write_str(2, "cps_serve: fatal: ");
    cps::util::safe_write_str(2, error.what());
    cps::util::safe_write_str(2, "\n");
    return 1;
  }
}
