// The cps_serve daemon core: a resident query server over the frame
// protocol (serve/protocol.hpp) and query catalog (serve/queries.hpp).
//
// Architecture — one poll(2) thread owning every socket, plus a worker
// pool owning every query:
//
//   * the poll thread accepts connections (Unix-domain socket always,
//     loopback TCP optionally), parses frames, enforces per-connection
//     read/write/idle timeouts, runs admission control, stamps request
//     deadlines and flips their cancel flags when they expire, and
//     flushes response bytes;
//   * workers pop admitted requests off ONE bounded queue, run
//     serve::dispatch, and hand the encoded response frame back to the
//     poll thread through a completion list plus a self-pipe wakeup.
//
// Robustness contract (the reason this server exists):
//   * Admission control: the queue is bounded (`max_queue`); a request
//     arriving while it is full is answered immediately with
//     Status::kOverloaded — a machine-readable shed the client retries
//     on (runtime/backoff.hpp), never an unbounded latency cliff.
//   * Per-request deadlines: a request whose header carries deadline_ms
//     is cancelled cooperatively once the budget expires — the poll
//     thread flips its atomic flag, the handler (including the exact
//     allocator's branch-and-bound via AllocationOptions::cancel)
//     observes it within a few dozen search nodes and the client gets
//     Status::kDeadlineExceeded instead of starving a worker.
//   * Per-connection isolation: a slow-loris peer (header started, never
//     finished) trips the read timeout; a peer that stops draining its
//     responses trips the write timeout; a frame with a bad magic or an
//     oversized length drops THAT connection — other connections never
//     notice any of it.
//   * Graceful drain: when the drain flag rises (SIGTERM/SIGINT in the
//     daemon) the server stops accepting, answers new requests with
//     Status::kShuttingDown, lets in-flight ones finish or deadline out,
//     flushes every response, and returns from run() — exit 0, nothing
//     torn.  runtime::crash_point("serve_ready"/"serve_drain") instrument
//     the two windows the crash-restart tests kill.
#pragma once

#include <atomic>
#include <csignal>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/queries.hpp"

namespace cps::serve {

/// Server configuration (all knobs surfaced as cps_serve flags).
struct ServeOptions {
  /// Unix-domain socket path (required; ~100 char OS limit applies).
  std::string socket_path;
  /// Optional loopback TCP port; 0 = Unix socket only.
  int tcp_port = 0;
  /// Worker threads running queries.
  int workers = 2;
  /// Bounded request queue: admitted-but-not-started requests beyond
  /// this are shed with Status::kOverloaded.
  std::size_t max_queue = 64;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 64;
  /// Drop a connection whose started frame stays incomplete this long.
  int read_timeout_ms = 5000;
  /// Drop a connection that has not drained its responses for this long.
  int write_timeout_ms = 5000;
  /// Close a connection with no traffic and nothing pending after this.
  int idle_timeout_ms = 60000;
  /// Per-frame payload cap (<= kMaxPayloadBytes).
  std::uint32_t max_payload = kMaxPayloadBytes;
  /// Async-signal-safe drain trigger: the daemon's SIGTERM/SIGINT
  /// handler sets the pointee; the poll loop re-checks it at least every
  /// poll timeout.  May be null (then only request_drain() drains).
  const volatile std::sig_atomic_t* drain_flag = nullptr;
  /// When non-empty, this file is written (atomically) once the server
  /// is accepting — scripts poll for it instead of retrying connects.
  /// A failed write is reported on stderr; the server keeps serving.
  std::string ready_file;
};

/// Monotonic server counters, exported through Opcode::kStats and the
/// drain-time summary.  Plain atomics: single-writer poll thread for the
/// connection counters, any worker for the request ones.
struct ServerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_rejected{0};   ///< max_connections hit
  std::atomic<std::uint64_t> connections_dropped{0};    ///< framing/timeout kills
  std::atomic<std::uint64_t> requests_admitted{0};
  std::atomic<std::uint64_t> requests_shed{0};          ///< kOverloaded answers
  std::atomic<std::uint64_t> requests_rejected_drain{0};///< kShuttingDown answers
  std::atomic<std::uint64_t> requests_completed{0};
  std::atomic<std::uint64_t> deadline_expired{0};       ///< cancel flags flipped
  std::atomic<std::uint64_t> bad_frames{0};             ///< version/decode rejects

  /// Snapshot as (name, value) pairs — the kStats payload — extended
  /// with the process fixture-cache and fixture-store counters so a
  /// client can watch the warm path getting warm.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;
};

/// One server instance.  Construct, then run() on the serving thread;
/// run() blocks until a drain completes and is safe to call once.
class Server {
 public:
  /// Opens the wake pipe; throws cps::Error when that fails.
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the sockets, spawn the workers, serve until drained.  Throws
  /// cps::Error when binding fails; after a successful bind it only
  /// returns through the drain path.
  void run();

  /// Programmatic drain trigger (tests, in-process benches): same
  /// semantics as the drain flag rising, but it also wakes the poll loop,
  /// so an idle server starts draining at once.  Callable from any
  /// thread, before, during or after run().
  void request_drain();

  /// True from the moment the sockets are accepting (after the ready
  /// file, when one is configured) until run() returns.
  bool serving() const { return serving_.load(std::memory_order_acquire); }

  const ServerStats& stats() const { return stats_; }
  const ServeOptions& options() const { return options_; }

 private:
  void wake();

  ServeOptions options_;
  ServerStats stats_;
  std::atomic<bool> drain_requested_{false};
  /// Self-pipe waking the poll loop (worker completions, request_drain).
  /// Open for the Server's whole lifetime, so a late request_drain()
  /// never writes into a closed or reused descriptor.
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> serving_{false};
};

}  // namespace cps::serve
