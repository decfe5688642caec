#include "serve/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "runtime/crash_point.hpp"
#include "runtime/fixture_cache.hpp"
#include "util/error.hpp"
#include "util/file.hpp"

namespace cps::serve {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One admitted request travelling from the poll thread to a worker and
/// back.  The poll thread flips `cancel` when the deadline passes; the
/// handler observes it cooperatively.
struct Request {
  std::uint64_t conn_id = 0;
  FrameHeader header;  ///< request header; kind is the Opcode
  std::string payload;
  Clock::time_point deadline = Clock::time_point::max();
  std::atomic<bool> cancel{false};
};

/// One completed request on its way back to the poll thread.
struct Completion {
  std::uint64_t conn_id = 0;
  std::string frame;  ///< fully encoded response frame
};

/// Poll-thread-owned connection state.
struct Conn {
  int fd = -1;
  std::uint64_t id = 0;
  std::string rbuf;           ///< bytes received, not yet parsed
  std::string wbuf;           ///< response bytes not yet written
  std::size_t woff = 0;       ///< wbuf bytes already written
  std::size_t inflight = 0;   ///< requests of this connection in the pool
  Clock::time_point last_activity;  ///< last successful read
  Clock::time_point write_since;    ///< wbuf has been non-empty since then
  bool dead = false;          ///< drop as soon as bookkeeping allows
};

std::string error_frame(const FrameHeader& request, Status status, const std::string& what) {
  FrameHeader response;
  response.kind = static_cast<std::uint16_t>(status);
  response.request_id = request.request_id;
  return encode_frame(response, encode_error_payload(what));
}

}  // namespace

std::vector<std::pair<std::string, std::uint64_t>> ServerStats::snapshot() const {
  std::vector<std::pair<std::string, std::uint64_t>> counters = {
      {"connections_accepted", connections_accepted.load()},
      {"connections_rejected", connections_rejected.load()},
      {"connections_dropped", connections_dropped.load()},
      {"requests_admitted", requests_admitted.load()},
      {"requests_shed", requests_shed.load()},
      {"requests_rejected_drain", requests_rejected_drain.load()},
      {"requests_completed", requests_completed.load()},
      {"deadline_expired", deadline_expired.load()},
      {"bad_frames", bad_frames.load()},
  };
  const auto cache = runtime::FixtureCache::instance().stats();
  counters.emplace_back("fixture_cache_hits", cache.hits);
  counters.emplace_back("fixture_cache_misses", cache.misses);
  counters.emplace_back("fixture_cache_entries", cache.entries);
  counters.emplace_back("fixture_cache_evictions", cache.evictions);
  if (const auto store = runtime::FixtureCache::instance().store()) {
    const auto disk = store->stats();
    counters.emplace_back("fixture_store_disk_hits", disk.disk_hits);
    counters.emplace_back("fixture_store_disk_misses", disk.disk_misses);
    counters.emplace_back("fixture_store_writes", disk.writes);
    counters.emplace_back("fixture_store_invalid", disk.invalid);
  }
  return counters;
}

Server::Server(ServeOptions options) : options_(std::move(options)) {
  CPS_ENSURE(::pipe(wake_pipe_) == 0, "cps_serve: pipe() failed");
  set_nonblocking(wake_pipe_[0]);
  set_nonblocking(wake_pipe_[1]);
}

Server::~Server() {
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

void Server::wake() {
  const char byte = 1;
  [[maybe_unused]] const auto n = ::write(wake_pipe_[1], &byte, 1);  // full: already awake
}

void Server::request_drain() {
  drain_requested_.store(true, std::memory_order_relaxed);
  wake();
}

void Server::run() {
  CPS_ENSURE(!options_.socket_path.empty(), "cps_serve: a socket path is required");
  CPS_ENSURE(options_.workers >= 1, "cps_serve: workers must be >= 1");
  CPS_ENSURE(options_.max_queue >= 1, "cps_serve: max_queue must be >= 1");
  CPS_ENSURE(options_.max_payload <= kMaxPayloadBytes,
             "cps_serve: max_payload beyond the protocol cap");

  // --- listeners -------------------------------------------------------
  std::vector<int> listen_fds;
  const int unix_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  CPS_ENSURE(unix_fd >= 0, "cps_serve: socket(AF_UNIX) failed");
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    CPS_ENSURE(options_.socket_path.size() < sizeof(addr.sun_path),
               "cps_serve: socket path too long for AF_UNIX");
    std::memcpy(addr.sun_path, options_.socket_path.c_str(),
                options_.socket_path.size() + 1);
    ::unlink(options_.socket_path.c_str());  // stale socket from a crash
    if (::bind(unix_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(unix_fd);
      throw Error("cps_serve: cannot bind " + options_.socket_path + ": " +
                  std::strerror(errno));
    }
    CPS_ENSURE(::listen(unix_fd, 64) == 0, "cps_serve: listen(unix) failed");
    set_nonblocking(unix_fd);
    listen_fds.push_back(unix_fd);
  }
  if (options_.tcp_port > 0) {
    const int tcp_fd = ::socket(AF_INET, SOCK_STREAM, 0);
    CPS_ENSURE(tcp_fd >= 0, "cps_serve: socket(AF_INET) failed");
    const int one = 1;
    ::setsockopt(tcp_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(tcp_fd);
      ::close(unix_fd);
      ::unlink(options_.socket_path.c_str());
      throw Error("cps_serve: cannot bind 127.0.0.1:" +
                  std::to_string(options_.tcp_port) + ": " + std::strerror(errno));
    }
    CPS_ENSURE(::listen(tcp_fd, 64) == 0, "cps_serve: listen(tcp) failed");
    set_nonblocking(tcp_fd);
    listen_fds.push_back(tcp_fd);
  }

  // --- shared worker state --------------------------------------------
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::shared_ptr<Request>> queue;
  std::vector<std::shared_ptr<Request>> inflight;  // queued or running
  std::vector<Completion> completions;
  bool stop_workers = false;

  const auto stats_fn = [this] { return stats_.snapshot(); };

  auto worker_main = [&] {
    for (;;) {
      std::shared_ptr<Request> request;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return stop_workers || !queue.empty(); });
        if (queue.empty()) return;  // stop requested and nothing left
        request = std::move(queue.front());
        queue.pop_front();
      }
      QueryResult result;
      if (request->cancel.load(std::memory_order_relaxed)) {
        // Deadline passed while queued: answer without running anything.
        result = {Status::kDeadlineExceeded,
                  encode_error_payload("deadline expired before the query started")};
      } else {
        QueryContext context;
        context.cancel = &request->cancel;
        context.stats = stats_fn;
        result = dispatch(static_cast<Opcode>(request->header.kind),
                          request->payload, context);
      }
      FrameHeader response;
      response.kind = static_cast<std::uint16_t>(result.status);
      response.request_id = request->header.request_id;
      Completion completion{request->conn_id, encode_frame(response, result.payload)};
      {
        std::lock_guard<std::mutex> lock(mu);
        completions.push_back(std::move(completion));
        inflight.erase(std::find(inflight.begin(), inflight.end(), request));
      }
      stats_.requests_completed.fetch_add(1, std::memory_order_relaxed);
      wake();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(options_.workers));
  for (int i = 0; i < options_.workers; ++i) workers.emplace_back(worker_main);

  // Sockets bound, workers running — the window a daemon can die in
  // before anyone could observe it (crash-restart tests kill here).
  runtime::crash_point("serve_ready");

  if (!options_.ready_file.empty()) {
    // Report and keep serving: a throw here, with the workers running,
    // would terminate the process.
    try {
      util::write_text_atomic(options_.ready_file, "ready\n", "ready file");
    } catch (const Error& error) {
      std::fprintf(stderr, "cps_serve: %s\n", error.what());
    }
  }
  serving_.store(true, std::memory_order_release);

  // --- poll loop -------------------------------------------------------
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 1;
  bool draining = false;

  const auto read_timeout = std::chrono::milliseconds(options_.read_timeout_ms);
  const auto write_timeout = std::chrono::milliseconds(options_.write_timeout_ms);
  const auto idle_timeout = std::chrono::milliseconds(options_.idle_timeout_ms);

  const auto drop_conn = [&](Conn& conn, bool count_drop) {
    if (conn.dead) return;
    conn.dead = true;
    ::close(conn.fd);
    conn.fd = -1;
    if (count_drop) stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
  };

  const auto enqueue_response = [](Conn& conn, std::string frame) {
    if (conn.wbuf.empty()) conn.write_since = Clock::now();
    conn.wbuf += frame;
  };

  // Parse every complete frame buffered on `conn`, admitting / shedding
  // each.  Returns false when the connection must be dropped (framing).
  const auto parse_frames = [&](Conn& conn) -> bool {
    for (;;) {
      if (conn.rbuf.size() < kHeaderSize) return true;
      FrameHeader header;
      const HeaderError framing = decode_header(conn.rbuf, options_.max_payload, header);
      if (framing == HeaderError::kBadMagic || framing == HeaderError::kOversizedPayload) {
        stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
        return false;  // not (or no longer) speaking the protocol: drop
      }
      const std::size_t frame_size = kHeaderSize + header.payload_size;
      if (conn.rbuf.size() < frame_size) return true;  // wait for the rest
      std::string payload = conn.rbuf.substr(kHeaderSize, header.payload_size);
      conn.rbuf.erase(0, frame_size);

      if (framing == HeaderError::kBadVersion) {
        stats_.bad_frames.fetch_add(1, std::memory_order_relaxed);
        enqueue_response(conn,
                         error_frame(header, Status::kBadRequest,
                                     "protocol version " + std::to_string(header.version) +
                                         ", server speaks " +
                                         std::to_string(kProtocolVersion)));
        continue;  // the frame was well-formed; the connection survives
      }
      if (draining) {
        stats_.requests_rejected_drain.fetch_add(1, std::memory_order_relaxed);
        enqueue_response(conn,
                         error_frame(header, Status::kShuttingDown, "server is draining"));
        continue;
      }
      std::unique_lock<std::mutex> lock(mu);
      if (queue.size() >= options_.max_queue) {
        lock.unlock();
        stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
        enqueue_response(conn,
                         error_frame(header, Status::kOverloaded,
                                     "admission queue full (" +
                                         std::to_string(options_.max_queue) +
                                         " pending); retry with backoff"));
        continue;
      }
      auto request = std::make_shared<Request>();
      request->conn_id = conn.id;
      request->header = header;
      request->payload = std::move(payload);
      if (header.deadline_ms > 0)
        request->deadline = Clock::now() + std::chrono::milliseconds(header.deadline_ms);
      // Count the admission BEFORE the worker can pop the request, so a
      // stats query never observes its own admission missing.
      stats_.requests_admitted.fetch_add(1, std::memory_order_relaxed);
      queue.push_back(request);
      inflight.push_back(std::move(request));
      lock.unlock();
      cv.notify_one();
      ++conn.inflight;
    }
  };

  std::vector<pollfd> pfds;
  std::vector<Conn*> pfd_conns;  // parallel to pfds; null for non-conn fds

  for (;;) {
    // Drain trigger: external flag (signal handler) or request_drain().
    const bool want_drain =
        drain_requested_.load(std::memory_order_relaxed) ||
        (options_.drain_flag != nullptr && *options_.drain_flag != 0);
    if (want_drain && !draining) {
      draining = true;
      for (const int fd : listen_fds) ::close(fd);
      listen_fds.clear();
    }

    // Deliver completed responses into their connections' write buffers.
    {
      std::lock_guard<std::mutex> lock(mu);
      for (auto& completion : completions) {
        const auto it = conns.find(completion.conn_id);
        if (it == conns.end()) continue;
        Conn& conn = *it->second;
        --conn.inflight;
        if (conn.dead) continue;  // peer already gone: discard the frame
        if (conn.wbuf.empty()) conn.write_since = Clock::now();
        conn.wbuf += completion.frame;
      }
      completions.clear();
    }

    // Deadline scan: flip cancel flags; workers notice within a few
    // dozen search nodes (or at their next sleep slice).
    auto next_deadline = Clock::time_point::max();
    {
      const auto now = Clock::now();
      std::lock_guard<std::mutex> lock(mu);
      for (const auto& request : inflight) {
        if (request->deadline == Clock::time_point::max()) continue;
        if (request->deadline <= now) {
          if (!request->cancel.exchange(true, std::memory_order_relaxed))
            stats_.deadline_expired.fetch_add(1, std::memory_order_relaxed);
        } else {
          next_deadline = std::min(next_deadline, request->deadline);
        }
      }
    }

    // Connection timeouts.
    {
      const auto now = Clock::now();
      for (auto& [id, conn_ptr] : conns) {
        Conn& conn = *conn_ptr;
        if (conn.dead) continue;
        if (!conn.wbuf.empty() && now - conn.write_since > write_timeout) {
          drop_conn(conn, true);
        } else if (!conn.rbuf.empty() && now - conn.last_activity > read_timeout) {
          drop_conn(conn, true);  // slow-loris: frame started, never finished
        } else if (conn.rbuf.empty() && conn.wbuf.empty() && conn.inflight == 0 &&
                   now - conn.last_activity > idle_timeout) {
          drop_conn(conn, false);
        }
      }
    }
    for (auto it = conns.begin(); it != conns.end();) {
      // A dead connection lingers only until its in-pool requests drain
      // (their completions are discarded above via the dead check).
      if (it->second->dead && it->second->inflight == 0)
        it = conns.erase(it);
      else
        ++it;
    }

    // Drain completion: nothing queued, nothing running, all flushed.
    if (draining) {
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lock(mu);
        queue_empty = queue.empty() && inflight.empty();
      }
      bool flushed = true;
      for (const auto& [id, conn] : conns)
        if (!conn->dead && !conn->wbuf.empty()) flushed = false;
      if (queue_empty && flushed) break;
    }

    // Build the poll set.
    pfds.clear();
    pfd_conns.clear();
    for (const int fd : listen_fds) {
      pfds.push_back(pollfd{fd, POLLIN, 0});
      pfd_conns.push_back(nullptr);
    }
    pfds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    pfd_conns.push_back(nullptr);
    for (auto& [id, conn] : conns) {
      if (conn->dead) continue;
      short events = POLLIN;
      if (!conn->wbuf.empty()) events |= POLLOUT;
      pfds.push_back(pollfd{conn->fd, events, 0});
      pfd_conns.push_back(conn.get());
    }

    int timeout_ms = draining ? 20 : 100;
    if (next_deadline != Clock::time_point::max()) {
      const auto until = std::chrono::duration_cast<std::chrono::milliseconds>(
                             next_deadline - Clock::now())
                             .count();
      timeout_ms = static_cast<int>(std::clamp<long long>(until, 1, timeout_ms));
    }
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR)
      throw Error(std::string("cps_serve: poll() failed: ") + std::strerror(errno));
    if (ready <= 0) continue;

    for (std::size_t i = 0; i < pfds.size(); ++i) {
      const pollfd& pfd = pfds[i];
      if (pfd.revents == 0) continue;

      if (pfd.fd == wake_pipe_[0]) {
        char buf[256];
        while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
        continue;
      }

      if (pfd_conns[i] == nullptr) {  // a listener
        for (;;) {
          const int client = ::accept(pfd.fd, nullptr, nullptr);
          if (client < 0) break;
          if (conns.size() >= options_.max_connections) {
            stats_.connections_rejected.fetch_add(1, std::memory_order_relaxed);
            ::close(client);
            continue;
          }
          set_nonblocking(client);
          auto conn = std::make_unique<Conn>();
          conn->fd = client;
          conn->id = next_conn_id++;
          conn->last_activity = Clock::now();
          stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
          conns.emplace(conn->id, std::move(conn));
        }
        continue;
      }

      Conn& conn = *pfd_conns[i];
      if (conn.dead) continue;

      if ((pfd.revents & (POLLERR | POLLNVAL)) ||
          ((pfd.revents & POLLHUP) && !(pfd.revents & POLLIN))) {
        // Peer vanished with nothing left to read.  A close right after
        // a write raises POLLIN|POLLHUP together — that case must go
        // through the read path below so the buffered bytes still get
        // their framing verdict.
        drop_conn(conn, false);
        continue;
      }
      if (pfd.revents & POLLIN) {
        char buf[kReadChunk];
        bool peer_gone = false;
        for (;;) {
          const ssize_t n = ::read(conn.fd, buf, sizeof(buf));
          if (n > 0) {
            conn.rbuf.append(buf, static_cast<std::size_t>(n));
            conn.last_activity = Clock::now();
            if (conn.rbuf.size() > kReadChunk + options_.max_payload + kHeaderSize) break;
          } else if (n == 0) {
            peer_gone = true;  // orderly EOF
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
              peer_gone = true;
            break;
          }
        }
        // Parse BEFORE honoring an EOF: the peer may have written a
        // complete (or provably garbage) frame and closed in the same
        // instant, and framing verdicts must not depend on that timing.
        if (!parse_frames(conn))
          drop_conn(conn, true);
        else if (peer_gone)
          drop_conn(conn, false);
      }
      if (!conn.dead && (pfd.revents & POLLOUT) && !conn.wbuf.empty()) {
        const ssize_t n = ::write(conn.fd, conn.wbuf.data() + conn.woff,
                                  conn.wbuf.size() - conn.woff);
        if (n > 0) {
          conn.woff += static_cast<std::size_t>(n);
          if (conn.woff == conn.wbuf.size()) {
            conn.wbuf.clear();
            conn.woff = 0;
          } else {
            conn.write_since = Clock::now();
          }
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          drop_conn(conn, false);
        }
      }
    }
  }

  // --- drain epilogue --------------------------------------------------
  // Accepting stopped, queue and in-flight empty, responses flushed; the
  // crash-restart tests SIGKILL inside this window.
  runtime::crash_point("serve_drain");

  {
    std::lock_guard<std::mutex> lock(mu);
    stop_workers = true;
  }
  cv.notify_all();
  for (auto& worker : workers) worker.join();

  for (auto& [id, conn] : conns)
    if (!conn->dead && conn->fd >= 0) ::close(conn->fd);
  conns.clear();
  for (const int fd : listen_fds) ::close(fd);
  ::unlink(options_.socket_path.c_str());
  if (!options_.ready_file.empty()) ::unlink(options_.ready_file.c_str());
  serving_.store(false, std::memory_order_release);
}

}  // namespace cps::serve
