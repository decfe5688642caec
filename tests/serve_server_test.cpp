// serve/server.hpp end to end: in-process daemons on temp Unix sockets.
// Covers the robustness headline of the server — admission-control
// sheds, per-request deadlines (queued and mid-handler), the malformed-
// frame fuzz corpus, graceful drain, and the fork-based process-level
// checks (SIGTERM exit 0, CPS_CRASH_AT kill + warm restart on the same
// fixture store).

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "runtime/fixture_cache.hpp"
#include "runtime/fixture_store.hpp"
#include "serve/client.hpp"
#include "serve/queries.hpp"
#include "util/serialize.hpp"

namespace {

using namespace cps::serve;

std::string unique_socket_path() {
  static int counter = 0;
  return "/tmp/cps_srv_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++) + ".sock";
}

/// In-process daemon on its own thread; drains on destruction.
class TestServer {
 public:
  explicit TestServer(ServeOptions options) {
    options_ = std::move(options);
    if (options_.socket_path.empty()) options_.socket_path = unique_socket_path();
    server_ = std::make_unique<Server>(options_);
    thread_ = std::thread([this] { server_->run(); });
    for (int i = 0; i < 500 && !server_->serving(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(server_->serving()) << "server did not come up";
  }

  ~TestServer() {
    if (thread_.joinable()) {
      server_->request_drain();
      thread_.join();
    }
  }

  void drain_and_join() {
    server_->request_drain();
    thread_.join();
  }

  const std::string& socket_path() const { return options_.socket_path; }
  Server& server() { return *server_; }

  QueryClient connect(int timeout_ms = 10000) const {
    ClientOptions options;
    options.socket_path = options_.socket_path;
    options.timeout_ms = timeout_ms;
    return QueryClient(std::move(options));
  }

 private:
  ServeOptions options_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

std::string encode_ping(const std::string& echo, std::uint64_t sleep_ms) {
  PingRequest ping{echo, sleep_ms};
  cps::util::BinaryWriter out;
  ping.encode(out);
  return out.take();
}

std::string encode_sched(std::uint64_t n_apps, double util, std::uint64_t seed) {
  SchedCheckRequest request;
  request.fleet.n_apps = n_apps;
  request.fleet.target_utilization = util;
  request.fleet.seed = seed;
  cps::util::BinaryWriter out;
  request.encode(out);
  return out.take();
}

/// Raw byte-level peer for the fuzz corpus (no client framing help).
int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << "raw connect to " << path;
  return fd;
}

void write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
}

TEST(ServeServerTest, PingRoundTripsThroughTheSocket) {
  TestServer daemon{ServeOptions{}};
  auto client = daemon.connect();
  const auto reply = client.call(Opcode::kPing, encode_ping("over-the-wire", 0));
  ASSERT_EQ(reply.status(), Status::kOk);
  cps::util::BinaryReader in(reply.payload);
  EXPECT_EQ(PingRequest::decode(in).echo, "over-the-wire");
}

TEST(ServeServerTest, DaemonAnswersAreByteIdenticalToLocalDispatch) {
  TestServer daemon{ServeOptions{}};
  auto client = daemon.connect();
  const std::string request = encode_sched(8, 0.7, 42);

  const auto over_socket = client.call(Opcode::kSchedCheck, request);
  const auto local = dispatch(Opcode::kSchedCheck, request, QueryContext{});
  ASSERT_EQ(over_socket.status(), Status::kOk);
  ASSERT_EQ(local.status, Status::kOk);
  EXPECT_EQ(over_socket.payload, local.payload);  // byte-for-byte

  // And again: the second daemon answer comes from the resident cache
  // and must still be the identical bytes.
  const auto warm = client.call(Opcode::kSchedCheck, request);
  ASSERT_EQ(warm.status(), Status::kOk);
  EXPECT_EQ(warm.payload, over_socket.payload);
}

TEST(ServeServerTest, SaturationShedsWithExplicitOverloaded) {
  ServeOptions options;
  options.workers = 1;
  options.max_queue = 1;
  TestServer daemon{std::move(options)};

  // Occupy the single worker...
  auto busy = daemon.connect();
  std::thread busy_thread([&] {
    const auto reply = busy.call(Opcode::kPing, encode_ping("busy", 600));
    EXPECT_EQ(reply.status(), Status::kOk);
  });
  while (daemon.server().stats().requests_admitted.load() < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));  // let it start running

  // ...fill the queue with a second...
  auto queued = daemon.connect();
  std::thread queued_thread([&] {
    const auto reply = queued.call(Opcode::kPing, encode_ping("queued", 0));
    EXPECT_EQ(reply.status(), Status::kOk);
  });
  while (daemon.server().stats().requests_admitted.load() < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // ...and the third must be shed, immediately and machine-readably.
  auto shed = daemon.connect();
  const auto reply = shed.call(Opcode::kPing, encode_ping("shed", 0));
  EXPECT_EQ(reply.status(), Status::kOverloaded);
  EXPECT_FALSE(decode_error_payload(reply.payload).empty());
  EXPECT_GE(daemon.server().stats().requests_shed.load(), 1u);

  busy_thread.join();
  queued_thread.join();
}

TEST(ServeServerTest, DeadlineCutsARunningHandlerWithinTwiceTheBudget) {
  TestServer daemon{ServeOptions{}};
  auto client = daemon.connect();
  const auto start = std::chrono::steady_clock::now();
  // 5 s of handler work against a 300 ms budget: the poll thread flips
  // the cancel flag at expiry and the sleep loop observes it within a
  // slice.
  const auto reply = client.call(Opcode::kPing, encode_ping("slow", 5000), 300);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(reply.status(), Status::kDeadlineExceeded);
  EXPECT_LT(elapsed, 600) << "deadline overshot 2x the requested budget";
  EXPECT_GE(daemon.server().stats().deadline_expired.load(), 1u);
}

TEST(ServeServerTest, DeadlineTaggedExactAllocationDeadlinesOutWhileQueued) {
  using Clock = std::chrono::steady_clock;
  ServeOptions options;
  options.workers = 1;
  TestServer daemon{std::move(options)};
  const auto expired_before = daemon.server().stats().deadline_expired.load();

  // Hold the single worker past the alloc request's deadline...
  auto busy = daemon.connect();
  const auto ping_sent = Clock::now();
  Clock::time_point ping_done;
  std::thread busy_thread([&] {
    EXPECT_EQ(busy.call(Opcode::kPing, encode_ping("busy", 300)).status(), Status::kOk);
    ping_done = Clock::now();
  });
  while (daemon.server().stats().requests_admitted.load() < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // ...so the deadline-tagged exact allocation expires in the queue and
  // is answered without the branch-and-bound ever starting.
  AllocateRequest request;
  request.fleet.n_apps = 16;
  request.fleet.target_utilization = 0.85;
  request.fleet.seed = 5;
  request.allocator = static_cast<std::uint64_t>(AllocatorKind::kExact);
  cps::util::BinaryWriter out;
  request.encode(out);
  auto client = daemon.connect();
  const auto alloc_sent = Clock::now();
  const auto reply = client.call(Opcode::kAllocate, out.bytes(), 100);
  const auto alloc_done = Clock::now();
  busy_thread.join();

  EXPECT_EQ(reply.status(), Status::kDeadlineExceeded);
  EXPECT_EQ(decode_error_payload(reply.payload), "deadline expired before the query started");
  EXPECT_EQ(daemon.server().stats().deadline_expired.load(), expired_before + 1);
  // The worker answers the expired request as soon as the ping frees it:
  // sent 50 ms after the ping, it waits less than the ping's own round
  // trip, however slow a loaded host makes both.
  EXPECT_LT(alloc_done - alloc_sent, ping_done - ping_sent);
}

// Satellite: the malformed-frame fuzz corpus.  None of these may crash,
// hang, or poison the server for well-formed peers.
TEST(ServeServerTest, MalformedFramesNeverTakeTheServerDown) {
  TestServer daemon{ServeOptions{}};
  const std::string& path = daemon.socket_path();

  {  // truncated header, then disconnect
    const int fd = raw_connect(path);
    write_all(fd, std::string(10, '\x07'));
    ::close(fd);
  }
  {  // garbage that is not even a magic (long enough to parse as header)
    const int fd = raw_connect(path);
    write_all(fd, "GET /index.html HTTP/1.1\r\nHost: nope\r\n\r\n");
    ::close(fd);
  }
  {  // valid magic, oversized payload_size: must be dropped unread
    FrameHeader header;
    header.kind = static_cast<std::uint16_t>(Opcode::kPing);
    header.payload_size = kMaxPayloadBytes + 17;
    std::string bytes;
    encode_header(header, bytes);
    const int fd = raw_connect(path);
    write_all(fd, bytes);
    ::close(fd);
  }
  {  // wrong version: answered kBadRequest, connection survives
    FrameHeader header;
    header.version = kProtocolVersion + 3;
    header.kind = static_cast<std::uint16_t>(Opcode::kPing);
    const int fd = raw_connect(path);
    write_all(fd, encode_frame(header, ""));
    char buf[256];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GE(n, static_cast<ssize_t>(kHeaderSize));
    FrameHeader response;
    ASSERT_EQ(decode_header(std::string_view(buf, kHeaderSize), kMaxPayloadBytes,
                            response),
              HeaderError::kNone);
    EXPECT_EQ(static_cast<Status>(response.kind), Status::kBadRequest);
    ::close(fd);
  }
  {  // well-formed header, garbage payload: kBadRequest, no crash
    FrameHeader header;
    header.kind = static_cast<std::uint16_t>(Opcode::kAllocate);
    const int fd = raw_connect(path);
    write_all(fd, encode_frame(header, "\xff\xfe\xfd garbage"));
    char buf[4096];
    EXPECT_GT(::recv(fd, buf, sizeof(buf), 0), 0);
    ::close(fd);
  }
  {  // mid-frame disconnect: header promises 100 bytes, 20 arrive
    FrameHeader header;
    header.kind = static_cast<std::uint16_t>(Opcode::kPing);
    header.payload_size = 100;
    std::string bytes;
    encode_header(header, bytes);
    bytes.append(20, 'x');
    const int fd = raw_connect(path);
    write_all(fd, bytes);
    ::close(fd);
  }

  // After the whole corpus, a well-formed peer still gets its answer.
  auto client = daemon.connect();
  const auto reply = client.call(Opcode::kPing, encode_ping("still-alive", 0));
  ASSERT_EQ(reply.status(), Status::kOk);
  cps::util::BinaryReader in(reply.payload);
  EXPECT_EQ(PingRequest::decode(in).echo, "still-alive");
  EXPECT_GE(daemon.server().stats().bad_frames.load(), 3u);
}

TEST(ServeServerTest, DrainFinishesInFlightAndRejectsNewRequests) {
  TestServer daemon{ServeOptions{}};
  auto inflight = daemon.connect();
  auto late = daemon.connect();  // connected BEFORE the drain begins

  std::thread inflight_thread([&] {
    const auto reply = inflight.call(Opcode::kPing, encode_ping("finish-me", 300));
    EXPECT_EQ(reply.status(), Status::kOk);  // drain completed it
  });
  while (daemon.server().stats().requests_admitted.load() < 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  daemon.server().request_drain();
  std::this_thread::sleep_for(std::chrono::milliseconds(150));  // drain observed

  // A request on a pre-existing connection is rejected machine-readably.
  const auto rejected = late.call(Opcode::kPing, encode_ping("too-late", 0));
  EXPECT_EQ(rejected.status(), Status::kShuttingDown);

  inflight_thread.join();
  daemon.drain_and_join();

  // The socket is gone: new connections must fail.
  ClientOptions options;
  options.socket_path = daemon.socket_path();
  EXPECT_THROW(QueryClient{std::move(options)}, cps::Error);
}

// request_drain() wakes the poll loop: an idle server must drain at once
// instead of sitting out its 100 ms poll timeout.
TEST(ServeServerTest, IdleDrainDoesNotWaitForThePollTimeout) {
  std::vector<double> drain_ms;
  for (int i = 0; i < 5; ++i) {
    TestServer daemon{ServeOptions{}};
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // parked in poll()
    const auto start = std::chrono::steady_clock::now();
    daemon.drain_and_join();
    drain_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
  }
  std::sort(drain_ms.begin(), drain_ms.end());
  EXPECT_LT(drain_ms[2], 30.0) << "median idle drain " << drain_ms[2] << " ms";
}

// Process-level drain: a forked daemon receiving a real SIGTERM must
// exit 0 with no partial state (the signal handler only raises a flag;
// the poll loop runs the drain).
TEST(ServeServerTest, SigtermDrainsAndExitsZero) {
  const std::string socket_path = unique_socket_path();
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: plain flag-raising handler, then serve until drained.
    static volatile std::sig_atomic_t drain = 0;
    std::signal(SIGTERM, [](int) { drain = 1; });
    ServeOptions options;
    options.socket_path = socket_path;
    options.drain_flag = &drain;
    Server server(std::move(options));
    server.run();
    ::_exit(0);
  }
  // Parent: wait until it serves, exercise it, then SIGTERM it.
  {
    bool up = false;
    for (int i = 0; i < 500 && !up; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      try {
        ClientOptions options;
        options.socket_path = socket_path;
        QueryClient client(std::move(options));
        up = client.call(Opcode::kPing, encode_ping("up?", 0)).ok();
      } catch (const cps::Error&) {
      }
    }
    ASSERT_TRUE(up) << "forked daemon never served";
  }
  ASSERT_EQ(::kill(child, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status)) << "daemon did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_NE(::access(socket_path.c_str(), F_OK), 0) << "socket not unlinked on drain";
}

// Crash-restart safety: a daemon SIGKILLed at the serve_ready crash
// site must leave its fixture store consumable by a restarted daemon,
// which then answers byte-identically to a cold local dispatch.
TEST(ServeServerTest, CrashAtServeReadyLeavesTheStoreConsumable) {
  const std::string store_dir =
      "/tmp/cps_srv_store_" + std::to_string(::getpid());
  ::mkdir(store_dir.c_str(), 0755);
  const std::string socket_path = unique_socket_path();

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::setenv("CPS_CRASH_AT", "serve_ready", 1);
    cps::runtime::FixtureCache::instance().set_store(
        std::make_shared<cps::runtime::FixtureStore>(store_dir));
    // Warm the store first (the fleet draw the parent will re-ask for),
    // so the kill exercises "store written, daemon dead before ready".
    dispatch(Opcode::kSchedCheck, encode_sched(6, 0.55, 11), QueryContext{});
    ServeOptions options;
    options.socket_path = socket_path;
    Server server(std::move(options));
    server.run();       // SIGKILL fires inside (serve_ready)
    ::_exit(42);        // unreachable when the crash site armed
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child was supposed to be SIGKILLed";
  EXPECT_EQ(WTERMSIG(status), SIGKILL);

  // Restart against the same store (in-process this time) and compare
  // a daemon answer against the pure dispatcher: the crash must not
  // have corrupted anything the warm path consumes.
  cps::runtime::FixtureCache::instance().set_store(
      std::make_shared<cps::runtime::FixtureStore>(store_dir));
  TestServer daemon{ServeOptions{}};
  auto client = daemon.connect();
  const std::string request = encode_sched(6, 0.55, 11);
  const auto over_socket = client.call(Opcode::kSchedCheck, request);
  const auto local = dispatch(Opcode::kSchedCheck, request, QueryContext{});
  ASSERT_EQ(over_socket.status(), Status::kOk);
  ASSERT_EQ(local.status, Status::kOk);
  EXPECT_EQ(over_socket.payload, local.payload);
  // Later tests serve without a store, and the store leaves no files.
  cps::runtime::FixtureCache::instance().set_store(nullptr);
  std::filesystem::remove_all(store_dir);
}

TEST(ServeServerTest, StatsReportTheLifecycleCounters) {
  TestServer daemon{ServeOptions{}};
  auto client = daemon.connect();
  ASSERT_TRUE(client.call(Opcode::kPing, encode_ping("count-me", 0)).ok());
  const auto reply = client.call(Opcode::kStats, "");
  ASSERT_EQ(reply.status(), Status::kOk);
  cps::util::BinaryReader in(reply.payload);
  const auto stats = StatsResponse::decode(in);
  bool saw_admitted = false;
  for (const auto& [name, value] : stats.counters)
    if (name == "requests_admitted") {
      saw_admitted = true;
      EXPECT_GE(value, 2u);  // the ping and this very stats request
    }
  EXPECT_TRUE(saw_admitted);
}

/// One named counter from a kStats round trip.
std::uint64_t stats_counter(QueryClient& client, const std::string& name) {
  const auto reply = client.call(Opcode::kStats, "");
  EXPECT_EQ(reply.status(), Status::kOk);
  cps::util::BinaryReader in(reply.payload);
  for (const auto& [counter, value] : StatsResponse::decode(in).counters)
    if (counter == name) return value;
  ADD_FAILURE() << "no counter " << name;
  return 0;
}

// A daemon asked for ever new fleet seeds keeps at most kMaxEntries
// fixtures: the never-seen draws evict each other, the hot fleets asked
// in between stay resident, and an evicted draw asked again recomputes
// to the identical answer.
TEST(ServeServerTest, NeverSeenSeedsKeepTheFixtureCacheBounded) {
  constexpr std::uint64_t kCap = cps::runtime::FixtureCache::kMaxEntries;
  constexpr std::uint64_t kColdSeeds = 2 * kCap + 1;
  constexpr std::uint64_t kColdSeedBase = 1000000;
  constexpr std::uint64_t kHotSeeds = 4;
  constexpr std::size_t kRechecked = 8;
  auto& cache = cps::runtime::FixtureCache::instance();
  cache.set_store(nullptr);  // memory only: a store would write a file per seed
  cache.clear();
  TestServer daemon{ServeOptions{}};
  auto client = daemon.connect();
  const auto sched = [&client](std::uint64_t seed) {
    const auto reply = client.call(Opcode::kSchedCheck, encode_sched(4, 0.5, seed));
    EXPECT_EQ(reply.status(), Status::kOk) << "seed " << seed;
    return reply.payload;
  };

  std::vector<std::string> first_answers;
  for (std::uint64_t i = 0; i < kColdSeeds; ++i) {
    if (i % 64 == 0)
      for (std::uint64_t hot = 1; hot <= kHotSeeds; ++hot) sched(hot);
    const auto answer = sched(kColdSeedBase + i);
    if (first_answers.size() < kRechecked) first_answers.push_back(answer);
  }
  EXPECT_EQ(stats_counter(client, "fixture_cache_entries"), kCap);
  EXPECT_EQ(stats_counter(client, "fixture_cache_evictions"), kColdSeeds + kHotSeeds - kCap);

  // The hot fleets were never evicted: asking again computes nothing.
  const auto misses = stats_counter(client, "fixture_cache_misses");
  for (std::uint64_t hot = 1; hot <= kHotSeeds; ++hot) sched(hot);
  EXPECT_EQ(stats_counter(client, "fixture_cache_misses"), misses);

  // The first cold draws were: they recompute, byte for byte.
  for (std::size_t i = 0; i < kRechecked; ++i)
    EXPECT_EQ(sched(kColdSeedBase + i), first_answers[i]) << "seed " << kColdSeedBase + i;
  EXPECT_EQ(stats_counter(client, "fixture_cache_misses"), misses + kRechecked);
  EXPECT_LE(stats_counter(client, "fixture_cache_entries"), kCap);
}

TEST(ServeServerTest, UnwritableReadyFileIsReportedAndServingContinues) {
  // A script waiting for the ready file would wait forever, so the failed
  // write must be loud; the server keeps serving (its workers are up).
  ServeOptions options;
  options.ready_file = "/tmp/cps_srv_missing_" + std::to_string(::getpid()) + "/ready";
  testing::internal::CaptureStderr();
  TestServer daemon{options};
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("ready file"), std::string::npos) << err;
  auto client = daemon.connect();
  EXPECT_TRUE(client.call(Opcode::kPing, encode_ping("still-up", 0)).ok());
}

}  // namespace
