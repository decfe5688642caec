// Resident-daemon query bench: spins the real serve::Server in-process
// on a temp Unix socket and times warm-path queries end to end (client
// encode -> socket -> admission -> worker dispatch -> socket -> decode).
//
// Measurements:
//  * serve_qps_ping_rtt            — protocol + scheduling floor (no query)
//  * serve_qps_curve_warm          — resident dwell/wait curve lookup
//  * serve_qps_sched_check_warm    — cached fleet draw + one-slot analysis
//  * serve_qps_alloc_ff_warm       — cached fleet draw + first-fit packing
//  * serve_qps_ping_throughput_c4  — 4 concurrent clients, mean per-request
//
// The *_warm numbers deliberately exclude the first request (which pays
// the fixture compute): the bench reports what a RESIDENT server does,
// which is the daemon's reason to exist.  Emits Google-Benchmark-
// compatible JSON (bench/self_json.hpp), recorded by CI's warn-only
// campaign lane.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "self_json.hpp"
#include "serve/client.hpp"
#include "serve/queries.hpp"
#include "serve/server.hpp"
#include "util/serialize.hpp"

namespace {

using namespace cps::serve;

constexpr int kIterations = 200;        ///< per single-client measurement
constexpr int kThroughputPerClient = 100;
constexpr int kThroughputClients = 4;

std::string encode_ping_request() {
  PingRequest ping{"bench", 0};
  cps::util::BinaryWriter out;
  ping.encode(out);
  return out.take();
}

std::string encode_sched_request() {
  SchedCheckRequest request;
  request.fleet.n_apps = 10;
  request.fleet.target_utilization = 0.7;
  request.fleet.seed = 1;
  cps::util::BinaryWriter out;
  request.encode(out);
  return out.take();
}

std::string encode_alloc_request() {
  AllocateRequest request;
  request.fleet.n_apps = 10;
  request.fleet.target_utilization = 0.7;
  request.fleet.seed = 1;
  request.allocator = static_cast<std::uint64_t>(AllocatorKind::kFirstFit);
  cps::util::BinaryWriter out;
  request.encode(out);
  return out.take();
}

/// Median-of-iterations round-trip time of one (opcode, payload) query.
double time_query(QueryClient& client, Opcode opcode, const std::string& payload) {
  // One untimed warm-up so the fixture compute never lands in the timing.
  if (!client.call(opcode, payload).ok()) {
    std::fprintf(stderr, "serve_qps: warm-up query failed\n");
    std::exit(1);
  }
  std::vector<double> samples;
  samples.reserve(kIterations);
  for (int i = 0; i < kIterations; ++i) {
    const auto start = std::chrono::steady_clock::now();
    if (!client.call(opcode, payload).ok()) {
      std::fprintf(stderr, "serve_qps: timed query failed\n");
      std::exit(1);
    }
    samples.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2, samples.end());
  return samples[samples.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  (void)argc;
  (void)argv;
  cps::bench::SelfJson report("serve_qps");

  const std::string socket_path =
      "/tmp/cps_qps_" + std::to_string(::getpid()) + ".sock";
  ServeOptions options;
  options.socket_path = socket_path;
  options.workers = 4;
  options.max_queue = 256;
  Server server(std::move(options));
  std::thread server_thread([&] { server.run(); });
  for (int i = 0; i < 500 && !server.serving(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (!server.serving()) {
    std::fprintf(stderr, "serve_qps: server did not come up\n");
    return 1;
  }

  {
    ClientOptions client_options;
    client_options.socket_path = socket_path;
    QueryClient client(std::move(client_options));
    report.record("serve_qps_ping_rtt",
                  time_query(client, Opcode::kPing, encode_ping_request()));
    report.record("serve_qps_curve_warm", time_query(client, Opcode::kCurve, ""));
    report.record("serve_qps_sched_check_warm",
                  time_query(client, Opcode::kSchedCheck, encode_sched_request()));
    report.record("serve_qps_alloc_ff_warm",
                  time_query(client, Opcode::kAllocate, encode_alloc_request()));
  }

  {
    // Concurrent throughput: mean per-request wall across 4 clients
    // hammering pings (queue deep enough that nothing is shed).
    const std::string payload = encode_ping_request();
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    clients.reserve(kThroughputClients);
    for (int c = 0; c < kThroughputClients; ++c) {
      clients.emplace_back([&] {
        ClientOptions client_options;
        client_options.socket_path = socket_path;
        QueryClient client(std::move(client_options));
        for (int i = 0; i < kThroughputPerClient; ++i)
          if (!client.call(Opcode::kPing, payload).ok()) std::abort();
      });
    }
    for (auto& thread : clients) thread.join();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    report.record("serve_qps_ping_throughput_c4",
                  wall / (kThroughputClients * kThroughputPerClient));
  }

  server.request_drain();
  server_thread.join();

  report.print();
  return 0;
}
