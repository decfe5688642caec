// serve/protocol.hpp + serve/queries.hpp: frame encode/decode, the
// framing-error taxonomy, payload codec roundtrips, and the dispatcher's
// exception-to-status mapping — everything below the socket layer.

#include "serve/protocol.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/slot_allocation.hpp"
#include "experiments/fixtures.hpp"
#include "serve/queries.hpp"
#include "util/error.hpp"
#include "util/serialize.hpp"

namespace {

using namespace cps::serve;

TEST(ServeProtocolTest, HeaderRoundTrips) {
  FrameHeader header;
  header.kind = static_cast<std::uint16_t>(Opcode::kAllocate);
  header.request_id = 0x0123456789abcdefULL;
  header.deadline_ms = 1500;
  header.payload_size = 42;
  std::string bytes;
  encode_header(header, bytes);
  ASSERT_EQ(bytes.size(), kHeaderSize);

  FrameHeader decoded;
  ASSERT_EQ(decode_header(bytes, kMaxPayloadBytes, decoded), HeaderError::kNone);
  EXPECT_EQ(decoded.version, kProtocolVersion);
  EXPECT_EQ(decoded.kind, header.kind);
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.deadline_ms, header.deadline_ms);
  EXPECT_EQ(decoded.payload_size, header.payload_size);
}

TEST(ServeProtocolTest, EncodeFrameStampsPayloadSize) {
  FrameHeader header;
  header.payload_size = 9999;  // deliberately wrong; encode_frame restamps
  const std::string frame = encode_frame(header, "abcde");
  ASSERT_EQ(frame.size(), kHeaderSize + 5);
  FrameHeader decoded;
  ASSERT_EQ(decode_header(frame, kMaxPayloadBytes, decoded), HeaderError::kNone);
  EXPECT_EQ(decoded.payload_size, 5u);
}

TEST(ServeProtocolTest, BadMagicIsAFramingError) {
  std::string bytes(kHeaderSize, '\0');
  bytes[0] = 'X';
  FrameHeader header;
  EXPECT_EQ(decode_header(bytes, kMaxPayloadBytes, header), HeaderError::kBadMagic);
}

TEST(ServeProtocolTest, WrongVersionIsRecoverable) {
  FrameHeader header;
  header.version = kProtocolVersion + 7;
  std::string bytes;
  encode_header(header, bytes);
  FrameHeader decoded;
  EXPECT_EQ(decode_header(bytes, kMaxPayloadBytes, decoded), HeaderError::kBadVersion);
  EXPECT_EQ(decoded.version, kProtocolVersion + 7);  // reported for diagnostics
}

TEST(ServeProtocolTest, OversizedPayloadWinsOverBadVersion) {
  // Size is judged BEFORE version: an oversized frame must drop the
  // connection even when it also claims a wrong version — otherwise a
  // garbage client could force the server to buffer the payload just to
  // answer the version complaint.
  FrameHeader header;
  header.version = kProtocolVersion + 1;
  header.payload_size = kMaxPayloadBytes + 1;
  std::string bytes;
  encode_header(header, bytes);
  FrameHeader decoded;
  EXPECT_EQ(decode_header(bytes, kMaxPayloadBytes, decoded),
            HeaderError::kOversizedPayload);
}

TEST(ServeProtocolTest, StatusNamesAreStable) {
  EXPECT_STREQ(status_name(Status::kOk), "ok");
  EXPECT_STREQ(status_name(Status::kOverloaded), "overloaded");
  EXPECT_STREQ(status_name(Status::kDeadlineExceeded), "deadline_exceeded");
  EXPECT_STREQ(status_name(Status::kShuttingDown), "shutting_down");
}

TEST(ServeProtocolTest, PayloadCodecsRoundTrip) {
  {
    PingRequest ping{"hello", 25};
    cps::util::BinaryWriter out;
    ping.encode(out);
    cps::util::BinaryReader in(out.bytes());
    const auto back = PingRequest::decode(in);
    EXPECT_EQ(back.echo, "hello");
    EXPECT_EQ(back.sleep_ms, 25u);
  }
  {
    AllocateRequest request;
    request.fleet.n_apps = 12;
    request.fleet.target_utilization = 0.625;
    request.fleet.seed = 99;
    request.allocator = 2;
    request.method = 1;
    request.max_slots = 4;
    cps::util::BinaryWriter out;
    request.encode(out);
    cps::util::BinaryReader in(out.bytes());
    const auto back = AllocateRequest::decode(in);
    EXPECT_EQ(back.fleet.n_apps, 12u);
    EXPECT_DOUBLE_EQ(back.fleet.target_utilization, 0.625);
    EXPECT_EQ(back.fleet.seed, 99u);
    EXPECT_EQ(back.allocator, 2u);
    EXPECT_EQ(back.method, 1u);
    EXPECT_EQ(back.max_slots, 4u);
  }
  {
    AllocateResponse response;
    response.feasible = 1;
    response.slot_count = 2;
    response.all_schedulable = 1;
    response.slots = {{"C1", "C2"}, {"C3"}};
    cps::util::BinaryWriter out;
    response.encode(out);
    cps::util::BinaryReader in(out.bytes());
    const auto back = AllocateResponse::decode(in);
    EXPECT_EQ(back.slot_count, 2u);
    ASSERT_EQ(back.slots.size(), 2u);
    EXPECT_EQ(back.slots[0], (std::vector<std::string>{"C1", "C2"}));
    EXPECT_EQ(back.slots[1], (std::vector<std::string>{"C3"}));
  }
  {
    StatsResponse stats;
    stats.counters = {{"requests_admitted", 7}, {"requests_shed", 2}};
    cps::util::BinaryWriter out;
    stats.encode(out);
    cps::util::BinaryReader in(out.bytes());
    const auto back = StatsResponse::decode(in);
    ASSERT_EQ(back.counters.size(), 2u);
    EXPECT_EQ(back.counters[1].first, "requests_shed");
    EXPECT_EQ(back.counters[1].second, 2u);
  }
}

TEST(ServeProtocolTest, OversizedCountsAreSerializeErrors) {
  // Each payload claims 2^40 elements in a few dozen bytes: decode must
  // report an undecodable payload before it allocates anything.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  const auto payload = [](std::vector<std::uint64_t> words) {
    cps::util::BinaryWriter out;
    for (const auto word : words) out.write_u64(word);
    return out.take();
  };
  const auto decode_throws = [](const std::string& bytes, auto decode) {
    cps::util::BinaryReader in(bytes);
    EXPECT_THROW(decode(in), cps::util::SerializeError);
  };
  const auto allocate = [](cps::util::BinaryReader& in) { AllocateResponse::decode(in); };
  decode_throws(payload({1, 2, 1, kHuge}), allocate);     // slots
  decode_throws(payload({1, 2, 1, 1, kHuge}), allocate);  // names in slot 0
  decode_throws(payload({1, kHuge}),
                [](cps::util::BinaryReader& in) { SchedCheckResponse::decode(in); });
  decode_throws(payload({kHuge, 0}),
                [](cps::util::BinaryReader& in) { StatsResponse::decode(in); });
}

TEST(ServeProtocolTest, DispatchEchoesPing) {
  PingRequest ping{"echo-me", 0};
  cps::util::BinaryWriter out;
  ping.encode(out);
  const auto result = dispatch(Opcode::kPing, out.bytes(), QueryContext{});
  ASSERT_EQ(result.status, Status::kOk);
  cps::util::BinaryReader in(result.payload);
  EXPECT_EQ(PingRequest::decode(in).echo, "echo-me");
}

TEST(ServeProtocolTest, DispatchMapsUndecodablePayloadToBadRequest) {
  const auto result = dispatch(Opcode::kAllocate, "garbage", QueryContext{});
  EXPECT_EQ(result.status, Status::kBadRequest);
  EXPECT_FALSE(decode_error_payload(result.payload).empty());
}

TEST(ServeProtocolTest, DispatchMapsTrailingBytesToBadRequest) {
  // A well-formed ping with junk appended: expect_end() must reject it
  // (codec/version skew would otherwise pass silently).
  PingRequest ping{"x", 0};
  cps::util::BinaryWriter out;
  ping.encode(out);
  std::string bytes = out.take() + "junk";
  EXPECT_EQ(dispatch(Opcode::kPing, bytes, QueryContext{}).status, Status::kBadRequest);
}

TEST(ServeProtocolTest, DispatchMapsUnknownOpcodeToBadRequest) {
  EXPECT_EQ(dispatch(static_cast<Opcode>(999), "", QueryContext{}).status,
            Status::kBadRequest);
}

TEST(ServeProtocolTest, DispatchMapsInvalidArgumentToBadRequest) {
  AllocateRequest request;
  request.allocator = 77;  // no such allocator
  cps::util::BinaryWriter out;
  request.encode(out);
  const auto result = dispatch(Opcode::kAllocate, out.bytes(), QueryContext{});
  EXPECT_EQ(result.status, Status::kBadRequest);
}

// A fleet wider than the exact search's bitmask is a bad request for
// every fleet opcode, before anything is drawn: 2^40 apps used to reach
// the generator's reserve() and answer internal_error (std::bad_alloc).
TEST(ServeProtocolTest, DispatchRejectsFleetsPastTheBitmaskWidth) {
  const auto sched = [](std::uint64_t n_apps) {
    SchedCheckRequest request;
    request.fleet.n_apps = n_apps;
    cps::util::BinaryWriter out;
    request.encode(out);
    return dispatch(Opcode::kSchedCheck, out.bytes(), QueryContext{});
  };
  const auto alloc = [](std::uint64_t n_apps) {
    AllocateRequest request;
    request.fleet.n_apps = n_apps;
    cps::util::BinaryWriter out;
    request.encode(out);
    return dispatch(Opcode::kAllocate, out.bytes(), QueryContext{});
  };
  for (const std::uint64_t n_apps : {kMaxFleetApps + 1, std::uint64_t{1} << 40}) {
    const auto sched_result = sched(n_apps);
    EXPECT_EQ(sched_result.status, Status::kBadRequest) << n_apps;
    EXPECT_NE(decode_error_payload(sched_result.payload).find("n_apps"), std::string::npos);
    EXPECT_EQ(alloc(n_apps).status, Status::kBadRequest) << n_apps;
  }
  EXPECT_EQ(sched(kMaxFleetApps).status, Status::kOk);
  EXPECT_EQ(alloc(kMaxFleetApps).status, Status::kOk);
}

TEST(ServeProtocolTest, DispatchMapsCancelToDeadlineExceeded) {
  std::atomic<bool> cancel{true};  // already expired when the worker starts
  QueryContext context;
  context.cancel = &cancel;
  PingRequest ping{"late", 50};
  cps::util::BinaryWriter out;
  ping.encode(out);
  const auto result = dispatch(Opcode::kPing, out.bytes(), context);
  EXPECT_EQ(result.status, Status::kDeadlineExceeded);
}

TEST(ServeProtocolTest, DispatchServesStatsThroughTheContext) {
  QueryContext context;
  context.stats = [] {
    return std::vector<std::pair<std::string, std::uint64_t>>{{"x", 5}};
  };
  const auto result = dispatch(Opcode::kStats, "", context);
  ASSERT_EQ(result.status, Status::kOk);
  cps::util::BinaryReader in(result.payload);
  const auto stats = StatsResponse::decode(in);
  ASSERT_EQ(stats.counters.size(), 1u);
  EXPECT_EQ(stats.counters[0].first, "x");
  EXPECT_EQ(stats.counters[0].second, 5u);
}

// The exact allocator's cooperative cancellation hook, exercised
// directly: a pre-raised flag must abort the branch-and-bound within a
// few dozen expanded nodes via cps::CancelledError.  The proving
// instances are exactly the ones whose first-fit seed exceeds the root
// lower bound, so the search cannot shortcut past the poll.
TEST(ServeProtocolTest, ExactAllocatorHonorsTheCancelFlag) {
  const auto& instances = cps::experiments::alloc_proving_instances();
  ASSERT_FALSE(instances.empty());
  auto params = cps::experiments::alloc_proving_params(instances.front());

  std::atomic<bool> cancel{true};
  cps::analysis::AllocationOptions options;
  options.cancel = &cancel;
  EXPECT_THROW(cps::analysis::optimal_allocate(params, options), cps::CancelledError);

  // An un-raised flag must not change the answer (cancellation changes
  // time, never answers).
  std::atomic<bool> calm{false};
  cps::analysis::AllocationOptions calm_options;
  calm_options.cancel = &calm;
  const auto with_flag = cps::analysis::optimal_allocate(params, calm_options);
  const auto without = cps::analysis::optimal_allocate(params, {});
  EXPECT_EQ(with_flag.slots, without.slots);
}

// The dispatcher is what --local runs; byte-identity of repeated
// dispatches is the foundation of the daemon-vs-local CI check.
TEST(ServeProtocolTest, DispatchIsDeterministic) {
  SchedCheckRequest request;
  request.fleet.n_apps = 6;
  request.fleet.target_utilization = 0.5;
  request.fleet.seed = 7;
  cps::util::BinaryWriter out;
  request.encode(out);
  const auto first = dispatch(Opcode::kSchedCheck, out.bytes(), QueryContext{});
  const auto second = dispatch(Opcode::kSchedCheck, out.bytes(), QueryContext{});
  ASSERT_EQ(first.status, Status::kOk);
  ASSERT_EQ(second.status, Status::kOk);
  EXPECT_EQ(first.payload, second.payload);  // byte-for-byte
}

}  // namespace
