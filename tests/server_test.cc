// The socket front-end (src/server/): protocol round trips, port and
// endpoint validation, the malformed-frame fuzz contract (error response or
// clean close -- never a crash), admission-control shedding (kOverloaded,
// not a hang), one-request frames run in order on the reader (never shed),
// connection release, one count per event across counters(), the stats op
// and the registry, the shutdown-drain contract (queued batches answered
// kShuttingDown, never silently dropped -- a TSan target), and the
// end-to-end serve/shutdown/recover cycle answering the committed history
// bit-equal.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parse_number.h"
#include "common/random.h"
#include "engine/sharded_engine.h"
#include "kv/request.h"
#include "recovery/durable_store.h"
#include "server/kv_client.h"
#include "server/kv_server.h"
#include "server/net.h"
#include "server/protocol.h"
#include "telemetry/exporter.h"
#include "telemetry/metric_registry.h"
#include "test_util.h"

namespace liod {
namespace {

using testing_util::DescriptorExhaustion;
using testing_util::RacingThreads;
using testing_util::ToRecords;
using testing_util::UniformKeys;

std::string TestSocketPath(const std::string& name) {
  return "/tmp/liod_srv_" + std::to_string(::getpid()) + "_" + name + ".sock";
}

EngineOptions ServerEngineOptions(std::size_t shards) {
  EngineOptions options;
  options.index_name = "btree";
  options.num_shards = shards;
  return options;
}

// --- protocol ---------------------------------------------------------------

TEST(ProtocolTest, RequestBodyRoundTrips) {
  std::vector<kv::Request> requests;
  requests.push_back({kv::OpKind::kLookup, 42, 0, 0});
  requests.push_back({kv::OpKind::kInsert, 7, 999, 0});
  requests.push_back({kv::OpKind::kDelete, 1, 0, 0});
  requests.push_back({kv::OpKind::kScan, 100, 0, 64});
  requests.push_back({kv::OpKind::kReadModifyWrite, ~0ULL, ~0ULL, 0});

  std::vector<std::byte> body;
  ASSERT_TRUE(server::EncodeRequestBody(0xdeadbeef, requests, &body).ok());
  EXPECT_EQ(body.size(), 8 + requests.size() * server::kRequestOpBytes);

  std::uint32_t tag = 0;
  std::vector<kv::Request> decoded;
  ASSERT_TRUE(server::DecodeRequestBody(body, &tag, &decoded).ok());
  EXPECT_EQ(tag, 0xdeadbeefu);
  EXPECT_EQ(decoded, requests);
}

TEST(ProtocolTest, ResponseBodyRoundTrips) {
  std::vector<kv::Response> responses(3);
  responses[0].code = Status::Code::kOk;
  responses[0].found = true;
  responses[0].payload = 123;
  responses[1].code = Status::Code::kNotFound;
  responses[2].code = Status::Code::kOk;
  responses[2].records = {{10, 11}, {20, 21}, {30, 31}};

  std::vector<std::byte> body;
  ASSERT_TRUE(server::EncodeResponseBody(77, responses, &body).ok());

  std::uint32_t tag = 0;
  std::vector<kv::Response> decoded;
  ASSERT_TRUE(server::DecodeResponseBody(body, &tag, &decoded).ok());
  ASSERT_EQ(decoded.size(), 3u);
  EXPECT_EQ(tag, 77u);
  EXPECT_EQ(decoded[0].code, Status::Code::kOk);
  EXPECT_TRUE(decoded[0].found);
  EXPECT_EQ(decoded[0].payload, 123u);
  EXPECT_EQ(decoded[1].code, Status::Code::kNotFound);
  ASSERT_EQ(decoded[2].records.size(), 3u);
  EXPECT_EQ(decoded[2].records[1].key, 20u);
  EXPECT_EQ(decoded[2].records[1].payload, 21u);
}

TEST(ProtocolTest, DecodeRejectsMalformedBodies) {
  std::vector<kv::Request> requests = {{kv::OpKind::kLookup, 42, 0, 0}};
  std::vector<std::byte> good;
  ASSERT_TRUE(server::EncodeRequestBody(1, requests, &good).ok());

  std::uint32_t tag = 0;
  std::vector<kv::Request> decoded;

  // Truncated: too short for the header, too short for the declared ops,
  // trailing garbage after the declared ops.
  std::vector<std::byte> body(good.begin(), good.begin() + 4);
  EXPECT_EQ(server::DecodeRequestBody(body, &tag, &decoded).code(),
            Status::Code::kInvalidArgument);
  body.assign(good.begin(), good.end() - 1);
  EXPECT_EQ(server::DecodeRequestBody(body, &tag, &decoded).code(),
            Status::Code::kInvalidArgument);
  body = good;
  body.push_back(std::byte{0});
  EXPECT_EQ(server::DecodeRequestBody(body, &tag, &decoded).code(),
            Status::Code::kInvalidArgument);

  // Garbage op kind (the byte after tag+count).
  body = good;
  body[8] = std::byte{0x7f};
  EXPECT_EQ(server::DecodeRequestBody(body, &tag, &decoded).code(),
            Status::Code::kInvalidArgument);

  // Zero scan_count on a scan op: encodes (the summed-volume check cannot
  // see it) but the decoder rejects it before execution.
  requests = {{kv::OpKind::kScan, 42, 0, 0}};
  std::vector<std::byte> scan_body;
  ASSERT_TRUE(server::EncodeRequestBody(1, requests, &scan_body).ok());
  EXPECT_EQ(server::DecodeRequestBody(scan_body, &tag, &decoded).code(),
            Status::Code::kInvalidArgument);

  // Oversized single scan.
  requests = {{kv::OpKind::kScan, 42, 0, server::kMaxScanCount + 1}};
  scan_body.clear();
  EXPECT_FALSE(server::EncodeRequestBody(1, requests, &scan_body).ok());

  // Scan volume summed across the frame is capped too.
  requests.assign(3, {kv::OpKind::kScan, 42, 0, server::kMaxScanCount / 2});
  scan_body.clear();
  EXPECT_FALSE(server::EncodeRequestBody(1, requests, &scan_body).ok());

  // Oversized batch.
  requests.assign(server::kMaxBatchOps + 1, {kv::OpKind::kLookup, 1, 0, 0});
  scan_body.clear();
  EXPECT_FALSE(server::EncodeRequestBody(1, requests, &scan_body).ok());
}

TEST(ProtocolTest, RejectionBodyDecodesAsAllOpsSameCode) {
  std::vector<std::byte> body;
  server::EncodeRejectionBody(9, 4, Status::Code::kOverloaded, &body);
  std::uint32_t tag = 0;
  std::vector<kv::Response> decoded;
  ASSERT_TRUE(server::DecodeResponseBody(body, &tag, &decoded).ok());
  EXPECT_EQ(tag, 9u);
  ASSERT_EQ(decoded.size(), 4u);
  for (const kv::Response& r : decoded) {
    EXPECT_EQ(r.code, Status::Code::kOverloaded);
  }
}

TEST(ProtocolTest, StatusCodesTransportOneToOne) {
  // The wire carries Status::Code numeric values; every taxonomy member must
  // survive a response round trip unchanged.
  for (Status::Code code :
       {Status::Code::kOk, Status::Code::kNotFound, Status::Code::kInvalidArgument,
        Status::Code::kOutOfRange, Status::Code::kCorruption, Status::Code::kIoError,
        Status::Code::kUnimplemented, Status::Code::kFailedPrecondition,
        Status::Code::kOverloaded, Status::Code::kShuttingDown}) {
    std::vector<kv::Response> responses(1);
    responses[0].code = code;
    std::vector<std::byte> body;
    ASSERT_TRUE(server::EncodeResponseBody(0, responses, &body).ok());
    std::uint32_t tag = 0;
    std::vector<kv::Response> decoded;
    ASSERT_TRUE(server::DecodeResponseBody(body, &tag, &decoded).ok());
    EXPECT_EQ(decoded[0].code, code);
  }
}

// --- stats-op protocol extension --------------------------------------------

TEST(ProtocolStatsTest, StatsRequestIsAOneOpFrameWithTheReservedKind) {
  std::vector<std::byte> body;
  server::EncodeStatsRequestBody(123, &body);
  EXPECT_TRUE(server::IsStatsRequestBody(body));

  // A normal request frame is NOT a stats request, even a single-op one.
  std::vector<kv::Request> requests = {{kv::OpKind::kLookup, 42, 0, 0}};
  std::vector<std::byte> plain;
  ASSERT_TRUE(server::EncodeRequestBody(123, requests, &plain).ok());
  EXPECT_FALSE(server::IsStatsRequestBody(plain));

  // An OLD server sees the stats frame as a malformed request (the reserved
  // kind fails validation): the documented downgrade is the ordinary
  // kInvalidArgument rejection, not a crash or a hang.
  std::uint32_t tag = 0;
  std::vector<kv::Request> decoded;
  EXPECT_EQ(server::DecodeRequestBody(body, &tag, &decoded).code(),
            Status::Code::kInvalidArgument);
}

TEST(ProtocolStatsTest, StatsResponseRoundTripsAndRejectsCorruption) {
  const std::string json = "{\"schema\":\"liod-stats/1\",\"x\":1}";
  std::vector<std::byte> body;
  ASSERT_TRUE(server::EncodeStatsResponseBody(9, json, &body).ok());

  std::uint32_t tag = 0;
  std::string decoded;
  ASSERT_TRUE(server::DecodeStatsResponseBody(body, &tag, &decoded).ok());
  EXPECT_EQ(tag, 9u);
  EXPECT_EQ(decoded, json);

  // Truncated payload.
  std::vector<std::byte> truncated(body.begin(), body.end() - 1);
  EXPECT_EQ(server::DecodeStatsResponseBody(truncated, &tag, &decoded).code(),
            Status::Code::kInvalidArgument);

  // A plain response frame (op_count where the marker belongs) is the
  // old-server downgrade signal, reported as kUnimplemented so the client
  // can distinguish "old server" from corruption.
  std::vector<std::byte> plain;
  server::EncodeRejectionBody(9, 1, Status::Code::kInvalidArgument, &plain);
  EXPECT_EQ(server::DecodeStatsResponseBody(plain, &tag, &decoded).code(),
            Status::Code::kUnimplemented);
}

// --- server fixture ---------------------------------------------------------

/// Engine + server on a unix socket, torn down in order.
struct ServerHarness {
  explicit ServerHarness(const std::string& name, std::size_t shards = 2,
                         std::size_t workers = 2, std::size_t queue = 16,
                         EngineOptions engine_options_in = {})
      : path(TestSocketPath(name)) {
    EngineOptions engine_options = std::move(engine_options_in);
    engine_options.index_name = "btree";
    engine_options.num_shards = shards;
    records = ToRecords(UniformKeys(2000, 23));
    engine = std::make_unique<ShardedEngine>(engine_options);
    EXPECT_TRUE(engine->Bulkload(records).ok());
    server::ServerOptions options;
    options.unix_path = path;
    options.workers = workers;
    options.queue_capacity = queue;
    server = std::make_unique<server::KvServer>(engine.get(), options);
    EXPECT_TRUE(server->Start().ok());
  }

  ~ServerHarness() {
    server.reset();
    ::unlink(path.c_str());
  }

  std::string path;
  std::vector<Record> records;
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<server::KvServer> server;
};

// --- end-to-end client/server -----------------------------------------------

TEST(KvServerTest, CallRoundTripsMixedOps) {
  ServerHarness harness("roundtrip");
  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(harness.path).ok());

  kv::RequestBatch batch;
  batch.AddLookup(harness.records[10].key);
  batch.AddLookup(harness.records[10].key + 1);  // miss
  batch.AddInsert(harness.records[20].key, 777);
  batch.AddLookup(harness.records[20].key);
  batch.AddScan(harness.records[30].key, 5);
  std::vector<kv::Response> responses;
  ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
  ASSERT_EQ(responses.size(), 5u);
  EXPECT_EQ(responses[0].code, Status::Code::kOk);
  EXPECT_EQ(responses[0].payload, harness.records[10].payload);
  EXPECT_EQ(responses[1].code, Status::Code::kNotFound);
  EXPECT_EQ(responses[2].code, Status::Code::kOk);
  EXPECT_EQ(responses[3].payload, 777u);
  ASSERT_EQ(responses[4].records.size(), 5u);
  EXPECT_EQ(responses[4].records[0].key, harness.records[30].key);

  // The server executed through the engine, not a copy: the insert is
  // visible engine-side.
  Payload payload = 0;
  bool found = false;
  ASSERT_TRUE(harness.engine->Lookup(harness.records[20].key, &payload, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(payload, 777u);
}

TEST(KvServerTest, TcpListenerServesOnEphemeralPort) {
  EngineOptions engine_options = ServerEngineOptions(2);
  const auto records = ToRecords(UniformKeys(500, 29));
  ShardedEngine engine(engine_options);
  ASSERT_TRUE(engine.Bulkload(records).ok());
  server::ServerOptions options;
  options.tcp_port = 0;  // ephemeral
  server::KvServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  server::KvClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  kv::RequestBatch batch;
  batch.AddLookup(records[0].key);
  std::vector<kv::Response> responses;
  ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_TRUE(responses[0].found);
  ASSERT_TRUE(server.Shutdown().ok());
}

TEST(KvServerTest, ConnectTcpSetsNoDelay) {
  int listen_fd = -1;
  int port = 0;
  ASSERT_TRUE(server::ListenTcp("127.0.0.1", 0, &listen_fd, &port).ok());
  int fd = -1;
  ASSERT_TRUE(server::ConnectTcp("127.0.0.1", port, &fd).ok());
  int nodelay = 0;
  socklen_t len = sizeof(nodelay);
  ASSERT_EQ(::getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, &len), 0);
  EXPECT_NE(nodelay, 0);
  ::close(fd);
  ::close(listen_fd);
}

TEST(NetTest, ListenAndConnectRejectPortsOutsideTheRange) {
  // A uint16_t cast would wrap 70000 to port 4464 and -1 to 65535.
  for (const int port : {-1, 65536, 70000}) {
    SCOPED_TRACE("port " + std::to_string(port));
    int fd = -1;
    int bound = 0;
    EXPECT_EQ(server::ListenTcp("127.0.0.1", port, &fd, &bound).code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(fd, -1);
    EXPECT_EQ(server::ConnectTcp("127.0.0.1", port, &fd).code(),
              Status::Code::kInvalidArgument);
    EXPECT_EQ(fd, -1);
  }
}

TEST(ParseNumber, AcceptsOnlyACompleteNumber) {
  std::uint64_t u = 7;
  ASSERT_TRUE(ParseNumber("0", &u));
  EXPECT_EQ(u, 0u);
  ASSERT_TRUE(ParseNumber("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ull);
  for (const char* bad : {"", "abc", "10k", "1.5", "-1", "+1", " 1", "1 ",
                          "18446744073709551616"}) {
    u = 7;
    EXPECT_FALSE(ParseNumber(bad, &u)) << "'" << bad << "'";
    EXPECT_EQ(u, 7u) << "a rejected value must leave the output alone";
  }
  double d = 0;
  ASSERT_TRUE(ParseNumber("0.99", &d));
  EXPECT_DOUBLE_EQ(d, 0.99);
  ASSERT_TRUE(ParseNumber("-2e3", &d));
  EXPECT_DOUBLE_EQ(d, -2000.0);
  for (const char* bad : {"", "abc", "0.9x", " 1", "inf", "nan", "1e999"}) {
    EXPECT_FALSE(ParseNumber(bad, &d)) << "'" << bad << "'";
  }
}

TEST(NetTest, ParseEndpointAcceptsUnixPathsAndNumericTcpPortsOnly) {
  server::Endpoint endpoint;
  ASSERT_TRUE(server::ParseEndpoint("unix:/tmp/liod.sock", &endpoint).ok());
  EXPECT_EQ(endpoint.unix_path, "/tmp/liod.sock");
  EXPECT_EQ(endpoint.port, -1);

  ASSERT_TRUE(server::ParseEndpoint("tcp:7000", &endpoint).ok());
  EXPECT_TRUE(endpoint.unix_path.empty());
  EXPECT_EQ(endpoint.host, "127.0.0.1");
  EXPECT_EQ(endpoint.port, 7000);

  ASSERT_TRUE(server::ParseEndpoint("tcp:10.0.0.2:0", &endpoint).ok());
  EXPECT_EQ(endpoint.host, "10.0.0.2");
  EXPECT_EQ(endpoint.port, 0);

  ASSERT_TRUE(server::ParseEndpoint("tcp:65535", &endpoint).ok());
  EXPECT_EQ(endpoint.port, 65535);

  for (const char* bad : {"", "unix:", "tcp:", "tcp:abc", "tcp:12ab", "tcp:-1", "tcp:+80",
                          "tcp:65536", "tcp:70000", "tcp:1234567", "tcp::80", "tcp:host:",
                          "udp:80", "/tmp/liod.sock"}) {
    EXPECT_EQ(server::ParseEndpoint(bad, &endpoint).code(), Status::Code::kInvalidArgument)
        << bad;
  }
}

TEST(KvServerTest, PipelinedTcpFramesDoNotWaitOnDelayedAcks) {
  // Small pipelined frames over TCP: with Nagle's algorithm on either end, a
  // frame waits for the ACK of the previous one, which the peer delays by up
  // to 40 ms. TCP_NODELAY on both the client and the accepted connection
  // keeps a burst of 32 well under a millisecond on loopback.
  EngineOptions engine_options = ServerEngineOptions(2);
  const auto records = ToRecords(UniformKeys(500, 29));
  ShardedEngine engine(engine_options);
  ASSERT_TRUE(engine.Bulkload(records).ok());
  server::ServerOptions options;
  options.tcp_port = 0;
  server::KvServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  server::KvClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());

  constexpr std::uint32_t kFrames = 32;
  std::vector<double> burst_ms;
  for (int burst = 0; burst < 5; ++burst) {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint32_t t = 1; t <= kFrames; ++t) {
      const std::vector<kv::Request> requests = {
          {kv::OpKind::kLookup, records[t].key, 0, 0}};
      ASSERT_TRUE(client.Send(t, requests).ok());
    }
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      std::uint32_t tag = 0;
      std::vector<kv::Response> responses;
      ASSERT_TRUE(client.Receive(&tag, &responses).ok());
      ASSERT_EQ(responses.size(), 1u);
      EXPECT_TRUE(responses[0].found);
    }
    burst_ms.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  std::sort(burst_ms.begin(), burst_ms.end());
  EXPECT_LT(burst_ms[2], 20.0) << "median burst of " << kFrames << " frames";
  ASSERT_TRUE(server.Shutdown().ok());
}

/// Open file descriptors of this process.
std::size_t OpenFdCount() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(KvServerTest, ClosedConnectionsReleaseTheirFds) {
  // A connection's fd and reader thread are released soon after the client
  // hangs up (at the next accept), not held until Shutdown: a server taking
  // many short connections must not run into its descriptor limit.
  ServerHarness harness("release");
  const std::size_t before = OpenFdCount();
  kv::RequestBatch batch;
  batch.AddLookup(harness.records[0].key);
  std::vector<kv::Response> responses;
  for (int i = 0; i < 200; ++i) {
    server::KvClient client;
    ASSERT_TRUE(client.ConnectUnix(harness.path).ok());
    ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
    ASSERT_TRUE(responses[0].found);
  }
  // Only the connections that ended after the last accept are still held.
  EXPECT_LE(OpenFdCount(), before + 8);
  EXPECT_EQ(harness.server->counters().connections_accepted, 200u);
}

TEST(KvServerTest, AcceptKeepsServingAfterDescriptorExhaustion) {
  // An accept() that fails for want of a descriptor must not stop the
  // listener for good: once descriptors free up, new connections are served.
  ServerHarness harness("emfile");
  // One served connection first, held open to the end so its descriptor is
  // not freed mid-test: UBSan validates a polymorphic type the first time it
  // sees it through a pipe, which cannot be opened while descriptors are
  // exhausted, so the connection and reader types must already be known.
  server::KvClient warm;
  ASSERT_TRUE(warm.ConnectUnix(harness.path).ok());
  const std::vector<kv::Request> lookup = {{kv::OpKind::kLookup, harness.records[0].key, 0, 0}};
  std::vector<kv::Response> warm_responses;
  ASSERT_TRUE(warm.Call(lookup, &warm_responses).ok());
  int first = -1;
  {
    DescriptorExhaustion exhaustion;
    ASSERT_TRUE(exhaustion.exhausted());
    exhaustion.FreeOne();  // room for the client's socket only
    // A blocked accept() reserves its descriptor number before it waits, so
    // this connection may still be accepted; the server's next accept()
    // finds no number left and fails with EMFILE.
    ASSERT_TRUE(server::ConnectUnix(harness.path, &first).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  int fd = -1;
  ASSERT_TRUE(server::ConnectUnix(harness.path, &fd).ok());
  const std::vector<kv::Request> requests = {
      {kv::OpKind::kLookup, harness.records[0].key, 0, 0}};
  std::vector<std::byte> body;
  std::vector<std::byte> frame;
  ASSERT_TRUE(server::EncodeRequestBody(7, requests, &body).ok());
  server::FrameBody(body, &frame);
  ASSERT_TRUE(server::WriteAll(fd, frame).ok());
  // A server that stopped accepting never answers: bound the wait so the
  // test fails instead of hanging.
  pollfd ready{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 10'000), 1) << "no response: the server stopped accepting";
  std::vector<std::byte> response_body;
  ASSERT_TRUE(server::ReadFrameBody(fd, server::kMaxFrameBytes, &response_body).ok());
  std::uint32_t tag = 0;
  std::vector<kv::Response> responses;
  ASSERT_TRUE(server::DecodeResponseBody(response_body, &tag, &responses).ok());
  EXPECT_EQ(tag, 7u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].payload, harness.records[0].payload);
  ::close(fd);
  ::close(first);
}

TEST(KvServerTest, PipelinedFramesRematchByTag) {
  // Queue deeper than the in-flight window: this test is about tag
  // re-matching, so nothing may be shed even when workers run slowly
  // (e.g. under TSan).
  ServerHarness harness("pipeline", /*shards=*/2, /*workers=*/4, /*queue=*/64);
  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(harness.path).ok());

  // Fire 32 tagged frames without waiting, then collect 32 responses in
  // whatever order the workers finished them.
  constexpr std::uint32_t kFrames = 32;
  for (std::uint32_t t = 1; t <= kFrames; ++t) {
    std::vector<kv::Request> requests = {
        {kv::OpKind::kLookup, harness.records[t].key, 0, 0}};
    ASSERT_TRUE(client.Send(t, requests).ok());
  }
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    std::uint32_t tag = 0;
    std::vector<kv::Response> responses;
    ASSERT_TRUE(client.Receive(&tag, &responses).ok());
    ASSERT_GE(tag, 1u);
    ASSERT_LE(tag, kFrames);
    EXPECT_TRUE(seen.insert(tag).second) << "duplicate response tag " << tag;
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].payload, harness.records[tag].payload);
  }
  EXPECT_EQ(seen.size(), kFrames);
}

// --- malformed-frame fuzz ---------------------------------------------------

/// Sends raw bytes on a fresh connection; returns the connected fd.
int RawConnect(const std::string& path) {
  int fd = -1;
  EXPECT_TRUE(server::ConnectUnix(path, &fd).ok());
  return fd;
}

TEST(KvServerFuzzTest, GarbageOpKindGetsErrorResponseAndConnectionSurvives) {
  ServerHarness harness("fuzz_kind");
  const int fd = RawConnect(harness.path);

  // A structurally valid frame whose single op kind is garbage.
  std::vector<kv::Request> requests = {{kv::OpKind::kLookup, 42, 0, 0}};
  std::vector<std::byte> body;
  ASSERT_TRUE(server::EncodeRequestBody(5, requests, &body).ok());
  body[8] = std::byte{0xee};  // op kind byte
  std::vector<std::byte> frame;
  server::FrameBody(body, &frame);
  ASSERT_TRUE(server::WriteAll(fd, frame).ok());

  std::vector<std::byte> response_body;
  ASSERT_TRUE(server::ReadFrameBody(fd, server::kMaxFrameBytes, &response_body).ok());
  std::uint32_t tag = 0;
  std::vector<kv::Response> responses;
  ASSERT_TRUE(server::DecodeResponseBody(response_body, &tag, &responses).ok());
  EXPECT_EQ(tag, 5u);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, Status::Code::kInvalidArgument);

  // The stream is still framed: the same connection serves a good request.
  body.clear();
  frame.clear();
  ASSERT_TRUE(server::EncodeRequestBody(6, requests, &body).ok());
  server::FrameBody(body, &frame);
  ASSERT_TRUE(server::WriteAll(fd, frame).ok());
  ASSERT_TRUE(server::ReadFrameBody(fd, server::kMaxFrameBytes, &response_body).ok());
  ASSERT_TRUE(server::DecodeResponseBody(response_body, &tag, &responses).ok());
  EXPECT_EQ(tag, 6u);
  ::close(fd);
  EXPECT_GE(harness.server->counters().malformed_frames, 1u);
}

TEST(KvServerFuzzTest, OversizedLengthPrefixAnswersThenCloses) {
  ServerHarness harness("fuzz_len");
  const int fd = RawConnect(harness.path);

  // Length prefix far beyond kMaxFrameBytes: the stream cannot be
  // re-synchronized, so the contract is an unaddressable error then close.
  const std::uint32_t huge = server::kMaxFrameBytes + 1;
  std::vector<std::byte> prefix(4);
  std::memcpy(prefix.data(), &huge, 4);
  ASSERT_TRUE(server::WriteAll(fd, prefix).ok());

  std::vector<std::byte> response_body;
  ASSERT_TRUE(server::ReadFrameBody(fd, server::kMaxFrameBytes, &response_body).ok());
  std::uint32_t tag = 0;
  std::vector<kv::Response> responses;
  ASSERT_TRUE(server::DecodeResponseBody(response_body, &tag, &responses).ok());
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].code, Status::Code::kInvalidArgument);
  // ... then EOF (clean close, reported as kNotFound by ReadFrameBody).
  EXPECT_EQ(server::ReadFrameBody(fd, server::kMaxFrameBytes, &response_body).code(),
            Status::Code::kNotFound);
  ::close(fd);

  // The server survived: a new connection works.
  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(harness.path).ok());
  kv::RequestBatch batch;
  batch.AddLookup(harness.records[0].key);
  std::vector<kv::Response> out;
  ASSERT_TRUE(client.Call(batch.requests, &out).ok());
}

TEST(KvServerFuzzTest, TruncatedPrefixAndRandomGarbageNeverKillTheServer) {
  ServerHarness harness("fuzz_rand");

  // Truncated length prefix: write 2 bytes and hang up.
  {
    const int fd = RawConnect(harness.path);
    std::vector<std::byte> partial = {std::byte{0x10}, std::byte{0x00}};
    ASSERT_TRUE(server::WriteAll(fd, partial).ok());
    ::close(fd);
  }

  // Deterministic seeded garbage: arbitrary lengths, arbitrary bytes. Some
  // will parse as (wrong but valid) frames, most will not; none may crash or
  // wedge the server.
  Rng rng(20230817);
  for (int round = 0; round < 50; ++round) {
    const int fd = RawConnect(harness.path);
    const std::size_t len = 1 + rng.NextBounded(256);
    std::vector<std::byte> junk(len);
    for (auto& b : junk) b = static_cast<std::byte>(rng.NextBounded(256));
    (void)server::WriteAll(fd, junk);  // peer may have already closed on us
    ::close(fd);
  }

  // Still serving after the barrage.
  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(harness.path).ok());
  kv::RequestBatch batch;
  batch.AddLookup(harness.records[1].key);
  std::vector<kv::Response> out;
  ASSERT_TRUE(client.Call(batch.requests, &out).ok());
  EXPECT_TRUE(out[0].found);
}

// --- admission control ------------------------------------------------------

TEST(KvServerTest, FloodShedsWithOverloadedNotAHang) {
  // One worker, queue bound 1: pipelined expensive frames MUST overflow the
  // queue, and the overflow answer is an immediate all-ops kOverloaded frame
  // written by the reader -- the client never blocks waiting for admission.
  ServerHarness harness("overload", /*shards=*/1, /*workers=*/1, /*queue=*/1);
  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(harness.path).ok());

  constexpr std::uint32_t kFrames = 64;
  std::vector<kv::Request> expensive;
  for (int i = 0; i < 16; ++i) {
    expensive.push_back({kv::OpKind::kScan, harness.records[0].key, 0, 1024});
  }
  for (std::uint32_t t = 1; t <= kFrames; ++t) {
    ASSERT_TRUE(client.Send(t, expensive).ok());
  }
  std::size_t overloaded = 0, executed = 0;
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    std::uint32_t tag = 0;
    std::vector<kv::Response> responses;
    ASSERT_TRUE(client.Receive(&tag, &responses).ok());
    EXPECT_TRUE(seen.insert(tag).second);
    ASSERT_EQ(responses.size(), expensive.size());
    if (responses[0].code == Status::Code::kOverloaded) {
      // Shed frames are all-ops rejections.
      for (const kv::Response& r : responses) {
        EXPECT_EQ(r.code, Status::Code::kOverloaded);
      }
      ++overloaded;
    } else {
      EXPECT_EQ(responses[0].code, Status::Code::kOk);
      ++executed;
    }
  }
  // Every frame was answered exactly once; under a 1-deep queue the flood
  // cannot have been absorbed without shedding.
  EXPECT_EQ(seen.size(), kFrames);
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(executed, 1u);
  const server::ServerCounters counters = harness.server->counters();
  EXPECT_EQ(counters.batches_overloaded, overloaded);
  EXPECT_EQ(counters.batches_executed, executed);
}

TEST(KvServerTest, OneRequestFloodRunsInOrderWithoutShedding) {
  // The same 1-worker, 1-deep-queue server as above, flooded with expensive
  // ONE-request frames: those run on the connection's reader, one at a time
  // and in arrival order, so none reaches the queue and none is shed -- the
  // socket's backpressure paces the client instead.
  ServerHarness harness("reader_flood", /*shards=*/1, /*workers=*/1, /*queue=*/1);
  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(harness.path).ok());

  constexpr std::uint32_t kFrames = 64;
  const std::vector<kv::Request> expensive = {
      {kv::OpKind::kScan, harness.records[0].key, 0, 1024}};
  for (std::uint32_t t = 1; t <= kFrames; ++t) {
    ASSERT_TRUE(client.Send(t, expensive).ok());
  }
  for (std::uint32_t t = 1; t <= kFrames; ++t) {
    std::uint32_t tag = 0;
    std::vector<kv::Response> responses;
    ASSERT_TRUE(client.Receive(&tag, &responses).ok());
    EXPECT_EQ(tag, t) << "responses out of send order";
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].code, Status::Code::kOk);
    EXPECT_EQ(responses[0].records.size(), 1024u);
  }
  const server::ServerCounters counters = harness.server->counters();
  EXPECT_EQ(counters.batches_executed, kFrames);
  EXPECT_EQ(counters.batches_overloaded, 0u);
}

// --- live stats (the kStats admin op) ---------------------------------------

/// First match of `"key":<uint>` in a JSON document whose scalar keys are
/// unique document-wide (the liod-stats/1 schema guarantees that).
std::uint64_t JsonUint(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = json.find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing key " << key;
  if (pos == std::string::npos) return 0;
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

TEST(KvServerStatsTest, StatsOpReconcilesWithInProcessCounters) {
  MetricRegistry registry;
  EngineOptions engine_options = ServerEngineOptions(2);
  engine_options.index.metrics = &registry;
  const auto records = ToRecords(UniformKeys(2000, 41));
  ShardedEngine engine(engine_options);
  ASSERT_TRUE(engine.Bulkload(records).ok());

  const std::string path = TestSocketPath("stats");
  server::ServerOptions server_options;
  server_options.unix_path = path;
  server_options.metrics = &registry;
  server::KvServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(path).ok());
  kv::RequestBatch batch;
  for (int i = 0; i < 3; ++i) batch.AddLookup(records[i].key);
  std::vector<kv::Response> responses;
  for (int round = 0; round < 10; ++round) {
    ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
  }

  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());
  EXPECT_NE(json.find("\"schema\":\"liod-stats/1\""), std::string::npos);

  // The document reconciles exactly with the in-process counters.
  const server::ServerCounters counters = server.counters();
  EXPECT_EQ(JsonUint(json, "ops_executed"), counters.ops_executed);
  EXPECT_EQ(JsonUint(json, "ops_executed"), 30u);
  EXPECT_EQ(JsonUint(json, "batches_executed"), counters.batches_executed);
  EXPECT_EQ(JsonUint(json, "stats_requests"), 1u);
  EXPECT_EQ(counters.stats_requests, 1u);
  // Registry attached: the full telemetry snapshot rides along, and so do
  // the per-shard sections with heat (metrics imply heat by default).
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("liod-telemetry/1"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":["), std::string::npos);
  EXPECT_NE(json.find("\"heat\":{"), std::string::npos);
  EXPECT_NE(json.find("\"top_keys\":["), std::string::npos);
  // The queue-depth gauge is live while serving.
  EXPECT_EQ(registry.Snapshot().gauges.count("server.queue_depth"), 1u);

  // The admin op does not desync the data plane: the same connection keeps
  // serving ordinary calls, and a second stats call answers too.
  ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
  EXPECT_EQ(responses[0].code, Status::Code::kOk);
  ASSERT_TRUE(client.Stats(&json).ok());
  EXPECT_EQ(JsonUint(json, "stats_requests"), 2u);

  ASSERT_TRUE(server.Shutdown().ok());
  // Shutdown unregisters the gauge: no dangling callback into the server.
  EXPECT_EQ(registry.Snapshot().gauges.count("server.queue_depth"), 0u);
  ::unlink(path.c_str());
}

TEST(KvServerStatsTest, FailedStartLeavesNoGaugeBehind) {
  // The queue-depth gauge calls into the server, so a Start that fails to
  // bind must not leave it in the caller's registry: Shutdown of a server
  // that never started has nothing to unregister it with.
  MetricRegistry registry;
  const auto records = ToRecords(UniformKeys(500, 53));
  ShardedEngine engine(ServerEngineOptions(1));
  ASSERT_TRUE(engine.Bulkload(records).ok());
  server::ServerOptions options;
  options.unix_path = "/nonexistent_liod_dir/server.sock";
  options.metrics = &registry;
  server::KvServer server(&engine, options);
  EXPECT_FALSE(server.Start().ok());
  ASSERT_TRUE(server.Shutdown().ok());
  EXPECT_EQ(registry.Snapshot().gauges.count("server.queue_depth"), 0u);
}

TEST(KvServerStatsTest, StatsOpAnswersWithoutARegistry) {
  ServerHarness harness("stats_plain");
  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(harness.path).ok());
  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());
  EXPECT_NE(json.find("\"schema\":\"liod-stats/1\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  // Slow-op capture is off by default: the ring reports zero capacity.
  EXPECT_EQ(JsonUint(json, "capacity"), 0u);
}

TEST(KvServerStatsTest, OldServerDowngradesToUnimplemented) {
  // A fake pre-extension server: accepts one frame and answers the plain
  // kInvalidArgument rejection an old KvServer writes for an unknown op
  // kind. The new client must see kUnimplemented, not corruption.
  const std::string path = TestSocketPath("stats_old");
  int listen_fd = -1;
  ASSERT_TRUE(server::ListenUnix(path, &listen_fd).ok());
  std::thread old_server([listen_fd] {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    std::vector<std::byte> body;
    ASSERT_TRUE(server::ReadFrameBody(fd, server::kMaxFrameBytes, &body).ok());
    std::uint32_t tag = 0;
    std::memcpy(&tag, body.data(), sizeof(tag));
    std::vector<std::byte> rejection, frame;
    server::EncodeRejectionBody(tag, 1, Status::Code::kInvalidArgument, &rejection);
    server::FrameBody(rejection, &frame);
    ASSERT_TRUE(server::WriteAll(fd, frame).ok());
    ::close(fd);
  });

  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(path).ok());
  std::string json;
  EXPECT_EQ(client.Stats(&json).code(), Status::Code::kUnimplemented);
  old_server.join();
  ::close(listen_fd);
  ::unlink(path.c_str());
}

TEST(KvServerStatsTest, SlowOpFloodBoundsTheRingAndCountsDrops) {
  MetricRegistry registry;
  EngineOptions engine_options = ServerEngineOptions(2);
  const auto records = ToRecords(UniformKeys(2000, 43));
  ShardedEngine engine(engine_options);
  ASSERT_TRUE(engine.Bulkload(records).ok());

  const std::string path = TestSocketPath("slow_flood");
  server::ServerOptions server_options;
  server_options.unix_path = path;
  server_options.metrics = &registry;
  server_options.slow_op_us = 1e-6;  // everything is "slow": capture every op
  server_options.slow_op_capacity = 4;
  server::KvServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(path).ok());
  std::vector<kv::Response> responses;
  for (int i = 0; i < 50; ++i) {
    kv::RequestBatch batch;
    batch.AddLookup(records[i].key);
    ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
  }

  const server::SlowOpRing::Snapshot snap = server.slow_ops();
  EXPECT_EQ(snap.recorded, 50u);
  EXPECT_EQ(snap.dropped, 46u);
  ASSERT_EQ(snap.ops.size(), 4u);
  // Drop-oldest: the survivors are the four newest captures, in order.
  EXPECT_EQ(snap.ops[0].seq, 46u);
  EXPECT_EQ(snap.ops[3].seq, 49u);
  EXPECT_EQ(snap.ops[3].kind, static_cast<std::uint8_t>(kv::OpKind::kLookup));
  EXPECT_GT(snap.ops[3].execute_us, 0.0);

  // The metric mirror and the stats document agree with the ring.
  const MetricsSnapshot metrics = registry.Snapshot();
  EXPECT_EQ(metrics.counters.at("server.slow_ops"), 50u);
  EXPECT_EQ(metrics.counters.at("server.slow_ops_dropped"), 46u);
  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());
  EXPECT_EQ(JsonUint(json, "capacity"), 4u);
  EXPECT_EQ(JsonUint(json, "recorded"), 50u);
  EXPECT_EQ(JsonUint(json, "dropped"), 46u);

  ASSERT_TRUE(server.Shutdown().ok());
  ::unlink(path.c_str());
}

TEST(KvServerStatsTest, ReaderAndWorkerFramesRecordOneSampleEach) {
  // One-request frames execute on the reader, multi-request frames on a
  // worker. Every executed frame records exactly one queue-wait and one
  // execute sample either way, so the registry, ServerCounters and the
  // stats op tell one story.
  MetricRegistry registry;
  EngineOptions engine_options = ServerEngineOptions(2);
  const auto records = ToRecords(UniformKeys(2000, 47));
  ShardedEngine engine(engine_options);
  ASSERT_TRUE(engine.Bulkload(records).ok());

  const std::string path = TestSocketPath("reader_metrics");
  server::ServerOptions server_options;
  server_options.unix_path = path;
  server_options.metrics = &registry;
  server::KvServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  server::KvClient client;
  ASSERT_TRUE(client.ConnectUnix(path).ok());
  std::vector<kv::Response> responses;
  for (int i = 0; i < 30; ++i) {
    kv::RequestBatch batch;  // 1, 2 or 3 ops
    for (int op = 0; op <= i % 3; ++op) batch.AddLookup(records[i + op].key);
    ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
    ASSERT_EQ(responses.size(), batch.requests.size());
  }

  const server::ServerCounters counters = server.counters();
  EXPECT_EQ(counters.batches_executed, 30u);
  EXPECT_EQ(counters.ops_executed, 60u);
  const MetricsSnapshot metrics = registry.Snapshot();
  EXPECT_EQ(metrics.histograms.at("server.queue_wait_us").count, counters.batches_executed);
  EXPECT_EQ(metrics.histograms.at("server.execute_us").count, counters.batches_executed);
  EXPECT_EQ(metrics.counters.at("server.ops"), counters.ops_executed);
  std::string json;
  ASSERT_TRUE(client.Stats(&json).ok());
  EXPECT_EQ(JsonUint(json, "batches_executed"), counters.batches_executed);
  EXPECT_EQ(JsonUint(json, "ops_executed"), counters.ops_executed);

  ASSERT_TRUE(server.Shutdown().ok());
  ::unlink(path.c_str());
}

/// Count of the first `"name":{"count":N` histogram in a liod-telemetry/1
/// document.
std::uint64_t JsonHistogramCount(const std::string& json, const std::string& name) {
  const std::size_t pos = json.find("\"" + name + "\":{");
  EXPECT_NE(pos, std::string::npos) << "missing histogram " << name;
  if (pos == std::string::npos) return 0;
  return JsonUint(json.substr(pos), "count");
}

/// Value of the unlabelled Prometheus series `series` in exposition text.
std::uint64_t PrometheusValue(const std::string& text, const std::string& series) {
  const std::string needle = "\n" + series + " ";
  const std::size_t pos = ("\n" + text).find(needle);
  EXPECT_NE(pos, std::string::npos) << "missing series " << series;
  if (pos == std::string::npos) return 0;
  return std::strtoull(text.c_str() + pos + needle.size() - 1, nullptr, 10);
}

TEST(KvServerStatsTest, EverySinkCountsTheSameFrames) {
  // The server counts in one registry -- the caller's, or its own when the
  // caller attaches none -- and counters(), the stats op's "server" block,
  // the registry snapshot (and with it /metrics) read that one source.
  for (const bool attach : {true, false}) {
    SCOPED_TRACE(attach ? "registry attached" : "no registry");
    MetricRegistry registry;
    const auto records = ToRecords(UniformKeys(2000, 59));
    ShardedEngine engine(ServerEngineOptions(2));
    ASSERT_TRUE(engine.Bulkload(records).ok());
    const std::string path = TestSocketPath(attach ? "sinks_attached" : "sinks_owned");
    server::ServerOptions server_options;
    server_options.unix_path = path;
    if (attach) server_options.metrics = &registry;
    server::KvServer server(&engine, server_options);
    ASSERT_TRUE(server.Start().ok());

    server::KvClient client;
    ASSERT_TRUE(client.ConnectUnix(path).ok());
    std::vector<kv::Response> responses;
    for (int i = 0; i < 5; ++i) {  // 1-op frames: run on the reader
      kv::RequestBatch batch;
      batch.AddLookup(records[i].key);
      ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
    }
    for (int i = 0; i < 4; ++i) {  // 3-op frames: run on a worker
      kv::RequestBatch batch;
      for (int op = 0; op < 3; ++op) batch.AddLookup(records[10 + 3 * i + op].key);
      ASSERT_TRUE(client.Call(batch.requests, &responses).ok());
    }
    // One malformed frame (garbage op kind) on a second connection.
    const int fd = RawConnect(path);
    std::vector<std::byte> body;
    std::vector<std::byte> frame;
    const std::vector<kv::Request> requests = {{kv::OpKind::kLookup, 42, 0, 0}};
    ASSERT_TRUE(server::EncodeRequestBody(3, requests, &body).ok());
    body[8] = std::byte{0xee};  // op kind byte
    server::FrameBody(body, &frame);
    ASSERT_TRUE(server::WriteAll(fd, frame).ok());
    ASSERT_TRUE(server::ReadFrameBody(fd, server::kMaxFrameBytes, &body).ok());
    ::close(fd);
    std::string json;
    ASSERT_TRUE(client.Stats(&json).ok());
    ASSERT_TRUE(client.Stats(&json).ok());

    const server::ServerCounters counters = server.counters();
    EXPECT_EQ(counters.connections_accepted, 2u);
    EXPECT_EQ(counters.batches_executed, 9u);
    EXPECT_EQ(counters.ops_executed, 17u);
    EXPECT_EQ(counters.malformed_frames, 1u);
    EXPECT_EQ(counters.stats_requests, 2u);
    EXPECT_EQ(counters.batches_overloaded, 0u);
    EXPECT_EQ(counters.batches_shutdown_rejected, 0u);

    // The stats op's "server" block.
    EXPECT_EQ(JsonUint(json, "connections_accepted"), counters.connections_accepted);
    EXPECT_EQ(JsonUint(json, "batches_executed"), counters.batches_executed);
    EXPECT_EQ(JsonUint(json, "ops_executed"), counters.ops_executed);
    EXPECT_EQ(JsonUint(json, "malformed_frames"), counters.malformed_frames);
    EXPECT_EQ(JsonUint(json, "stats_requests"), counters.stats_requests);
    EXPECT_GT(JsonUint(json, "execute_p99_us"), 0u);  // a bucket bound, >= 1 us

    // The registry document the stats op carries, and the attached
    // registry's own snapshot and Prometheus text.
    const std::string metrics = json.substr(json.find("\"metrics\":{"));
    EXPECT_EQ(JsonUint(metrics, "server.connections"), counters.connections_accepted);
    EXPECT_EQ(JsonHistogramCount(metrics, "server.execute_us"), counters.batches_executed);
    EXPECT_EQ(JsonUint(metrics, "server.ops"), counters.ops_executed);
    EXPECT_EQ(JsonUint(metrics, "server.malformed_frames"), counters.malformed_frames);
    EXPECT_EQ(JsonUint(metrics, "server.stats_requests"), counters.stats_requests);
    if (attach) {
      const MetricsSnapshot snap = registry.Snapshot();
      EXPECT_EQ(snap.counters.at("server.connections"), counters.connections_accepted);
      EXPECT_EQ(snap.histograms.at("server.execute_us").count, counters.batches_executed);
      EXPECT_EQ(snap.counters.at("server.ops"), counters.ops_executed);
      EXPECT_EQ(snap.counters.at("server.malformed_frames"), counters.malformed_frames);
      EXPECT_EQ(snap.counters.at("server.stats_requests"), counters.stats_requests);
      const std::string text = ToPrometheusText(snap);
      EXPECT_EQ(PrometheusValue(text, "liod_server_connections_total"),
                counters.connections_accepted);
      EXPECT_EQ(PrometheusValue(text, "liod_server_execute_us_count"),
                counters.batches_executed);
      EXPECT_EQ(PrometheusValue(text, "liod_server_ops_total"), counters.ops_executed);
      EXPECT_EQ(PrometheusValue(text, "liod_server_malformed_frames_total"),
                counters.malformed_frames);
      EXPECT_EQ(PrometheusValue(text, "liod_server_stats_requests_total"),
                counters.stats_requests);
    }

    ASSERT_TRUE(server.Shutdown().ok());
    ::unlink(path.c_str());
  }
}

// --- shutdown drain (TSan target) -------------------------------------------

TEST(KvServerStressTest, ShutdownDrainAnswersEveryAcceptedFrame) {
  // M clients pipeline batches while the main thread shuts the server down
  // mid-flight. The contract under race: every frame the server accepted is
  // answered -- executed, kOverloaded, or kShuttingDown -- before its
  // connection sees EOF; nothing hangs; nothing is silently dropped. Client
  // threads tally what they saw and the tallies must reconcile with the
  // server's counters exactly. Runs with 4-op frames (admission queue and
  // workers) and with one-request frames (executed by the readers).
  for (const std::size_t ops_per_frame : {4, 1}) {
    SCOPED_TRACE("ops per frame: " + std::to_string(ops_per_frame));
    ServerHarness harness("drain" + std::to_string(ops_per_frame), /*shards=*/2,
                          /*workers=*/2, /*queue=*/8);

    std::atomic<std::uint64_t> executed{0}, shutdown_rejected{0}, overloaded{0};
    constexpr std::size_t kClients = 4;
    RacingThreads clients;
    clients.StartN(kClients, [&](std::size_t c, const std::atomic<bool>& stop) -> Status {
      server::KvClient client;
      LIOD_RETURN_IF_ERROR(client.ConnectUnix(harness.path));
      std::vector<kv::Request> requests;
      for (std::size_t i = 0; i < ops_per_frame; ++i) {
        requests.push_back(
            {kv::OpKind::kLookup, harness.records[(c * 31 + i) % 2000].key, 0, 0});
      }
      std::uint32_t sent = 0, received = 0;
      Status pump;
      while (!stop.load(std::memory_order_relaxed)) {
        // Keep up to 8 frames in flight.
        while (sent - received < 8) {
          pump = client.Send(++sent, requests);
          if (!pump.ok()) break;
        }
        if (!pump.ok()) break;
        std::uint32_t tag = 0;
        std::vector<kv::Response> responses;
        pump = client.Receive(&tag, &responses);
        if (!pump.ok()) break;
        ++received;
        if (responses.empty()) return Status::Corruption("empty response frame");
        switch (responses[0].code) {
          case Status::Code::kShuttingDown: ++shutdown_rejected; break;
          case Status::Code::kOverloaded: ++overloaded; break;
          default: ++executed; break;
        }
      }
      // After the shutdown races in, the only legal ends of the conversation
      // are a transport error (kIoError: send raced the read-side shutdown)
      // or a clean EOF (kNotFound) -- and EOF may only arrive after every
      // admitted frame was answered. Drain what is still in the pipe.
      for (;;) {
        std::uint32_t tag = 0;
        std::vector<kv::Response> responses;
        const Status status = client.Receive(&tag, &responses);
        if (!status.ok()) break;
        ++received;
        if (responses.empty()) return Status::Corruption("empty response frame");
        switch (responses[0].code) {
          case Status::Code::kShuttingDown: ++shutdown_rejected; break;
          case Status::Code::kOverloaded: ++overloaded; break;
          default: ++executed; break;
        }
      }
      if (received > sent) return Status::Corruption("more responses than requests");
      return Status::Ok();
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_TRUE(harness.server->Shutdown().ok());
    clients.RequestStop();
    ASSERT_TRUE(clients.JoinAll().ok());

    const server::ServerCounters counters = harness.server->counters();
    // Reconciliation: what clients observed is exactly what the server did.
    // A response written into a connection the client already abandoned
    // cannot happen here -- clients drain to EOF -- so the counts match 1:1.
    EXPECT_EQ(counters.batches_executed, executed.load());
    EXPECT_EQ(counters.batches_shutdown_rejected, shutdown_rejected.load());
    EXPECT_EQ(counters.batches_overloaded, overloaded.load());
    EXPECT_GT(counters.batches_executed, 0u);
  }
}

// --- serve / shutdown / recover ---------------------------------------------

TEST(KvServerRecoveryTest, CommittedHistorySurvivesRestart) {
  // The full cycle the CLI's serve/--recover implements, in-process: clients
  // write through the server, graceful shutdown checkpoints, a second engine
  // recovers from the same durable store, and every key answers bit-equal to
  // the live engine that took the writes.
  const auto records = ToRecords(UniformKeys(2000, 31));
  EngineOptions engine_options = ServerEngineOptions(3);
  engine_options.index.durability = DurabilityPolicy::kGroupCommit;
  engine_options.index.wal_group_window = 4;
  DurableStore store(engine_options.index.block_size);
  engine_options.durable_store = &store;

  ShardedEngine engine(engine_options);
  ASSERT_TRUE(engine.Bulkload(records).ok());
  const std::string path = TestSocketPath("recover");
  server::ServerOptions server_options;
  server_options.unix_path = path;
  server_options.workers = 3;
  server::KvServer server(&engine, server_options);
  ASSERT_TRUE(server.Start().ok());

  // 3 client threads, YCSB-A-style 50/50 read/update mix over the loaded
  // set, all acknowledged before shutdown.
  RacingThreads clients;
  clients.StartN(3, [&](std::size_t c, const std::atomic<bool>&) -> Status {
    server::KvClient client;
    LIOD_RETURN_IF_ERROR(client.ConnectUnix(path));
    Rng rng(1000 + c);
    kv::RequestBatch batch;
    std::vector<kv::Response> responses;
    for (int i = 0; i < 500; ++i) {
      batch.Clear();
      const Key key = records[rng.NextBounded(records.size())].key;
      if (i % 2 == 0) {
        batch.AddInsert(key, key + 31 + c);
      } else {
        batch.AddLookup(key);
      }
      LIOD_RETURN_IF_ERROR(client.Call(batch.requests, &responses));
      if (responses[0].code != Status::Code::kOk &&
          responses[0].code != Status::Code::kNotFound) {
        return Status(responses[0].code, "unexpected op failure");
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(clients.JoinAll().ok());
  ASSERT_TRUE(server.Shutdown().ok());
  ::unlink(path.c_str());

  // Recover a second engine from the store the first one logged into.
  EngineOptions recovered_options = engine_options;
  ShardedEngine recovered(recovered_options);
  ShardedEngine::RecoverySummary summary;
  ASSERT_TRUE(recovered.RecoverFrom(&store, records, &summary).ok());
  EXPECT_FALSE(summary.torn_tail);

  // Bit-equal committed answers across the entire keyspace.
  for (const Record& r : records) {
    Payload live_payload = 0, rec_payload = 0;
    bool live_found = false, rec_found = false;
    ASSERT_TRUE(engine.Lookup(r.key, &live_payload, &live_found).ok());
    ASSERT_TRUE(recovered.Lookup(r.key, &rec_payload, &rec_found).ok());
    ASSERT_EQ(live_found, rec_found) << "key " << r.key;
    ASSERT_EQ(live_payload, rec_payload) << "key " << r.key;
  }
}

}  // namespace
}  // namespace liod
