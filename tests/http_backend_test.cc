#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <chrono>
#include <thread>
#include <vector>

#include "src/net/faulty_http_server.h"
#include "src/net/http.h"
#include "src/storage/http_backend.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

uint64_t ElapsedMs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

// Fast-failing policy so fault tests never sleep out real production backoffs.
HttpBackendOptions FastOptions() {
  HttpBackendOptions o;
  o.retry.max_attempts = 4;
  o.retry.initial_backoff_ms = 5;
  o.retry.max_backoff_ms = 20;
  o.retry.attempt_deadline_ms = 2000;
  return o;
}

TEST(HttpEndpointTest, Parsing) {
  auto ep = ParseHttpEndpoint("http://127.0.0.1:8080/bucket");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->host, "127.0.0.1");
  EXPECT_EQ(ep->port, 8080);
  EXPECT_EQ(ep->bucket, "bucket");

  ep = ParseHttpEndpoint("http://10.0.0.2/b");
  ASSERT_TRUE(ep.ok());
  EXPECT_EQ(ep->port, 80);  // default

  EXPECT_FALSE(ParseHttpEndpoint("https://h:1/b").ok());
  EXPECT_FALSE(ParseHttpEndpoint("http://h:1").ok());      // no bucket
  EXPECT_FALSE(ParseHttpEndpoint("http://h:x/b").ok());    // bad port
  EXPECT_FALSE(ParseHttpEndpoint("http://h:1/b/c").ok());  // nested bucket
  EXPECT_FALSE(ParseHttpEndpoint("dir/path").ok());
}

TEST(HttpBackendTest, FaultFreeRoundTripReusesConnections) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b1"), FastOptions());
  ASSERT_TRUE(backend.ok());
  HttpObjectBackend& b = **backend;

  Bytes blob = Rng(77).RandomBytes(64 * 1024);
  ASSERT_TRUE(b.Put("obj-a", blob).ok());
  ASSERT_TRUE(b.Put("obj-b", BytesOf("two")).ok());
  EXPECT_EQ(b.Get("obj-a").value(), blob);
  EXPECT_TRUE(b.Exists("obj-b"));
  EXPECT_FALSE(b.Exists("missing"));
  auto names = b.List();
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), (std::vector<std::string>{"obj-a", "obj-b"}));
  ASSERT_TRUE(b.Delete("obj-b").ok());
  EXPECT_EQ(b.Get("obj-b").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(b.retries(), 0u);
  // Serial requests ride one kept-alive connection; the 404s above must
  // not have burned redials either.
  EXPECT_EQ(b.connections_opened(), 1u);
}

TEST(HttpBackendTest, TransientServerErrorsRetriedTransparently) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), FastOptions());
  ASSERT_TRUE(backend.ok());

  (*server)->plan()->ForceNext(FaultKind::kError, 2);
  ASSERT_TRUE((*backend)->Put("obj", BytesOf("payload")).ok());
  EXPECT_EQ((*backend)->retries(), 2u);  // two 500s absorbed, third attempt won
  EXPECT_EQ((*server)->store()->Get("b/obj").value(), BytesOf("payload"));
}

TEST(HttpBackendTest, PartialBodyRetried) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->store()->Put("b/obj", Rng(5).RandomBytes(8192)).ok());
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), FastOptions());
  ASSERT_TRUE(backend.ok());

  (*server)->plan()->ForceNext(FaultKind::kPartialBody, 1);
  auto got = (*backend)->Get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), (*server)->store()->Get("b/obj").value());
  EXPECT_GE((*backend)->retries(), 1u);
}

TEST(HttpBackendTest, ConnectionDropRetried) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->store()->Put("b/obj", BytesOf("v")).ok());
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), FastOptions());
  ASSERT_TRUE(backend.ok());

  // First-ever request rides a fresh connection, so the injected drop is a
  // real failed attempt (not the stale-keep-alive redial).
  (*server)->plan()->ForceNext(FaultKind::kDrop, 1);
  auto got = (*backend)->Get("obj");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), BytesOf("v"));
  EXPECT_GE((*backend)->retries(), 1u);
}

TEST(HttpBackendTest, StallHitsAttemptDeadlineThenRetrySucceeds) {
  FaultSpec faults;
  faults.stall_ms = 3000;
  auto server = FaultyHttpServer::Start(0, faults);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->store()->Put("b/obj", Rng(9).RandomBytes(4096)).ok());
  HttpBackendOptions opts = FastOptions();
  opts.retry.attempt_deadline_ms = 200;  // far below the 3s stall
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), opts);
  ASSERT_TRUE(backend.ok());

  (*server)->plan()->ForceNext(FaultKind::kStall, 1);
  auto start = std::chrono::steady_clock::now();
  auto got = (*backend)->Get("obj");
  uint64_t elapsed = ElapsedMs(start);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), (*server)->store()->Get("b/obj").value());
  EXPECT_GE((*backend)->retries(), 1u);
  // The caller waited out the deadline, not the stall.
  EXPECT_LT(elapsed, 2500u);
}

// Stop() drains: a PUT held by an injected stall when Stop() runs has its
// stall cut short, is stored and gets its 200 before the connection is cut,
// and Stop() returns inside the drain bound.
TEST(HttpBackendTest, StopRepliesToAStalledPutBeforeCuttingIt) {
  FaultSpec faults;
  faults.stall_ms = 10000;
  auto server = FaultyHttpServer::Start(0, faults);
  ASSERT_TRUE(server.ok());
  (*server)->plan()->ForceNext(FaultKind::kStall, 1);

  HttpClient client("127.0.0.1", (*server)->port());
  Result<HttpResponse> resp = Status::Unavailable("PUT not sent");
  std::thread put([&]() { resp = client.Do("PUT", "/b/obj", BytesOf("payload"), 20000); });
  while ((*server)->requests_served() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // inside the stall

  auto start = std::chrono::steady_clock::now();
  (*server)->Stop();
  uint64_t stop_ms = ElapsedMs(start);
  put.join();
  ASSERT_TRUE(resp.ok()) << resp.status();
  EXPECT_EQ(resp.value().status, 200);
  auto stored = (*server)->store()->Get("b/obj");
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored.value(), BytesOf("payload"));
  EXPECT_LT(stop_ms, static_cast<uint64_t>(kServerDrainTimeoutMs));
}

TEST(HttpBackendTest, ClientErrorIsTerminalAndNotRetried) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), FastOptions());
  ASSERT_TRUE(backend.ok());

  EXPECT_EQ((*backend)->Get("missing").status().code(), StatusCode::kNotFound);
  EXPECT_EQ((*backend)->Delete("missing").code(), StatusCode::kNotFound);
  EXPECT_EQ((*backend)->retries(), 0u);
  EXPECT_EQ((*server)->requests_served(), 2u);  // one request per op, no retries
}

TEST(HttpBackendTest, DeadCloudFailsAfterRetryBudget) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), FastOptions());
  ASSERT_TRUE(backend.ok());

  (*server)->plan()->set_fail_all(true);
  auto start = std::chrono::steady_clock::now();
  Status st = (*backend)->Put("obj", BytesOf("x"));
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_EQ((*backend)->retries(), 3u);  // max_attempts - 1
  EXPECT_LT(ElapsedMs(start), 2000u);    // backoffs are bounded, no hang

  (*server)->plan()->set_fail_all(false);
  EXPECT_TRUE((*backend)->Put("obj", BytesOf("x")).ok());  // cloud recovered
}

TEST(HttpBackendTest, ParallelRequestsShareThePool) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  HttpBackendOptions opts = FastOptions();
  opts.max_connections = 4;
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), opts);
  ASSERT_TRUE(backend.ok());

  constexpr int kThreads = 16;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i]() {
      Bytes blob = Rng(1000 + i).RandomBytes(16 * 1024);
      if (!(*backend)->Put("obj-" + std::to_string(i), blob).ok()) {
        ++failures;
        return;
      }
      auto got = (*backend)->Get("obj-" + std::to_string(i));
      if (!got.ok() || got.value() != blob) {
        ++failures;
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures, 0);
  EXPECT_EQ((*backend)->List().value().size(), static_cast<size_t>(kThreads));
  // 32 requests, at most 4 sockets ever dialed.
  EXPECT_LE((*backend)->connections_opened(), 4u);
}

TEST(HttpBackendTest, UploadRateLimiterPacesTransfers) {
  auto server = FaultyHttpServer::Start(0);
  ASSERT_TRUE(server.ok());
  HttpBackendOptions opts = FastOptions();
  opts.upload_bytes_per_sec = 64 * 1024;
  opts.burst_bytes = 4 * 1024;
  auto backend = HttpObjectBackend::Open((*server)->endpoint("b"), opts);
  ASSERT_TRUE(backend.ok());

  auto start = std::chrono::steady_clock::now();
  ASSERT_TRUE((*backend)->Put("obj", Bytes(32 * 1024, 0xAB)).ok());
  // 32KB through a 64KB/s bucket with a 4KB burst: >= ~430ms of pacing.
  EXPECT_GE(ElapsedMs(start), 200u);
}

// A hostile cloud announcing a 1 TiB body must get an error back before the
// client sizes a buffer for it: resizing to the announced length would
// abort the process instead of failing the call.
TEST(HttpClientTest, OversizedResponseBodyIsRejectedBeforeAllocation) {
  int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listen_fd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);

  std::atomic<int> accepted{0};
  std::thread server([&]() {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      return;
    }
    ++accepted;
    std::string head;
    char c;
    while (head.find("\r\n\r\n") == std::string::npos && ::read(fd, &c, 1) == 1) {
      head.push_back(c);
    }
    const std::string reply =
        "HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nfirst bytes";
    (void)!::write(fd, reply.data(), reply.size());
    ::shutdown(fd, SHUT_WR);
    while (::read(fd, &c, 1) == 1) {
    }
    ::close(fd);
  });

  HttpClient client("127.0.0.1", port);
  auto resp = client.Do("GET", "/b/obj", {}, /*deadline_ms=*/5000);
  EXPECT_EQ(resp.status().code(), StatusCode::kCorruption) << resp.status();
  EXPECT_EQ(client.requests_sent(), 1u);  // a hostile reply is not retried
  server.join();
  ::close(listen_fd);
  EXPECT_EQ(accepted.load(), 1);
}

}  // namespace
}  // namespace cdstore
