// Minimal HTTP/1.1 stack for the S3-style object backend: a deadline-aware
// socket wrapper, request/response framing, and a pooling client. The
// subset is exactly what an object store needs — PUT/GET/HEAD/DELETE with
// Content-Length bodies over persistent connections — written against the
// failure modes real clouds exhibit: a stalled peer surfaces as
// kDeadlineExceeded (retryable), a reply cut mid-body as kUnavailable,
// never as a thread pinned forever.
#ifndef CDSTORE_SRC_NET_HTTP_H_
#define CDSTORE_SRC_NET_HTTP_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace cdstore {

// Largest message body either side of the HTTP stack accepts (256 MiB),
// request or response: a peer's Content-Length beyond it is kCorruption,
// checked before any buffer is sized.
inline constexpr size_t kMaxHttpBodyBytes = size_t{256} << 20;

// Absolute deadline for socket operations; Never() = unbounded.
using SockDeadline = std::chrono::steady_clock::time_point;
inline SockDeadline NoSockDeadline() { return SockDeadline::max(); }
// `ms` from now; 0 = unbounded.
SockDeadline DeadlineAfterMs(uint64_t ms);

// A connected stream socket owned by this object, in non-blocking mode:
// every operation polls for readiness against an absolute deadline and
// fails with kDeadlineExceeded once it passes — the per-RPC deadline
// primitive under both the HTTP client and TcpTransport.
class DeadlineSocket {
 public:
  DeadlineSocket() = default;
  explicit DeadlineSocket(int fd);  // takes ownership; sets O_NONBLOCK
  ~DeadlineSocket();
  DeadlineSocket(DeadlineSocket&& other) noexcept;
  DeadlineSocket& operator=(DeadlineSocket&& other) noexcept;
  DeadlineSocket(const DeadlineSocket&) = delete;
  DeadlineSocket& operator=(const DeadlineSocket&) = delete;

  // Non-blocking connect to host:port bounded by the deadline.
  static Result<DeadlineSocket> ConnectTcp(const std::string& host, int port,
                                           SockDeadline deadline);

  bool valid() const { return fd_ >= 0; }
  void Close();

  // Writes the whole buffer or fails (kDeadlineExceeded on timeout,
  // kUnavailable when the peer resets).
  Status SendAll(const uint8_t* data, size_t len, SockDeadline deadline);
  // Reads up to `len` bytes; value 0 means orderly close by the peer.
  Result<size_t> RecvSome(uint8_t* data, size_t len, SockDeadline deadline);
  // Reads exactly `len` bytes; orderly close before that is kUnavailable.
  Status RecvAll(uint8_t* data, size_t len, SockDeadline deadline);

 private:
  int fd_ = -1;
};

struct HttpResponse {
  int status = 0;
  std::vector<std::pair<std::string, std::string>> headers;  // lowercased names
  Bytes body;
  bool keep_alive = true;

  // Empty string when absent; names compared case-insensitively.
  std::string HeaderValue(const std::string& name) const;
};

struct HttpClientOptions {
  // Pool cap = maximum parallel in-flight requests; further Do() calls
  // wait for a connection to come free.
  int max_connections = 8;
  uint64_t connect_timeout_ms = 5000;
};

// Thread-safe HTTP/1.1 client for one host:port. Connections are pooled
// and reused across requests (keep-alive); up to max_connections requests
// ride the wire in parallel. One Do() = one request/response exchange,
// bounded end to end by `deadline_ms`.
class HttpClient {
 public:
  HttpClient(std::string host, int port, HttpClientOptions options = {});
  ~HttpClient();

  // `deadline_ms` bounds the whole exchange, connect included; 0 = none.
  // A kept-alive connection the server already closed is redialed once
  // transparently (the standard stale-connection race), so callers only
  // ever see real failures.
  Result<HttpResponse> Do(const std::string& method, const std::string& target,
                          ConstByteSpan body, uint64_t deadline_ms = 0);

  int port() const { return port_; }
  // Locked: these counters are written by every concurrent Do(), so the
  // previous unlocked reads raced.
  uint64_t connections_opened() const {
    MutexLock lock(mu_);
    return connections_opened_;
  }
  uint64_t requests_sent() const {
    MutexLock lock(mu_);
    return requests_sent_;
  }

 private:
  struct Checkout {
    DeadlineSocket sock;
    bool reused = false;
  };
  Result<Checkout> CheckoutConn(SockDeadline deadline, bool force_fresh);
  void CheckinConn(DeadlineSocket sock, bool reusable);
  Result<HttpResponse> DoOnce(DeadlineSocket& sock, const std::string& method,
                              const std::string& target, ConstByteSpan body,
                              SockDeadline deadline);

  std::string host_;
  int port_;
  HttpClientOptions opts_;
  mutable Mutex mu_;
  CondVar slot_cv_;
  std::vector<DeadlineSocket> idle_ GUARDED_BY(mu_);
  int live_ GUARDED_BY(mu_) = 0;  // checked-out + idle connections
  uint64_t connections_opened_ GUARDED_BY(mu_) = 0;
  uint64_t requests_sent_ GUARDED_BY(mu_) = 0;
};

// --- shared request-side framing (used by the in-process test server) ------

struct HttpRequest {
  std::string method;
  std::string target;  // path (+ optional ?query), as sent
  std::vector<std::pair<std::string, std::string>> headers;  // lowercased names
  Bytes body;

  std::string HeaderValue(const std::string& name) const;
};

// Reads one request off `sock` (head + Content-Length body). Result value
// false = orderly close before any request bytes (keep-alive end), true =
// a complete request parsed into *out.
Result<bool> ReadHttpRequest(DeadlineSocket& sock, HttpRequest* out, SockDeadline deadline);

// Serializes a response head; `body_len` becomes Content-Length.
std::string BuildHttpResponseHead(int status, size_t body_len, bool keep_alive);

}  // namespace cdstore

#endif  // CDSTORE_SRC_NET_HTTP_H_
