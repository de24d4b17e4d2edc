// The one socket server core, and the TCP realization of the RPC
// protocol on it. TcpServer multiplexes every connection through one
// poll()-based readiness thread and a shared pool of workers (the
// multi-threaded communication module of §4.6) — a thousand idle clients
// cost a thousand fds, not a thousand threads. A protocol supplies only its
// per-exchange code, a ConnHandler: the RPC front end ([u32 length][frame]
// in both directions over persistent connections), the Prometheus scrape
// endpoint and the fault-injecting object store all run on this core.
// Stop() drains gracefully: exchanges already being served complete and
// their replies are written before the connections are cut.
#ifndef CDSTORE_SRC_NET_TCP_H_
#define CDSTORE_SRC_NET_TCP_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/net/http.h"
#include "src/net/transport.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace cdstore {

// Bound on one read phase and, separately, one write phase of a server
// exchange: a peer that stalls mid-request or stops draining its reply
// frees its worker after this long.
inline constexpr uint64_t kServerIoTimeoutMs = 30000;
// How long Stop() waits for admitted exchanges to finish before it cuts the
// remaining connections loose.
inline constexpr int kServerDrainTimeoutMs = 5000;

// Serves one exchange (read a request, write its reply) on a connection the
// poller found readable. Returning false closes the connection; true
// re-arms it for the next request.
using ConnHandler = std::function<bool(DeadlineSocket&)>;

struct TcpServerOptions {
  // Shared worker pool size. Also the bound on concurrently served
  // exchanges; further readable connections queue for a free worker.
  int num_workers = 4;
};

class TcpServer {
 public:
  ~TcpServer();

  // Binds to 127.0.0.1:`port` (0 = ephemeral) and starts accepting,
  // serving each exchange through `handler`.
  static Result<std::unique_ptr<TcpServer>> Listen(int port, ConnHandler handler,
                                                   TcpServerOptions options = {});
  // RPC front ends: each request frame goes through Dispatch(*service, ...)
  // or a raw-frame handler (tests, proxies). `service` is borrowed and must
  // outlive the server.
  static Result<std::unique_ptr<TcpServer>> Listen(int port, ServerService* service,
                                                   TcpServerOptions options = {});
  static Result<std::unique_ptr<TcpServer>> Listen(int port, RpcHandler handler,
                                                   TcpServerOptions options = {});

  int port() const { return port_; }

  // Graceful shutdown: stops accepting, lets admitted exchanges finish and
  // reply, then closes every connection and joins the pool. Idempotent.
  void Stop();

 private:
  TcpServer(int fd, int port, ConnHandler handler, TcpServerOptions options);

  void PollLoop();
  void WorkerLoop();
  void WakePoller();

  int listen_fd_;
  int port_;
  ConnHandler handler_;
  std::atomic<bool> stopping_{false};
  int wake_pipe_[2] = {-1, -1};  // poller wakeup (worker re-arms, Stop)

  Mutex mu_;
  std::unordered_set<int> idle_ GUARDED_BY(mu_);   // connections in the poll set
  std::deque<int> ready_ GUARDED_BY(mu_);  // readable connections awaiting a worker
  // Every live connection by fd; cut on Stop(). Node-based, so a worker's
  // reference to its socket survives other connections coming and going.
  std::unordered_map<int, DeadlineSocket> conns_ GUARDED_BY(mu_);
  int in_flight_ GUARDED_BY(mu_) = 0;  // exchanges admitted to the pool, not yet done
  bool workers_stop_ GUARDED_BY(mu_) = false;
  CondVar ready_cv_;    // work available / shutdown
  CondVar drained_cv_;  // in-flight count reached zero

  std::thread poll_thread_;
  std::vector<std::thread> workers_;
};

struct TcpTransportOptions {
  uint64_t connect_timeout_ms = 5000;
  // Budget for one Call() — send + server work + reply. A cloud that
  // accepts the request but never answers surfaces as kDeadlineExceeded
  // (retryable) instead of pinning the calling thread forever. 0 disables.
  uint64_t rpc_deadline_ms = 0;
};

class TcpTransport : public Transport {
 public:
  ~TcpTransport() override = default;

  static Result<std::unique_ptr<TcpTransport>> Connect(const std::string& host, int port,
                                                       TcpTransportOptions options = {});

  Result<Bytes> Call(ConstByteSpan request) override;

  void set_rpc_deadline_ms(uint64_t ms) { opts_.rpc_deadline_ms = ms; }

 private:
  TcpTransport(DeadlineSocket sock, TcpTransportOptions options)
      : sock_(std::move(sock)), opts_(options) {}
  DeadlineSocket sock_;
  TcpTransportOptions opts_;
  Mutex mu_;  // serialize request/reply pairs on the connection
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_NET_TCP_H_
