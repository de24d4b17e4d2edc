// FaultyHttpServer: an in-process S3-style object store that serves the
// subset of HTTP the HttpObjectBackend speaks — and misbehaves on demand.
// A seeded FaultPlan schedules 500s, stalls, partial bodies, and
// connection drops deterministically, so the robustness stack above it
// (retry/backoff, deadlines, cloud detach, lane failover) is exercised by
// a real transport instead of in-process flags, repeatably. It is a
// per-request handler on the TcpServer core (net/tcp): the poll() readiness
// thread and worker pool serve its connections, and Stop() cuts injected
// stalls short, then drains — a request already admitted gets its reply.
//
// Protocol (one bucket level, path-safe object names):
//   PUT    /<bucket>/<name>   store body          -> 200
//   GET    /<bucket>/<name>   fetch               -> 200 body | 404
//   HEAD   /<bucket>/<name>   existence           -> 200 | 404
//   DELETE /<bucket>/<name>   remove              -> 204 | 404
//   GET    /<bucket>?list     newline-joined names of the bucket -> 200
#ifndef CDSTORE_SRC_NET_FAULTY_HTTP_SERVER_H_
#define CDSTORE_SRC_NET_FAULTY_HTTP_SERVER_H_

#include <atomic>
#include <memory>
#include <string>

#include "src/net/http.h"
#include "src/net/tcp.h"
#include "src/storage/backend.h"
#include "src/util/fault_plan.h"
#include "src/util/status.h"

namespace cdstore {

class FaultyHttpServer {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral). Fault-free unless `faults`
  // says otherwise; the plan stays adjustable at runtime via plan().
  static Result<std::unique_ptr<FaultyHttpServer>> Start(int port, const FaultSpec& faults = {});

  ~FaultyHttpServer();
  void Stop();  // idempotent

  int port() const { return server_->port(); }
  std::string endpoint(const std::string& bucket) const {
    return "http://127.0.0.1:" + std::to_string(port()) + "/" + bucket;
  }

  // The authoritative object map behind the HTTP front (keys are
  // "bucket/name"), for byte-level assertions in tests.
  MemBackend* store() { return &store_; }
  // Fault schedule: one Next() draw per admitted request.
  FaultPlan* plan() { return &plan_; }

  uint64_t requests_served() const { return requests_served_; }

 private:
  explicit FaultyHttpServer(const FaultSpec& faults) : plan_(faults) {}
  // Serves one request off `sock`; returns false when the connection must
  // drop (injected drop/partial-body, a protocol error or a closed peer).
  bool Serve(DeadlineSocket& sock);

  MemBackend store_;
  FaultPlan plan_;
  std::atomic<bool> stopping_{false};  // set by Stop(): cuts injected stalls short
  std::atomic<uint64_t> requests_served_{0};
  std::unique_ptr<TcpServer> server_;  // last: its workers use the members above
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_NET_FAULTY_HTTP_SERVER_H_
