// Synchronous request/reply transports between a CDStore client and one
// CDStore server. The in-process transport models the paper's testbeds by
// charging request/reply bytes against upload/download rate limiters; the
// TCP transport runs the same protocol over real sockets (loopback or LAN).
#ifndef CDSTORE_SRC_NET_TRANSPORT_H_
#define CDSTORE_SRC_NET_TRANSPORT_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/rate_limiter.h"
#include "src/util/status.h"

namespace cdstore {

class ServerService;

// Server-side dispatch: full request frame in, full reply frame out.
// Typed servers implement ServerService (src/net/service.h) instead; this
// remains the shape transports move frames through.
using RpcHandler = std::function<Bytes(ConstByteSpan)>;

// Largest request or reply frame a transport carries (64 MiB). The TCP
// front end rejects anything longer, and servers bound their replies by it
// (GetFile clamps its share prefetch to fit).
inline constexpr size_t kMaxFrameBytes = size_t{64} << 20;

class Transport {
 public:
  virtual ~Transport() = default;
  // Sends a request frame, blocks for the reply frame.
  virtual Result<Bytes> Call(ConstByteSpan request) = 0;
};

// Direct function-call transport with optional bandwidth emulation.
// Request bytes are charged to every `uplink`, reply bytes to every
// `downlink` (e.g. the client NIC and the per-cloud Internet path both
// gate an upload). Limiters are borrowed, not owned, so several
// transports can share one physical link.
class InProcTransport : public Transport {
 public:
  explicit InProcTransport(RpcHandler handler, RateLimiter* uplink = nullptr,
                           RateLimiter* downlink = nullptr);
  InProcTransport(RpcHandler handler, std::vector<RateLimiter*> uplinks,
                  std::vector<RateLimiter*> downlinks);
  // Typed-service construction: calls go through Dispatch(*service, frame).
  // `service` is borrowed and must outlive the transport.
  explicit InProcTransport(ServerService* service, RateLimiter* uplink = nullptr,
                           RateLimiter* downlink = nullptr);
  InProcTransport(ServerService* service, std::vector<RateLimiter*> uplinks,
                  std::vector<RateLimiter*> downlinks);

  Result<Bytes> Call(ConstByteSpan request) override;

  // Failure injection: a disconnected transport fails every call — the
  // cloud (or its co-located VM) is unreachable (§3.1).
  void set_connected(bool connected) { connected_ = connected; }

  // Per-RPC deadline, matching TcpTransportOptions::rpc_deadline_ms: a
  // reply stalled past it comes back as kDeadlineExceeded (retryable)
  // instead of blocking the caller. 0 disables.
  void set_rpc_deadline_ms(uint64_t ms) { rpc_deadline_ms_ = ms; }
  // Failure injection: every reply is held `ms` before delivery — the
  // cloud accepted the request but sits on the answer. With a deadline
  // set, a stall at or past it times the call out (after sleeping only
  // the deadline, never the full stall).
  void set_stall_ms(uint64_t ms) { stall_ms_ = ms; }

  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t deadline_trips() const { return deadline_trips_; }

 private:
  RpcHandler handler_;
  std::vector<RateLimiter*> uplinks_;
  std::vector<RateLimiter*> downlinks_;
  std::atomic<bool> connected_{true};
  std::atomic<uint64_t> rpc_deadline_ms_{0};
  std::atomic<uint64_t> stall_ms_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> bytes_received_{0};
  std::atomic<uint64_t> deadline_trips_{0};
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_NET_TRANSPORT_H_
