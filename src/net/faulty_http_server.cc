#include "src/net/faulty_http_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace cdstore {

namespace {

// Worker pool size: HttpClient's default max_connections (8) plus as many
// again for requests held by an injected kStall (a client that gives up on
// one redials while the stall still holds its worker), so a stall never
// starves the client's other requests of a worker.
constexpr int kServerWorkers = 16;

}  // namespace

Result<std::unique_ptr<FaultyHttpServer>> FaultyHttpServer::Start(int port,
                                                                  const FaultSpec& faults) {
  std::unique_ptr<FaultyHttpServer> s(new FaultyHttpServer(faults));
  ConnHandler serve = [raw = s.get()](DeadlineSocket& sock) { return raw->Serve(sock); };
  ASSIGN_OR_RETURN(s->server_,
                   TcpServer::Listen(port, std::move(serve), {.num_workers = kServerWorkers}));
  return s;
}

FaultyHttpServer::~FaultyHttpServer() {
  if (server_ != nullptr) {  // null only when Start() failed to bind
    Stop();
  }
}

void FaultyHttpServer::Stop() {
  stopping_ = true;  // first, so a held stall ends and its request can reply
  server_->Stop();   // drains admitted requests, then cuts the connections
}

bool FaultyHttpServer::Serve(DeadlineSocket& sock) {
  HttpRequest req;
  auto got = ReadHttpRequest(sock, &req, DeadlineAfterMs(kServerIoTimeoutMs));
  if (!got.ok() || !got.value()) {
    return false;  // close, mid-request cut or protocol error
  }
  ++requests_served_;
  FaultKind fault = plan_.Next();
  if (fault == FaultKind::kStall) {
    // TCP stall: the request is in, the reply is held. Sleep in slices so
    // Stop() is never gated on a scheduled stall; the request is then served
    // as usual and replies before the drain cuts its connection.
    uint64_t remaining = plan_.spec().stall_ms;
    while (remaining > 0 && !stopping_) {
      uint64_t slice = std::min<uint64_t>(remaining, 50);
      std::this_thread::sleep_for(std::chrono::milliseconds(slice));
      remaining -= slice;
    }
  }
  SockDeadline send_deadline = DeadlineAfterMs(kServerIoTimeoutMs);
  auto reply = [&](int status, ConstByteSpan body) {
    std::string head = BuildHttpResponseHead(status, body.size(), /*keep_alive=*/true);
    if (!sock.SendAll(reinterpret_cast<const uint8_t*>(head.data()), head.size(),
                      send_deadline)
             .ok()) {
      return false;
    }
    return body.empty() || sock.SendAll(body.data(), body.size(), send_deadline).ok();
  };
  if (fault == FaultKind::kDrop) {
    return false;
  }
  if (fault == FaultKind::kError) {
    Bytes msg = BytesOf("injected fault");
    reply(500, msg);
    return true;
  }

  // Route: "/<bucket>/<name>" or "/<bucket>?list".
  std::string path = req.target;
  std::string query;
  if (size_t q = path.find('?'); q != std::string::npos) {
    query = path.substr(q + 1);
    path = path.substr(0, q);
  }
  if (path.empty() || path[0] != '/') {
    return reply(400, {});
  }
  std::string key = path.substr(1);  // "bucket/name" — the store's key shape
  size_t slash = key.find('/');

  if (req.method == "GET" && query == "list" && slash == std::string::npos) {
    auto names = store_.List();
    if (!names.ok()) {
      return reply(500, {});
    }
    std::string prefix = key + "/";
    std::string joined;
    std::sort(names.value().begin(), names.value().end());
    for (const std::string& n : names.value()) {
      if (n.rfind(prefix, 0) == 0) {
        joined += n.substr(prefix.size());
        joined += '\n';
      }
    }
    return reply(200, ConstByteSpan(reinterpret_cast<const uint8_t*>(joined.data()),
                                    joined.size()));
  }
  if (slash == std::string::npos || slash + 1 >= key.size()) {
    return reply(400, {});
  }

  if (req.method == "PUT") {
    Status st = store_.Put(key, req.body);
    return reply(st.ok() ? 200 : 500, {});
  }
  if (req.method == "GET" || req.method == "HEAD") {
    auto data = store_.Get(key);
    if (!data.ok()) {
      return reply(data.status().code() == StatusCode::kNotFound ? 404 : 500, {});
    }
    if (req.method == "HEAD") {
      std::string head = BuildHttpResponseHead(200, data.value().size(), true);
      return sock.SendAll(reinterpret_cast<const uint8_t*>(head.data()), head.size(),
                          send_deadline)
          .ok();
    }
    Bytes body = std::move(data.value());
    if (fault == FaultKind::kCorrupt && !body.empty()) {
      body[body.size() / 2] ^= 0x01;
    }
    if (fault == FaultKind::kPartialBody && body.size() >= 2) {
      // Claim the full length, deliver half, vanish.
      std::string head = BuildHttpResponseHead(200, body.size(), true);
      (void)sock.SendAll(reinterpret_cast<const uint8_t*>(head.data()), head.size(),
                         send_deadline);
      (void)sock.SendAll(body.data(), body.size() / 2, send_deadline);
      return false;
    }
    return reply(200, body);
  }
  if (req.method == "DELETE") {
    Status st = store_.Delete(key);
    return reply(st.ok() ? 204 : (st.code() == StatusCode::kNotFound ? 404 : 500), {});
  }
  return reply(400, {});
}

}  // namespace cdstore
