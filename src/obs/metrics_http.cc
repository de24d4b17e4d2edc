#include "src/obs/metrics_http.h"

#include "src/net/http.h"

namespace cdstore {

namespace {

// Scrapes are rare and tiny; one worker serves them in turn.
constexpr int kScrapeWorkers = 1;

}  // namespace

Result<std::unique_ptr<MetricsHttpServer>> MetricsHttpServer::Start(MetricRegistry* registry,
                                                                    int port) {
  ConnHandler scrape = [registry](DeadlineSocket& sock) {
    HttpRequest req;
    auto got = ReadHttpRequest(sock, &req, DeadlineAfterMs(kServerIoTimeoutMs));
    if (!got.ok() || !got.value()) {
      return false;  // close, protocol error or stalled peer
    }
    std::string path = req.target.substr(0, req.target.find('?'));
    std::string body;
    int status = 404;
    if (req.method == "GET" && path == "/metrics") {
      body = registry->PrometheusText();
      status = 200;
    }
    std::string reply = BuildHttpResponseHead(status, body.size(), /*keep_alive=*/true) + body;
    Status sent = sock.SendAll(reinterpret_cast<const uint8_t*>(reply.data()), reply.size(),
                               DeadlineAfterMs(kServerIoTimeoutMs));
    return sent.ok();
  };
  ASSIGN_OR_RETURN(std::unique_ptr<TcpServer> server,
                   TcpServer::Listen(port, std::move(scrape), {.num_workers = kScrapeWorkers}));
  return std::unique_ptr<MetricsHttpServer>(new MetricsHttpServer(std::move(server)));
}

}  // namespace cdstore
