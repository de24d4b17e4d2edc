// The Prometheus scrape surface: a small HTTP handler answering
//   GET /metrics   -> text exposition of the registry snapshot (200)
// on 127.0.0.1, served by the TcpServer core (net/tcp: poll() readiness
// thread, worker pool, draining Stop()) with the net/http framing
// (ReadHttpRequest + BuildHttpResponseHead) that already serves the object
// backend. Anything that is not GET /metrics gets a 404.
#ifndef CDSTORE_SRC_OBS_METRICS_HTTP_H_
#define CDSTORE_SRC_OBS_METRICS_HTTP_H_

#include <memory>
#include <string>

#include "src/net/tcp.h"
#include "src/obs/metrics.h"
#include "src/util/status.h"

namespace cdstore {

class MetricsHttpServer {
 public:
  // Binds 127.0.0.1:`port` (0 = ephemeral). `registry` is scraped per
  // request; not owned, must outlive the server.
  static Result<std::unique_ptr<MetricsHttpServer>> Start(MetricRegistry* registry,
                                                          int port = 0);

  void Stop() { server_->Stop(); }  // idempotent

  int port() const { return server_->port(); }
  std::string url() const {
    return "http://127.0.0.1:" + std::to_string(port()) + "/metrics";
  }

 private:
  explicit MetricsHttpServer(std::unique_ptr<TcpServer> server) : server_(std::move(server)) {}

  std::unique_ptr<TcpServer> server_;
};

}  // namespace cdstore

#endif  // CDSTORE_SRC_OBS_METRICS_HTTP_H_
