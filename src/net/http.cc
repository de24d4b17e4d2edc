#include "src/net/http.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

namespace cdstore {

SockDeadline DeadlineAfterMs(uint64_t ms) {
  if (ms == 0) {
    return NoSockDeadline();
  }
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

namespace {

// Remaining poll() budget in ms, or -1 for "block forever"; 0 when expired.
int PollBudgetMs(SockDeadline deadline) {
  if (deadline == NoSockDeadline()) {
    return -1;
  }
  auto now = std::chrono::steady_clock::now();
  if (now >= deadline) {
    return 0;
  }
  auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now).count();
  return static_cast<int>(std::min<long long>(ms + 1, INT32_MAX));
}

// Waits for readiness; kDeadlineExceeded once the deadline passes.
Status AwaitReady(int fd, short events, SockDeadline deadline) {
  for (;;) {
    int budget = PollBudgetMs(deadline);
    if (budget == 0) {
      return Status::DeadlineExceeded("socket operation timed out");
    }
    pollfd pfd{fd, events, 0};
    int n = ::poll(&pfd, 1, budget);
    if (n > 0) {
      return Status::Ok();
    }
    if (n < 0 && errno != EINTR) {
      return Status::IOError("poll() failed");
    }
  }
}

std::string LowerCopy(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

std::string TrimCopy(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) {
    return "";
  }
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::string FindHeader(const std::vector<std::pair<std::string, std::string>>& headers,
                       const std::string& name) {
  std::string key = LowerCopy(name);
  for (const auto& [n, v] : headers) {
    if (n == key) {
      return v;
    }
  }
  return "";
}

// Splits an HTTP head (everything before the blank line) into its first
// line and lowercase-named headers.
void ParseHead(const std::string& head, std::string* first_line,
               std::vector<std::pair<std::string, std::string>>* headers) {
  size_t pos = head.find("\r\n");
  *first_line = head.substr(0, pos);
  while (pos != std::string::npos && pos + 2 < head.size()) {
    size_t end = head.find("\r\n", pos + 2);
    std::string line = head.substr(pos + 2, end == std::string::npos ? std::string::npos
                                                                     : end - pos - 2);
    pos = end;
    size_t colon = line.find(':');
    if (colon == std::string::npos) {
      continue;
    }
    headers->emplace_back(LowerCopy(TrimCopy(line.substr(0, colon))),
                          TrimCopy(line.substr(colon + 1)));
  }
}

// Reads from `sock` until the header/body separator; *head gets the bytes
// before it, *spill whatever body bytes rode in the same segments.
// Result value false = orderly close before the first byte.
Result<bool> ReadHead(DeadlineSocket& sock, std::string* head, Bytes* spill,
                      SockDeadline deadline) {
  std::string buf;
  uint8_t chunk[4096];
  for (;;) {
    size_t scan_from = buf.size() < 3 ? 0 : buf.size() - 3;
    ASSIGN_OR_RETURN(size_t n, sock.RecvSome(chunk, sizeof(chunk), deadline));
    if (n == 0) {
      if (buf.empty()) {
        return false;
      }
      return Status::Unavailable("connection closed mid-header");
    }
    buf.append(reinterpret_cast<char*>(chunk), n);
    size_t sep = buf.find("\r\n\r\n", scan_from);
    if (sep != std::string::npos) {
      *head = buf.substr(0, sep);
      spill->assign(buf.begin() + sep + 4, buf.end());
      return true;
    }
    if (buf.size() > (1u << 20)) {
      return Status::Corruption("HTTP head exceeds 1MB");
    }
  }
}

// The message's Content-Length (0 when absent), bounded by
// kMaxHttpBodyBytes so a hostile peer cannot size our buffer.
Result<size_t> BodyLength(const std::string& content_length) {
  if (content_length.empty()) {
    return size_t{0};
  }
  uint64_t len = std::strtoull(content_length.c_str(), nullptr, 10);
  if (len > kMaxHttpBodyBytes) {
    return Status::Corruption("HTTP body of " + content_length + " bytes exceeds the " +
                              std::to_string(kMaxHttpBodyBytes >> 20) + " MiB cap");
  }
  return static_cast<size_t>(len);
}

Status ReadBody(DeadlineSocket& sock, Bytes spill, size_t content_length, Bytes* body,
                SockDeadline deadline) {
  if (spill.size() > content_length) {
    return Status::Corruption("HTTP body longer than Content-Length");
  }
  *body = std::move(spill);
  size_t have = body->size();
  body->resize(content_length);
  if (have < content_length) {
    Status st = sock.RecvAll(body->data() + have, content_length - have, deadline);
    if (!st.ok()) {
      return st.code() == StatusCode::kUnavailable
                 ? Status::Unavailable("partial body: connection closed before Content-Length")
                 : st;
    }
  }
  return Status::Ok();
}

}  // namespace

// ------------------------------------------------------------ DeadlineSocket

DeadlineSocket::DeadlineSocket(int fd) : fd_(fd) {
  if (fd_ >= 0) {
    ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
}

DeadlineSocket::~DeadlineSocket() { Close(); }

DeadlineSocket::DeadlineSocket(DeadlineSocket&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

DeadlineSocket& DeadlineSocket::operator=(DeadlineSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void DeadlineSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<DeadlineSocket> DeadlineSocket::ConnectTcp(const std::string& host, int port,
                                                  SockDeadline deadline) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket() failed");
  }
  DeadlineSocket sock(fd);  // owns + sets O_NONBLOCK before connect
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (errno != EINPROGRESS) {
      return Status::Unavailable("connect() failed to " + host + ":" + std::to_string(port));
    }
    RETURN_IF_ERROR(AwaitReady(fd, POLLOUT, deadline));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      return Status::Unavailable("connect() failed to " + host + ":" + std::to_string(port));
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return sock;
}

Status DeadlineSocket::SendAll(const uint8_t* data, size_t len, SockDeadline deadline) {
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = ::send(fd_, data + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      RETURN_IF_ERROR(AwaitReady(fd_, POLLOUT, deadline));
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return Status::Unavailable("send failed: connection lost");
  }
  return Status::Ok();
}

Result<size_t> DeadlineSocket::RecvSome(uint8_t* data, size_t len, SockDeadline deadline) {
  for (;;) {
    ssize_t n = ::recv(fd_, data, len, 0);
    if (n >= 0) {
      return static_cast<size_t>(n);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      RETURN_IF_ERROR(AwaitReady(fd_, POLLIN, deadline));
      continue;
    }
    if (errno == EINTR) {
      continue;
    }
    return Status::Unavailable("recv failed: connection lost");
  }
}

Status DeadlineSocket::RecvAll(uint8_t* data, size_t len, SockDeadline deadline) {
  size_t got = 0;
  while (got < len) {
    ASSIGN_OR_RETURN(size_t n, RecvSome(data + got, len - got, deadline));
    if (n == 0) {
      return Status::Unavailable("connection closed mid-read");
    }
    got += n;
  }
  return Status::Ok();
}

// ---------------------------------------------------------------- responses

std::string HttpResponse::HeaderValue(const std::string& name) const {
  return FindHeader(headers, name);
}

std::string HttpRequest::HeaderValue(const std::string& name) const {
  return FindHeader(headers, name);
}

// ------------------------------------------------------------------- client

HttpClient::HttpClient(std::string host, int port, HttpClientOptions options)
    : host_(std::move(host)), port_(port), opts_(options) {
  if (opts_.max_connections < 1) {
    opts_.max_connections = 1;
  }
}

HttpClient::~HttpClient() = default;

Result<HttpClient::Checkout> HttpClient::CheckoutConn(SockDeadline deadline, bool force_fresh) {
  {
    MutexLock lock(mu_);
    if (!force_fresh && !idle_.empty()) {
      Checkout out;
      out.sock = std::move(idle_.back());
      idle_.pop_back();
      out.reused = true;
      return out;
    }
    // Respect the pool cap: wait for a connection to come back rather than
    // dialing past max_connections parallel exchanges.
    while (live_ >= opts_.max_connections) {
      if (!force_fresh && !idle_.empty()) {
        Checkout out;
        out.sock = std::move(idle_.back());
        idle_.pop_back();
        out.reused = true;
        return out;
      }
      if (!idle_.empty()) {  // force_fresh: retire an idle conn for the slot
        idle_.pop_back();
        --live_;
        break;
      }
      int budget = PollBudgetMs(deadline);
      if (budget == 0) {
        return Status::DeadlineExceeded("no free connection before deadline");
      }
      if (budget < 0) {
        slot_cv_.Wait(mu_);
      } else {
        slot_cv_.WaitForMs(mu_, budget);
      }
    }
    ++live_;  // slot claimed; released in CheckinConn or on connect failure
  }
  auto sock = DeadlineSocket::ConnectTcp(host_, port_, deadline);
  if (!sock.ok()) {
    MutexLock lock(mu_);
    --live_;
    slot_cv_.Signal();
    return sock.status();
  }
  Checkout out;
  out.sock = std::move(sock.value());
  out.reused = false;
  MutexLock lock(mu_);
  ++connections_opened_;
  return out;
}

void HttpClient::CheckinConn(DeadlineSocket sock, bool reusable) {
  MutexLock lock(mu_);
  if (reusable && sock.valid()) {
    idle_.push_back(std::move(sock));
  } else {
    --live_;
  }
  slot_cv_.Signal();
}

Result<HttpResponse> HttpClient::DoOnce(DeadlineSocket& sock, const std::string& method,
                                        const std::string& target, ConstByteSpan body,
                                        SockDeadline deadline) {
  std::string head = method + " " + target + " HTTP/1.1\r\nHost: " + host_ + ":" +
                     std::to_string(port_) + "\r\nContent-Length: " +
                     std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n\r\n";
  RETURN_IF_ERROR(sock.SendAll(reinterpret_cast<const uint8_t*>(head.data()), head.size(),
                               deadline));
  if (!body.empty()) {
    RETURN_IF_ERROR(sock.SendAll(body.data(), body.size(), deadline));
  }
  std::string resp_head;
  Bytes spill;
  ASSIGN_OR_RETURN(bool got, ReadHead(sock, &resp_head, &spill, deadline));
  if (!got) {
    return Status::Unavailable("connection closed before response");
  }
  HttpResponse resp;
  std::string status_line;
  ParseHead(resp_head, &status_line, &resp.headers);
  // "HTTP/1.1 200 OK"
  size_t sp = status_line.find(' ');
  if (sp == std::string::npos || status_line.rfind("HTTP/1.", 0) != 0) {
    return Status::Corruption("malformed HTTP status line: " + status_line);
  }
  resp.status = std::atoi(status_line.c_str() + sp + 1);
  if (resp.status < 100 || resp.status > 599) {
    return Status::Corruption("malformed HTTP status line: " + status_line);
  }
  resp.keep_alive = LowerCopy(resp.HeaderValue("connection")) != "close";
  // A HEAD reply's Content-Length describes the object, not a body to read.
  if (method != "HEAD") {
    ASSIGN_OR_RETURN(size_t content_length, BodyLength(resp.HeaderValue("content-length")));
    RETURN_IF_ERROR(ReadBody(sock, std::move(spill), content_length, &resp.body, deadline));
  }
  return resp;
}

Result<HttpResponse> HttpClient::Do(const std::string& method, const std::string& target,
                                    ConstByteSpan body, uint64_t deadline_ms) {
  SockDeadline deadline = DeadlineAfterMs(deadline_ms);
  // Two swings at most: a kept-alive connection the server closed behind
  // our back fails instantly on reuse — redial once on a fresh connection
  // and only then surface the failure.
  for (int swing = 0; swing < 2; ++swing) {
    ASSIGN_OR_RETURN(Checkout conn, CheckoutConn(deadline, /*force_fresh=*/swing > 0));
    {
      MutexLock lock(mu_);
      ++requests_sent_;
    }
    auto resp = DoOnce(conn.sock, method, target, body, deadline);
    if (resp.ok()) {
      CheckinConn(std::move(conn.sock), resp.value().keep_alive);
      return resp;
    }
    conn.sock.Close();
    CheckinConn(std::move(conn.sock), false);
    bool stale_reuse = conn.reused && resp.status().code() == StatusCode::kUnavailable;
    if (!stale_reuse || swing > 0) {
      return resp.status();
    }
  }
  return Status::Internal("unreachable");
}

// ---------------------------------------------------- request-side framing

Result<bool> ReadHttpRequest(DeadlineSocket& sock, HttpRequest* out, SockDeadline deadline) {
  std::string head;
  Bytes spill;
  ASSIGN_OR_RETURN(bool got, ReadHead(sock, &head, &spill, deadline));
  if (!got) {
    return false;
  }
  std::string request_line;
  out->headers.clear();
  ParseHead(head, &request_line, &out->headers);
  // "PUT /bucket/name HTTP/1.1"
  size_t sp1 = request_line.find(' ');
  size_t sp2 = sp1 == std::string::npos ? std::string::npos : request_line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    return Status::Corruption("malformed HTTP request line: " + request_line);
  }
  out->method = request_line.substr(0, sp1);
  out->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  ASSIGN_OR_RETURN(size_t content_length, BodyLength(out->HeaderValue("content-length")));
  RETURN_IF_ERROR(ReadBody(sock, std::move(spill), content_length, &out->body, deadline));
  return true;
}

std::string BuildHttpResponseHead(int status, size_t body_len, bool keep_alive) {
  const char* reason = "OK";
  switch (status) {
    case 200: reason = "OK"; break;
    case 204: reason = "No Content"; break;
    case 400: reason = "Bad Request"; break;
    case 404: reason = "Not Found"; break;
    case 500: reason = "Internal Server Error"; break;
    default: reason = "Status"; break;
  }
  return "HTTP/1.1 " + std::to_string(status) + " " + reason +
         "\r\nContent-Length: " + std::to_string(body_len) +
         (keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                     : "\r\nConnection: close\r\n\r\n");
}

}  // namespace cdstore
