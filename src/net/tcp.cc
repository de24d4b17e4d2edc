#include "src/net/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/net/service.h"
#include "src/util/logging.h"

namespace cdstore {

namespace {

// The [u32 little-endian length][frame] codec shared by the server and
// TcpTransport::Call.
Status WriteFrame(DeadlineSocket& sock, ConstByteSpan frame, SockDeadline deadline) {
  uint8_t hdr[4];
  uint32_t len = static_cast<uint32_t>(frame.size());
  for (int i = 0; i < 4; ++i) {
    hdr[i] = static_cast<uint8_t>(len >> (8 * i));
  }
  RETURN_IF_ERROR(sock.SendAll(hdr, 4, deadline));
  return frame.empty() ? Status::Ok() : sock.SendAll(frame.data(), frame.size(), deadline);
}

// A length past kMaxFrameBytes is kCorruption, checked before the frame
// buffer is sized: the peer's header is untrusted input.
Result<Bytes> ReadFrame(DeadlineSocket& sock, SockDeadline deadline) {
  uint8_t hdr[4];
  RETURN_IF_ERROR(sock.RecvAll(hdr, 4, deadline));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(hdr[i]) << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    return Status::Corruption("frame exceeds the frame cap");
  }
  Bytes frame(len);
  if (len > 0) {
    RETURN_IF_ERROR(sock.RecvAll(frame.data(), len, deadline));
  }
  return frame;
}

}  // namespace

TcpServer::TcpServer(int fd, int port, ConnHandler handler, TcpServerOptions options)
    : listen_fd_(fd), port_(port), handler_(std::move(handler)) {
  int num_workers = std::max(options.num_workers, 1);
  CHECK(::pipe(wake_pipe_) == 0);
  // Non-blocking both ways: draining must not block the poller once the
  // pending wakeups run out, and a full pipe just means one is pending.
  ::fcntl(wake_pipe_[0], F_SETFL, O_NONBLOCK);
  ::fcntl(wake_pipe_[1], F_SETFL, O_NONBLOCK);
  poll_thread_ = std::thread([this]() { PollLoop(); });
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
}

TcpServer::~TcpServer() { Stop(); }

Result<std::unique_ptr<TcpServer>> TcpServer::Listen(int port, ServerService* service,
                                                     TcpServerOptions options) {
  return Listen(port, ServiceHandler(service), options);
}

Result<std::unique_ptr<TcpServer>> TcpServer::Listen(int port, RpcHandler handler,
                                                     TcpServerOptions options) {
  ConnHandler exchange = [handler = std::move(handler)](DeadlineSocket& sock) {
    Result<Bytes> request = ReadFrame(sock, DeadlineAfterMs(kServerIoTimeoutMs));
    if (!request.ok()) {
      return false;
    }
    Bytes reply = handler(request.value());
    return WriteFrame(sock, reply, DeadlineAfterMs(kServerIoTimeoutMs)).ok();
  };
  return Listen(port, std::move(exchange), options);
}

Result<std::unique_ptr<TcpServer>> TcpServer::Listen(int port, ConnHandler handler,
                                                     TcpServerOptions options) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket() failed");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IOError("bind() failed");
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::IOError("listen() failed");
  }
  // Accepts are gated on poll() readiness; a connection that is reset
  // between poll() and accept() must not block the only dispatch thread.
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  int bound_port = ntohs(addr.sin_port);
  return std::unique_ptr<TcpServer>(
      new TcpServer(fd, bound_port, std::move(handler), options));
}

void TcpServer::WakePoller() {
  uint8_t byte = 1;
  ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  (void)n;  // pipe full = a wakeup is already pending
}

void TcpServer::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<int> polled;  // connection behind fds[i + 2]
  while (!stopping_) {
    fds.clear();
    polled.clear();
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});
    {
      MutexLock lock(mu_);
      for (int fd : idle_) {
        fds.push_back({fd, POLLIN, 0});
        polled.push_back(fd);
      }
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (stopping_) {
      break;
    }
    if (fds[0].revents != 0) {  // drain wakeups; the rebuild picks up idle_
      uint8_t buf[64];
      while (::read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
      }
    }
    if ((fds[1].revents & POLLIN) != 0) {
      int conn;
      while ((conn = ::accept(listen_fd_, nullptr, nullptr)) >= 0) {
        int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        MutexLock lock(mu_);
        idle_.insert(conn);
        conns_.emplace(conn, DeadlineSocket(conn));
      }
    }
    bool admitted = false;
    {
      MutexLock lock(mu_);
      for (size_t i = 0; i < polled.size(); ++i) {
        if ((fds[i + 2].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        if (idle_.erase(polled[i]) == 0) {
          continue;
        }
        ready_.push_back(polled[i]);
        ++in_flight_;
        admitted = true;
      }
    }
    if (admitted) {
      ready_cv_.SignalAll();
    }
  }
}

void TcpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    DeadlineSocket* sock = nullptr;
    {
      MutexLock lock(mu_);
      ready_cv_.Wait(mu_, [this]() REQUIRES(mu_) { return !ready_.empty() || workers_stop_; });
      if (ready_.empty()) {
        return;  // stopping and fully drained
      }
      fd = ready_.front();
      ready_.pop_front();
      sock = &conns_.at(fd);
    }
    bool alive = handler_(*sock);
    bool rearmed = false;
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (alive && !stopping_) {
        idle_.insert(fd);
        rearmed = true;
      } else {
        conns_.erase(fd);  // closes the socket
      }
    }
    drained_cv_.SignalAll();
    if (rearmed) {
      WakePoller();
    }
  }
}

void TcpServer::Stop() {
  if (stopping_.exchange(true)) {
    return;
  }
  // 1. No new connections or request admissions.
  ::shutdown(listen_fd_, SHUT_RDWR);
  WakePoller();
  if (poll_thread_.joinable()) {
    poll_thread_.join();
  }
  // 2. Drain: every admitted request finishes and writes its reply. The
  // deadline covers the pathological case of a worker stuck mid-frame on a
  // stalled client; the shutdown below unblocks it.
  {
    MutexLock lock(mu_);
    drained_cv_.WaitForMs(mu_, kServerDrainTimeoutMs,
                          [this]() REQUIRES(mu_) { return ready_.empty() && in_flight_ == 0; });
    workers_stop_ = true;
    for (const auto& conn : conns_) {
      ::shutdown(conn.first, SHUT_RDWR);
    }
  }
  ready_cv_.SignalAll();
  for (auto& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  {
    MutexLock lock(mu_);
    conns_.clear();  // closes every connection
    idle_.clear();
  }
  ::close(listen_fd_);
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
}

Result<std::unique_ptr<TcpTransport>> TcpTransport::Connect(const std::string& host, int port,
                                                            TcpTransportOptions options) {
  ASSIGN_OR_RETURN(DeadlineSocket sock,
                   DeadlineSocket::ConnectTcp(host, port,
                                              DeadlineAfterMs(options.connect_timeout_ms)));
  return std::unique_ptr<TcpTransport>(new TcpTransport(std::move(sock), options));
}

Result<Bytes> TcpTransport::Call(ConstByteSpan request) {
  MutexLock lock(mu_);
  if (!sock_.valid()) {
    return Status::Unavailable("transport broken by an earlier timeout");
  }
  // One deadline covers the whole exchange. After a timeout the stream is
  // desynchronized (a late reply would answer the wrong request), so the
  // connection is closed for good and later calls fail fast.
  SockDeadline deadline = DeadlineAfterMs(opts_.rpc_deadline_ms);
  Status st = WriteFrame(sock_, request, deadline);
  Result<Bytes> reply = st.ok() ? ReadFrame(sock_, deadline) : Result<Bytes>(st);
  if (!reply.ok()) {
    sock_.Close();
    return reply.status().code() == StatusCode::kDeadlineExceeded
               ? Status::DeadlineExceeded("RPC deadline exceeded")
               : Status::Unavailable("RPC failed: " + reply.status().message());
  }
  return reply;
}

}  // namespace cdstore
