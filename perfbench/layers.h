// Measurement decorators the benchmark wraps around each cloud's public
// interfaces. Nothing here reaches into the program: every number is taken
// at a Transport or StorageBackend boundary.
//
//   CloudLink          one cloud's WAN link: a fixed per-call latency plus
//                      serialization at the link rate, transfers queued
//                      behind each other (request and reply bytes both pay)
//   MeteredTransport   the link model around a server handler; tallies per
//                      RPC type the calls, request/reply bytes, wall time,
//                      and the handler's own busy time (link excluded), and
//                      decodes the dedup answers the wire carries
//   MeteredBackend     counts and times every PUT/GET against a backend and
//                      keeps its own count of the bytes the backend holds
#ifndef CDSTORE_PERFBENCH_LAYERS_H_
#define CDSTORE_PERFBENCH_LAYERS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/net/message.h"
#include "src/net/transport.h"
#include "src/storage/backend.h"
#include "src/util/sync.h"

namespace cdstore::perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NanosSince(Clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// The RPCs the per-layer table breaks out; everything else lands in kOther.
enum Rpc : int { kFpQuery = 0, kUploadShares, kPutFile, kGetFile, kGetShares, kOther, kNumRpcs };
inline constexpr const char* kRpcNames[kNumRpcs] = {"FpQuery", "UploadShares", "PutFile",
                                                     "GetFile", "GetShares",    "Other"};

inline Rpc RpcOf(MsgType type) {
  switch (type) {
    case MsgType::kFpQueryRequest:
      return kFpQuery;
    case MsgType::kUploadSharesRequest:
      return kUploadShares;
    case MsgType::kPutFileRequest:
      return kPutFile;
    case MsgType::kGetFileRequest:
      return kGetFile;
    case MsgType::kGetSharesRequest:
      return kGetShares;
    default:
      return kOther;
  }
}

class CloudLink {
 public:
  CloudLink(double bytes_per_s, double latency_s)
      : bytes_per_s_(bytes_per_s), latency_s_(latency_s) {}
  CloudLink(const CloudLink&) = delete;
  CloudLink& operator=(const CloudLink&) = delete;

  void Latency() const {
    std::this_thread::sleep_for(std::chrono::duration<double>(latency_s_));
  }

  // Blocks until `bytes` have crossed the link behind every transfer
  // already queued on it.
  void Transfer(size_t bytes) {
    Clock::time_point done;
    {
      MutexLock lock(mu_);
      Clock::time_point now = Clock::now();
      if (next_free_ < now) {
        next_free_ = now;
      }
      next_free_ += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(static_cast<double>(bytes) / bytes_per_s_));
      done = next_free_;
    }
    std::this_thread::sleep_until(done);
  }

 private:
  const double bytes_per_s_;
  const double latency_s_;
  Mutex mu_;
  Clock::time_point next_free_ GUARDED_BY(mu_){};
};

struct RpcTally {
  uint64_t calls = 0;
  uint64_t req_bytes = 0;
  uint64_t reply_bytes = 0;
  uint64_t wall_ns = 0;  // whole call, link included
  uint64_t busy_ns = 0;  // server handler only
  std::vector<uint32_t> busy_us;  // one sample per call

  void Merge(const RpcTally& o) {
    calls += o.calls;
    req_bytes += o.req_bytes;
    reply_bytes += o.reply_bytes;
    wall_ns += o.wall_ns;
    busy_ns += o.busy_ns;
    busy_us.insert(busy_us.end(), o.busy_us.begin(), o.busy_us.end());
  }
};

// One cloud's traffic over one phase.
struct CloudNet {
  RpcTally rpc[kNumRpcs];
  uint64_t share_bytes_sent = 0;      // UploadShares payload bytes
  uint64_t shares_sent = 0;
  uint64_t shares_deduplicated = 0;   // UploadSharesReply::deduplicated
  uint64_t fps_queried = 0;
  uint64_t fps_present = 0;           // FpQuery answered "already stored"
  uint64_t errors = 0;                // error reply frames

  uint64_t wire_bytes() const {
    uint64_t total = 0;
    for (const RpcTally& t : rpc) {
      total += t.req_bytes + t.reply_bytes;
    }
    return total;
  }
  uint64_t busy_ns() const {
    uint64_t total = 0;
    for (const RpcTally& t : rpc) {
      total += t.busy_ns;
    }
    return total;
  }
  void Merge(const CloudNet& o) {
    for (int r = 0; r < kNumRpcs; ++r) {
      rpc[r].Merge(o.rpc[r]);
    }
    share_bytes_sent += o.share_bytes_sent;
    shares_sent += o.shares_sent;
    shares_deduplicated += o.shares_deduplicated;
    fps_queried += o.fps_queried;
    fps_present += o.fps_present;
    errors += o.errors;
  }
};

class MeteredTransport : public Transport {
 public:
  MeteredTransport(RpcHandler handler, CloudLink* link)
      : handler_(std::move(handler)), link_(link) {}

  Result<Bytes> Call(ConstByteSpan request) override {
    Clock::time_point t0 = Clock::now();
    link_->Latency();
    link_->Transfer(request.size());
    Clock::time_point h0 = Clock::now();
    Bytes reply = handler_(request);
    uint64_t busy_ns = NanosSince(h0);
    if (!reply.empty()) {
      link_->Transfer(reply.size());
    }
    uint64_t wall_ns = NanosSince(t0);

    // Untraced frames are the request itself; traced ones carry an
    // envelope the server peels before the typed decode.
    ConstByteSpan inner = request;
    if (PeekType(request) == MsgType::kTracedRequest) {
      TraceContextHeader ctx;
      if (!UnwrapTraced(request, &ctx, &inner).ok()) {
        inner = {};
      }
    }
    Rpc rpc = RpcOf(PeekType(inner));
    bool failed = !DecodeIfError(reply).ok();
    uint64_t share_bytes = 0, shares = 0, dedup = 0, queried = 0, present = 0;
    if (!failed && rpc == kUploadShares) {
      UploadSharesRequestView view;
      UploadSharesReply ack;
      if (DecodeView(inner, &view).ok() && Decode(reply, &ack).ok()) {
        shares = view.shares.size();
        for (ConstByteSpan s : view.shares) {
          share_bytes += s.size();
        }
        dedup = ack.deduplicated;
      }
    } else if (!failed && rpc == kFpQuery) {
      FpQueryReply answer;
      if (Decode(reply, &answer).ok()) {
        queried = answer.duplicate.size();
        for (uint8_t d : answer.duplicate) {
          present += d != 0 ? 1 : 0;
        }
      }
    }

    MutexLock lock(mu_);
    RpcTally& t = net_.rpc[rpc];
    ++t.calls;
    t.req_bytes += request.size();
    t.reply_bytes += reply.size();
    t.wall_ns += wall_ns;
    t.busy_ns += busy_ns;
    t.busy_us.push_back(static_cast<uint32_t>(busy_ns / 1000));
    net_.share_bytes_sent += share_bytes;
    net_.shares_sent += shares;
    net_.shares_deduplicated += dedup;
    net_.fps_queried += queried;
    net_.fps_present += present;
    net_.errors += failed ? 1 : 0;
    return reply;
  }

  // Everything tallied since the last call.
  CloudNet Take() {
    MutexLock lock(mu_);
    CloudNet out = std::move(net_);
    net_ = CloudNet{};
    return out;
  }

 private:
  RpcHandler handler_;
  CloudLink* link_;
  Mutex mu_;
  CloudNet net_ GUARDED_BY(mu_);
};

struct OpTally {
  uint64_t calls = 0;
  uint64_t bytes = 0;
  uint64_t ns = 0;

  void Merge(const OpTally& o) {
    calls += o.calls;
    bytes += o.bytes;
    ns += o.ns;
  }
};

struct StorageTally {
  OpTally put;
  OpTally get;

  void Merge(const StorageTally& o) {
    put.Merge(o.put);
    get.Merge(o.get);
  }
};

class MeteredBackend : public StorageBackend {
 public:
  explicit MeteredBackend(std::unique_ptr<StorageBackend> inner) : inner_(std::move(inner)) {}

  Status Put(const std::string& name, ConstByteSpan data) override {
    Clock::time_point t0 = Clock::now();
    Status st = inner_->Put(name, data);
    uint64_t ns = NanosSince(t0);
    MutexLock lock(mu_);
    if (st.ok()) {
      ++tally_.put.calls;
      tally_.put.bytes += data.size();
      tally_.put.ns += ns;
      held_bytes_ += data.size();
      held_bytes_ -= std::exchange(sizes_[name], data.size());
    }
    return st;
  }

  Result<Bytes> Get(const std::string& name) override {
    Clock::time_point t0 = Clock::now();
    Result<Bytes> r = inner_->Get(name);
    uint64_t ns = NanosSince(t0);
    if (r.ok()) {
      MutexLock lock(mu_);
      ++tally_.get.calls;
      tally_.get.bytes += r.value().size();
      tally_.get.ns += ns;
    }
    return r;
  }

  Status Delete(const std::string& name) override {
    Status st = inner_->Delete(name);
    if (st.ok()) {
      MutexLock lock(mu_);
      auto it = sizes_.find(name);
      if (it != sizes_.end()) {
        held_bytes_ -= it->second;
        sizes_.erase(it);
      }
    }
    return st;
  }

  Result<std::vector<std::string>> List() override { return inner_->List(); }
  bool Exists(const std::string& name) override { return inner_->Exists(name); }

  StorageTally Take() {
    MutexLock lock(mu_);
    return std::exchange(tally_, StorageTally{});
  }

  // Bytes this decorator saw written and not deleted.
  uint64_t held_bytes() const {
    MutexLock lock(mu_);
    return held_bytes_;
  }

 private:
  std::unique_ptr<StorageBackend> inner_;
  mutable Mutex mu_;
  StorageTally tally_ GUARDED_BY(mu_);
  std::unordered_map<std::string, uint64_t> sizes_ GUARDED_BY(mu_);
  uint64_t held_bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace cdstore::perfbench

#endif  // CDSTORE_PERFBENCH_LAYERS_H_
