#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "src/cloud/profiles.h"
#include "src/cloud/sim_cloud.h"
#include "src/net/message.h"
#include "src/net/tcp.h"
#include "src/net/transport.h"
#include "src/util/io.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

// --------------------------------------------------------------- SimCloud --

TEST(SimCloudTest, VirtualClockChargesBandwidth) {
  MemBackend inner;
  CloudProfile p{"test", 10.0, 0.0, 5.0, 0.0, 0.0};  // 10 MB/s up, 5 down
  SimCloud cloud(&inner, p, /*virtual_time=*/true);
  Bytes data(10 * 1024 * 1024, 'x');
  ASSERT_TRUE(cloud.Put("o", data).ok());
  EXPECT_NEAR(cloud.upload_seconds(), 1.0, 0.01);
  ASSERT_TRUE(cloud.Get("o").ok());
  EXPECT_NEAR(cloud.download_seconds(), 2.0, 0.01);
  EXPECT_EQ(cloud.bytes_uploaded(), data.size());
  EXPECT_EQ(cloud.bytes_downloaded(), data.size());
}

TEST(SimCloudTest, LatencyAccumulatesPerRequest) {
  MemBackend inner;
  CloudProfile p{"test", 0.0, 0.0, 0.0, 0.0, 0.1};  // unlimited bw, 100ms RTT
  SimCloud cloud(&inner, p, true);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(cloud.Put("o" + std::to_string(i), BytesOf("x")).ok());
  }
  EXPECT_NEAR(cloud.upload_seconds(), 0.5, 1e-9);
}

TEST(SimCloudTest, UnavailableCloudRejectsEverything) {
  MemBackend inner;
  SimCloud cloud(&inner, UnlimitedProfile(), true);
  ASSERT_TRUE(cloud.Put("o", BytesOf("x")).ok());
  cloud.set_available(false);
  EXPECT_EQ(cloud.Put("p", BytesOf("y")).code(), StatusCode::kUnavailable);
  EXPECT_EQ(cloud.Get("o").status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(cloud.Exists("o"));
  cloud.set_available(true);
  EXPECT_TRUE(cloud.Get("o").ok());
}

TEST(SimCloudTest, CorruptReadsFlipBytes) {
  MemBackend inner;
  SimCloud cloud(&inner, UnlimitedProfile(), true);
  Bytes data = Rng(1).RandomBytes(100);
  ASSERT_TRUE(cloud.Put("o", data).ok());
  cloud.set_corrupt_reads(true);
  auto got = cloud.Get("o");
  ASSERT_TRUE(got.ok());
  EXPECT_NE(got.value(), data) << "corruption injection must alter content";
  // The backing object is untouched.
  EXPECT_EQ(inner.Get("o").value(), data);
}

TEST(SimCloudTest, ResetClocksZeroesAccounting) {
  MemBackend inner;
  CloudProfile p{"t", 1.0, 0.0, 1.0, 0.0, 0.0};
  SimCloud cloud(&inner, p, true);
  ASSERT_TRUE(cloud.Put("o", Bytes(1024 * 1024, 'x')).ok());
  EXPECT_GT(cloud.upload_seconds(), 0.0);
  cloud.ResetClocks();
  EXPECT_EQ(cloud.upload_seconds(), 0.0);
  EXPECT_EQ(cloud.bytes_uploaded(), 0u);
}

TEST(MultiCloudTest, BuildsNClouds) {
  MultiCloud mc(Table2CloudProfiles());
  EXPECT_EQ(mc.cloud_count(), 4);
  EXPECT_EQ(mc.cloud(0)->profile().name, "Amazon");
  EXPECT_EQ(mc.cloud(3)->profile().name, "Rackspace");
}

// --------------------------------------------------------------- messages --

TEST(MessageTest, FpQueryRoundTrip) {
  FpQueryRequest req;
  req.user = 42;
  req.fps = {FingerprintOf(BytesOf("a")), FingerprintOf(BytesOf("b"))};
  Bytes frame = Encode(req);
  EXPECT_EQ(PeekType(frame), MsgType::kFpQueryRequest);
  FpQueryRequest back;
  ASSERT_TRUE(Decode(frame, &back).ok());
  EXPECT_EQ(back.user, 42u);
  EXPECT_EQ(back.fps, req.fps);

  FpQueryReply reply;
  reply.duplicate = {1, 0};
  FpQueryReply reply_back;
  ASSERT_TRUE(Decode(Encode(reply), &reply_back).ok());
  EXPECT_EQ(reply_back.duplicate, reply.duplicate);
}

TEST(MessageTest, UploadSharesRoundTrip) {
  UploadSharesRequest req;
  req.user = 7;
  req.shares = {Rng(2).RandomBytes(100), Rng(3).RandomBytes(0), Rng(4).RandomBytes(5000)};
  UploadSharesRequest back;
  ASSERT_TRUE(Decode(Encode(req), &back).ok());
  EXPECT_EQ(back.user, 7u);
  EXPECT_EQ(back.shares, req.shares);
}

TEST(MessageTest, PutFileAndGetFileRoundTrip) {
  PutFileRequest req;
  req.user = 9;
  req.path_key = BytesOf("pathshare");
  req.file_size = 123456;
  for (int i = 0; i < 10; ++i) {
    req.recipe.push_back({FingerprintOf(Bytes{static_cast<uint8_t>(i)}),
                          static_cast<uint32_t>(8192 - i), static_cast<uint32_t>(2763)});
  }
  PutFileRequest back;
  ASSERT_TRUE(Decode(Encode(req), &back).ok());
  EXPECT_EQ(back.file_size, req.file_size);
  ASSERT_EQ(back.recipe.size(), req.recipe.size());
  EXPECT_EQ(back.recipe[3].fp, req.recipe[3].fp);
  EXPECT_EQ(back.recipe[3].secret_size, req.recipe[3].secret_size);

  GetFileReply reply;
  reply.file_size = req.file_size;
  reply.recipe = req.recipe;
  GetFileReply reply_back;
  ASSERT_TRUE(Decode(Encode(reply), &reply_back).ok());
  EXPECT_EQ(reply_back.recipe.size(), req.recipe.size());
}

std::vector<RecipeEntry> SampleRecipe(int entries, uint32_t share_size) {
  std::vector<RecipeEntry> recipe;
  for (int i = 0; i < entries; ++i) {
    recipe.push_back({FingerprintOf(Bytes{static_cast<uint8_t>(i)}), 3 * share_size,
                      share_size});
  }
  return recipe;
}

PutFileRequest SampleCommit(int entries) {
  PutFileRequest c;
  c.user = 7;
  c.path_key = BytesOf("pathshare");
  c.path_id = BytesOf("pathid");
  c.path_name_len = 12;
  c.file_size = 99999;
  c.mode = PutFileMode::kPutGeneration;
  c.generation_id = 4;
  c.timestamp_ms = 1234;
  c.recipe = SampleRecipe(entries, 100);
  return c;
}

void ExpectSameCommit(const PutFileRequest& a, const PutFileRequest& b) {
  EXPECT_EQ(a.path_key, b.path_key);
  EXPECT_EQ(a.path_id, b.path_id);
  EXPECT_EQ(a.path_name_len, b.path_name_len);
  EXPECT_EQ(a.file_size, b.file_size);
  EXPECT_EQ(a.mode, b.mode);
  EXPECT_EQ(a.generation_id, b.generation_id);
  EXPECT_EQ(a.timestamp_ms, b.timestamp_ms);
  ASSERT_EQ(a.recipe.size(), b.recipe.size());
  for (size_t i = 0; i < a.recipe.size(); ++i) {
    EXPECT_EQ(a.recipe[i].fp, b.recipe[i].fp);
    EXPECT_EQ(a.recipe[i].secret_size, b.recipe[i].secret_size);
    EXPECT_EQ(a.recipe[i].share_size, b.recipe[i].share_size);
  }
}

TEST(MessageTest, UploadSharesRoundTripsWithAndWithoutCommit) {
  UploadSharesRequest req;
  req.user = 7;
  req.shares = {Rng(2).RandomBytes(100), Rng(4).RandomBytes(300)};
  Bytes bare = Encode(req);
  UploadSharesRequestView view;
  ASSERT_TRUE(DecodeView(bare, &view).ok());
  EXPECT_EQ(view.shares.size(), 2u);
  EXPECT_FALSE(view.commit.has_value());

  req.commit = SampleCommit(3);
  req.commit->query_from = 1;  // never rides on UploadShares
  Bytes full = Encode(req);
  UploadSharesRequest back;
  ASSERT_TRUE(Decode(full, &back).ok());
  EXPECT_EQ(back.shares, req.shares);
  ASSERT_TRUE(back.commit.has_value());
  EXPECT_EQ(back.commit->user, 7u);  // the request's user
  EXPECT_FALSE(back.commit->query_from.has_value());
  ExpectSameCommit(*back.commit, *req.commit);
  ASSERT_TRUE(DecodeView(full, &view).ok());
  ASSERT_EQ(view.shares.size(), 2u);
  ASSERT_TRUE(view.commit.has_value());
  ExpectSameCommit(*view.commit, *req.commit);
  EXPECT_EQ(Encode(back), full);

  UploadSharesReply reply;
  reply.stored = 2;
  reply.deduplicated = 1;
  UploadSharesReply reply_back;
  ASSERT_TRUE(Decode(Encode(reply), &reply_back).ok());
  EXPECT_EQ(reply_back.stored, 2u);
  EXPECT_FALSE(reply_back.generation_id.has_value());
  reply.generation_id = 17;
  ASSERT_TRUE(Decode(Encode(reply), &reply_back).ok());
  EXPECT_EQ(reply_back.deduplicated, 1u);
  EXPECT_EQ(reply_back.generation_id, std::optional<uint64_t>(17));
}

TEST(MessageTest, PutFileRoundTripsWithAndWithoutQueryFrom) {
  PutFileRequest req = SampleCommit(4);
  Bytes plain = Encode(req);
  PutFileRequest back;
  ASSERT_TRUE(Decode(plain, &back).ok());
  EXPECT_FALSE(back.query_from.has_value());
  ExpectSameCommit(back, req);

  req.query_from = 2;
  Bytes conditional = Encode(req);
  ASSERT_TRUE(Decode(conditional, &back).ok());
  EXPECT_EQ(back.query_from, std::optional<uint64_t>(2));
  ExpectSameCommit(back, req);
  EXPECT_EQ(Encode(back), conditional);
  // Only the mode byte's flag and the trailing u64 differ.
  EXPECT_EQ(conditional.size(), plain.size() + 8);

  PutFileReply reply;
  reply.generation_id = 5;
  Bytes committed = Encode(reply);
  PutFileReply reply_back;
  ASSERT_TRUE(Decode(committed, &reply_back).ok());
  EXPECT_EQ(reply_back.generation_id, 5u);
  EXPECT_FALSE(reply_back.duplicate.has_value());
  reply.generation_id = 0;
  reply.duplicate = std::vector<uint8_t>{1, 0};
  ASSERT_TRUE(Decode(Encode(reply), &reply_back).ok());
  EXPECT_EQ(reply_back.duplicate, reply.duplicate);
}

// Peers that predate the riding commit: an UploadShares frame and reply
// without the trailing fields decode as "no commit" and "no generation".
TEST(MessageTest, PreChangeUploadSharesFramesDecode) {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kUploadSharesRequest));
  w.PutU64(3);
  w.PutVarint(1);
  w.PutBytes(BytesOf("share"));
  Bytes frame = w.Take();
  UploadSharesRequest req;
  req.commit = SampleCommit(1);
  ASSERT_TRUE(Decode(frame, &req).ok());
  EXPECT_FALSE(req.commit.has_value());
  UploadSharesRequestView view;
  view.commit = SampleCommit(1);
  ASSERT_TRUE(DecodeView(frame, &view).ok());
  EXPECT_FALSE(view.commit.has_value());

  BufferWriter r;
  r.PutU8(static_cast<uint8_t>(MsgType::kUploadSharesReply));
  r.PutU32(1);
  r.PutU32(0);
  UploadSharesReply reply;
  reply.generation_id = 9;
  ASSERT_TRUE(Decode(r.Take(), &reply).ok());
  EXPECT_EQ(reply.stored, 1u);
  EXPECT_FALSE(reply.generation_id.has_value());
}

// The flag bit does not widen the mode range: 0x80|3 is still an unknown
// mode, and a flagged mode inside an UploadShares commit is one too.
TEST(MessageTest, FlaggedUnknownPutFileModeIsInvalid) {
  PutFileRequest req = SampleCommit(2);
  req.mode = static_cast<PutFileMode>(3);
  req.query_from = 0;
  PutFileRequest back;
  EXPECT_EQ(Decode(Encode(req), &back).code(), StatusCode::kInvalidArgument);

  UploadSharesRequest up;
  up.user = 1;
  up.shares = {BytesOf("s")};
  Bytes flagged = Encode(up);
  BufferWriter body;
  body.PutBytes(BytesOf("pathshare"));
  body.PutBytes(Bytes{});
  body.PutU32(0);
  body.PutU64(0);
  body.PutU8(0x80);  // kNewGeneration with the conditional flag
  body.PutU64(0);
  body.PutU64(0);
  body.PutVarint(0);
  body.PutU64(0);
  Bytes tail = body.Take();
  flagged.insert(flagged.end(), tail.begin(), tail.end());
  UploadSharesRequest up_back;
  EXPECT_EQ(Decode(flagged, &up_back).code(), StatusCode::kInvalidArgument);
}

// Every truncation of a commit-carrying UploadShares frame, a conditional
// PutFile and a bitmap reply returns a Status; none aborts or succeeds.
TEST(MessageTest, TruncatedCommitOrBitmapReturnsStatus) {
  UploadSharesRequest up;
  up.user = 1;
  up.shares = {BytesOf("share")};
  Bytes bare = Encode(up);
  up.commit = SampleCommit(3);
  Bytes full = Encode(up);
  for (size_t len = bare.size() + 1; len < full.size(); ++len) {
    Bytes cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    UploadSharesRequestView view;
    EXPECT_FALSE(DecodeView(cut, &view).ok()) << "length " << len;
  }

  PutFileRequest req = SampleCommit(3);
  req.query_from = 1;
  Bytes put = Encode(req);
  for (size_t len = 1; len < put.size(); ++len) {
    Bytes cut(put.begin(), put.begin() + static_cast<std::ptrdiff_t>(len));
    PutFileRequest back;
    EXPECT_FALSE(Decode(cut, &back).ok()) << "length " << len;
  }

  PutFileReply reply;
  reply.duplicate = std::vector<uint8_t>{0, 1, 1};
  Bytes frame = Encode(reply);
  Bytes committed = Encode(PutFileReply{});
  for (size_t len = committed.size() + 1; len < frame.size(); ++len) {
    Bytes cut(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len));
    PutFileReply back;
    EXPECT_FALSE(Decode(cut, &back).ok()) << "length " << len;
  }
}

TEST(MessageTest, GetFileRoundTripsWithAndWithoutPrefetch) {
  GetFileRequest req;
  req.user = 4;
  req.path_key = BytesOf("pathshare");
  req.generation = 9;
  req.prefetch_bytes = 4 << 20;
  GetFileRequest req_back;
  ASSERT_TRUE(Decode(Encode(req), &req_back).ok());
  EXPECT_EQ(req_back.user, 4u);
  EXPECT_EQ(req_back.path_key, req.path_key);
  EXPECT_EQ(req_back.generation, 9u);
  EXPECT_EQ(req_back.prefetch_bytes, uint64_t{4} << 20);

  GetFileReply reply;
  reply.generation_id = 3;
  reply.file_size = 5000;
  reply.recipe = SampleRecipe(5, 100);
  // Without prefetched shares.
  Bytes bare = Encode(reply);
  GetFileReply back;
  ASSERT_TRUE(Decode(bare, &back).ok());
  EXPECT_EQ(back.generation_id, 3u);
  EXPECT_EQ(back.recipe.size(), 5u);
  EXPECT_TRUE(back.shares.empty());
  EXPECT_EQ(Encode(back), bare);

  // With the first two shares prefetched: spans point into the frame.
  Bytes s0 = Rng(5).RandomBytes(100);
  Bytes s1 = Rng(6).RandomBytes(100);
  reply.shares = {s0, s1};
  Bytes full = Encode(reply);
  ASSERT_TRUE(Decode(full, &back).ok());
  EXPECT_EQ(back.recipe.size(), 5u);
  ASSERT_EQ(back.shares.size(), 2u);
  EXPECT_EQ(Bytes(back.shares[0].begin(), back.shares[0].end()), s0);
  EXPECT_EQ(Bytes(back.shares[1].begin(), back.shares[1].end()), s1);
  for (ConstByteSpan span : back.shares) {
    EXPECT_GE(span.data(), full.data());
    EXPECT_LE(span.data() + span.size(), full.data() + full.size());
  }
  EXPECT_EQ(Encode(back), full);
}

// Peers that predate the prefetch: a request without the trailing field
// asks for no shares, and a reply without the trailing list carries none.
TEST(MessageTest, PreChangeGetFileFramesDecode) {
  BufferWriter w;
  w.PutU8(static_cast<uint8_t>(MsgType::kGetFileRequest));
  w.PutU64(4);
  w.PutBytes(BytesOf("pathshare"));
  w.PutU64(9);
  GetFileRequest req;
  req.prefetch_bytes = 123;
  ASSERT_TRUE(Decode(w.Take(), &req).ok());
  EXPECT_EQ(req.user, 4u);
  EXPECT_EQ(req.generation, 9u);
  EXPECT_EQ(req.prefetch_bytes, 0u);

  GetFileReply reply;
  reply.file_size = 300;
  reply.recipe = SampleRecipe(3, 100);
  BufferWriter old_reply = BeginFileReply(reply);  // no share list at all
  GetFileReply back;
  ASSERT_TRUE(Decode(old_reply.Take(), &back).ok());
  EXPECT_EQ(back.recipe.size(), 3u);
  EXPECT_TRUE(back.shares.empty());
}

// A hostile reply's share count is checked against the frame before
// anything is reserved, and may not exceed the recipe it prefetches from.
TEST(MessageTest, GetFileReplyWithImpossibleShareCountIsCorruption) {
  GetFileReply reply;
  reply.recipe = SampleRecipe(3, 100);
  BufferWriter huge = BeginFileReply(reply);
  huge.PutVarint(uint64_t{1} << 60);
  huge.PutBytes(BytesOf("one share"));
  GetFileReply back;
  EXPECT_EQ(Decode(huge.Take(), &back).code(), StatusCode::kCorruption);

  BufferWriter extra = BeginFileReply(reply);
  extra.PutVarint(4);
  for (int i = 0; i < 4; ++i) {
    extra.PutBytes(BytesOf("s"));
  }
  EXPECT_EQ(Decode(extra.Take(), &back).code(), StatusCode::kCorruption);

  // Truncated mid-share: the length prefix overruns the frame.
  const Bytes share = BytesOf("abcdefgh");
  reply.shares = {share};
  Bytes cut = Encode(reply);
  cut.resize(cut.size() - 3);
  EXPECT_EQ(Decode(cut, &back).code(), StatusCode::kCorruption);
}

TEST(MessageTest, BatchEndAccumulatesUntilTheBudget) {
  std::vector<RecipeEntry> recipe = SampleRecipe(10, 100);
  EXPECT_EQ(BatchEnd(recipe, 0, 250), 3u);   // 100, 200, 300 >= 250
  EXPECT_EQ(BatchEnd(recipe, 3, 300), 6u);   // exactly the budget
  EXPECT_EQ(BatchEnd(recipe, 8, 1000), 10u); // runs out of entries
  EXPECT_EQ(BatchEnd(recipe, 4, 0), 5u);     // never empty
  EXPECT_EQ(BatchEnd(recipe, 10, 100), 10u); // nothing left
}

TEST(MessageTest, ErrorsCarryStatus) {
  Bytes frame = EncodeError(Status::NotFound("no such file"));
  EXPECT_EQ(PeekType(frame), MsgType::kError);
  Status st = DecodeIfError(frame);
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "no such file");
  // Non-error frames pass through.
  EXPECT_TRUE(DecodeIfError(Encode(StatsRequest{})).ok());
}

TEST(MessageTest, DecodeRejectsWrongType) {
  Bytes frame = Encode(StatsRequest{});
  FpQueryRequest req;
  EXPECT_FALSE(Decode(frame, &req).ok());
}

TEST(MessageTest, DecodeRejectsTruncatedFrame) {
  FpQueryRequest req;
  req.user = 1;
  req.fps = {FingerprintOf(BytesOf("x"))};
  Bytes frame = Encode(req);
  frame.resize(frame.size() / 2);
  FpQueryRequest back;
  EXPECT_FALSE(Decode(frame, &back).ok());
}

// -------------------------------------------------------------- transports --

TEST(InProcTransportTest, EchoesThroughHandler) {
  InProcTransport t([](ConstByteSpan req) {
    Bytes reply(req.begin(), req.end());
    std::reverse(reply.begin(), reply.end());
    return reply;
  });
  auto reply = t.Call(BytesOf("abc"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(StringOf(reply.value()), "cba");
  EXPECT_EQ(t.bytes_sent(), 3u);
  EXPECT_EQ(t.bytes_received(), 3u);
}

TEST(InProcTransportTest, DisconnectedFails) {
  InProcTransport t([](ConstByteSpan) { return Bytes{}; });
  t.set_connected(false);
  EXPECT_EQ(t.Call(BytesOf("x")).status().code(), StatusCode::kUnavailable);
  t.set_connected(true);
  EXPECT_TRUE(t.Call(BytesOf("x")).ok());
}

TEST(InProcTransportTest, DisconnectDuringCallFails) {
  // A disconnect while the server is handling the request (the cloud VM
  // vanished mid-call) must fail the call — never return a reply whose
  // downlink was skipped.
  InProcTransport* self = nullptr;
  bool drop_once = true;
  InProcTransport t([&](ConstByteSpan req) {
    if (drop_once) {
      drop_once = false;
      self->set_connected(false);
    }
    return Bytes(req.begin(), req.end());
  });
  self = &t;
  auto reply = t.Call(BytesOf("abc"));
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(t.bytes_sent(), 3u);      // the request did go out
  EXPECT_EQ(t.bytes_received(), 0u);  // the reply never made it back
  t.set_connected(true);
  EXPECT_TRUE(t.Call(BytesOf("abc")).ok());
}

TEST(InProcTransportTest, ChargesLinkBandwidth) {
  RateLimiter up(1024 * 1024);    // 1 MB/s
  RateLimiter down(2 * 1024 * 1024);
  up.set_simulated(true);
  down.set_simulated(true);
  InProcTransport t([](ConstByteSpan) { return Bytes(2 * 1024 * 1024, 'r'); }, &up, &down);
  ASSERT_TRUE(t.Call(Bytes(1024 * 1024, 'q')).ok());
  EXPECT_NEAR(up.simulated_seconds(), 1.0, 0.01);
  EXPECT_NEAR(down.simulated_seconds(), 1.0, 0.01);
}

TEST(TcpTest, RequestReplyOverLoopback) {
  auto server = TcpServer::Listen(0, [](ConstByteSpan req) {
    Bytes reply = BytesOf("pong:");
    reply.insert(reply.end(), req.begin(), req.end());
    return reply;
  });
  ASSERT_TRUE(server.ok());
  auto client = TcpTransport::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  auto reply = client.value()->Call(BytesOf("ping"));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(StringOf(reply.value()), "pong:ping");
}

TEST(TcpTest, MultipleSequentialCalls) {
  auto server = TcpServer::Listen(0, [](ConstByteSpan req) {
    return Bytes(req.begin(), req.end());
  });
  ASSERT_TRUE(server.ok());
  auto client = TcpTransport::Connect("127.0.0.1", server.value()->port());
  ASSERT_TRUE(client.ok());
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    Bytes payload = rng.RandomBytes(1 + rng.Uniform(50000));
    auto reply = client.value()->Call(payload);
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value(), payload);
  }
}

TEST(TcpTest, MultipleConcurrentClients) {
  auto server = TcpServer::Listen(0, [](ConstByteSpan req) {
    return Bytes(req.begin(), req.end());
  });
  ASSERT_TRUE(server.ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&, c]() {
      auto client = TcpTransport::Connect("127.0.0.1", server.value()->port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      Rng rng(c);
      for (int i = 0; i < 10; ++i) {
        Bytes payload = rng.RandomBytes(1000);
        auto reply = client.value()->Call(payload);
        if (!reply.ok() || reply.value() != payload) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  auto client = TcpTransport::Connect("127.0.0.1", 1);  // port 1: closed
  EXPECT_FALSE(client.ok());
}

// The [u32 length] header of a frame announcing kMaxFrameBytes + 1.
void OversizedFrameHeader(uint8_t hdr[4]) {
  const uint32_t len = static_cast<uint32_t>(kMaxFrameBytes) + 1;
  for (int i = 0; i < 4; ++i) {
    hdr[i] = static_cast<uint8_t>(len >> (8 * i));
  }
}

uint64_t MsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                   std::chrono::steady_clock::now() - start)
                                   .count());
}

// A request header past the frame cap closes that connection before the
// server sizes a buffer or waits for the body, and the server keeps serving
// other connections.
TEST(TcpTest, OversizedRequestFrameClosesOnlyThatConnection) {
  std::atomic<int> handled{0};
  auto server = TcpServer::Listen(0, [&](ConstByteSpan req) {
    ++handled;
    return Bytes(req.begin(), req.end());
  });
  ASSERT_TRUE(server.ok());
  const int port = server.value()->port();

  auto raw = DeadlineSocket::ConnectTcp("127.0.0.1", port, DeadlineAfterMs(5000));
  ASSERT_TRUE(raw.ok());
  uint8_t hdr[4];
  OversizedFrameHeader(hdr);
  ASSERT_TRUE(raw->SendAll(hdr, 4, DeadlineAfterMs(5000)).ok());
  // A server that sized the frame would sit waiting for 64 MiB of body and
  // this read would hit its deadline; the cap check closes the socket.
  auto start = std::chrono::steady_clock::now();
  uint8_t byte = 0;
  auto got = raw->RecvSome(&byte, 1, DeadlineAfterMs(5000));
  if (got.ok()) {
    EXPECT_EQ(got.value(), 0u) << "connection must be closed, not answered";
  } else {
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable) << got.status();
  }
  EXPECT_LT(MsSince(start), 2000u);
  EXPECT_EQ(handled.load(), 0);

  auto client = TcpTransport::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok());
  auto reply = client.value()->Call(BytesOf("ping"));
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(StringOf(reply.value()), "ping");
  EXPECT_EQ(handled.load(), 1);
}

// The reply-side twin: a server announcing a reply past the frame cap fails
// the call at once instead of sizing a buffer and waiting for its body.
TEST(TcpTest, OversizedReplyFrameFailsTheCall) {
  auto server = TcpServer::Listen(0, [](DeadlineSocket& sock) {
    uint8_t hdr[4];  // the request is empty: its header is the whole frame
    if (!sock.RecvAll(hdr, 4, DeadlineAfterMs(5000)).ok()) {
      return false;
    }
    OversizedFrameHeader(hdr);
    (void)sock.SendAll(hdr, 4, DeadlineAfterMs(5000));
    return true;  // hold the connection open, body never sent
  });
  ASSERT_TRUE(server.ok());
  TcpTransportOptions opts;
  opts.rpc_deadline_ms = 5000;
  auto client = TcpTransport::Connect("127.0.0.1", server.value()->port(), opts);
  ASSERT_TRUE(client.ok());

  auto start = std::chrono::steady_clock::now();
  auto reply = client.value()->Call({});
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable) << reply.status();
  EXPECT_NE(reply.status().message().find("frame cap"), std::string::npos) << reply.status();
  EXPECT_LT(MsSince(start), 2000u);
}

// ------------------------------------------------------- per-RPC deadlines --

TEST(TcpTest, RpcDeadlineTripsOnSilentServer) {
  // The handler accepts the request and then sits on the reply — the cloud
  // that takes the bytes and never answers. The per-RPC deadline frees the
  // caller in ~200ms as a retryable timeout instead of pinning its thread
  // for the duration.
  auto server = TcpServer::Listen(0, [](ConstByteSpan req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1000));
    return Bytes(req.begin(), req.end());
  });
  ASSERT_TRUE(server.ok());
  TcpTransportOptions opts;
  opts.rpc_deadline_ms = 200;
  auto client = TcpTransport::Connect("127.0.0.1", server.value()->port(), opts);
  ASSERT_TRUE(client.ok());

  auto start = std::chrono::steady_clock::now();
  auto reply = client.value()->Call(BytesOf("ping"));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2000);

  // The stream is desynchronized after a timeout; the connection is dead
  // and later calls fail fast instead of reading the stale reply.
  auto second = client.value()->Call(BytesOf("ping"));
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  server.value()->Stop();
}

TEST(TcpTest, CallsInsideDeadlineUnaffected) {
  auto server = TcpServer::Listen(0, [](ConstByteSpan req) {
    return Bytes(req.begin(), req.end());
  });
  ASSERT_TRUE(server.ok());
  TcpTransportOptions opts;
  opts.rpc_deadline_ms = 5000;
  auto client = TcpTransport::Connect("127.0.0.1", server.value()->port(), opts);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 10; ++i) {
    auto reply = client.value()->Call(BytesOf("m" + std::to_string(i)));
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.value(), BytesOf("m" + std::to_string(i)));
  }
}

TEST(InProcTransportTest, StalledReplyTripsDeadline) {
  InProcTransport t([](ConstByteSpan req) { return Bytes(req.begin(), req.end()); });
  t.set_rpc_deadline_ms(50);
  t.set_stall_ms(10000);
  auto start = std::chrono::steady_clock::now();
  auto reply = t.Call(BytesOf("x"));
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(elapsed, 2000);  // slept the deadline, never the 10s stall
  EXPECT_EQ(t.deadline_trips(), 1u);

  // A stall shorter than the deadline only delays the reply.
  t.set_stall_ms(10);
  EXPECT_EQ(t.Call(BytesOf("y")).value(), BytesOf("y"));
}

// --------------------------------------------- SimCloud on the fault plan --

TEST(SimCloudTest, FaultPlanDrivesInjectedErrors) {
  MemBackend inner;
  SimCloud cloud(&inner, UnlimitedProfile(), true);
  ASSERT_TRUE(cloud.Put("o", BytesOf("v")).ok());

  cloud.plan()->ForceNext(FaultKind::kError, 2);
  EXPECT_EQ(cloud.Get("o").status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cloud.Put("p", BytesOf("w")).code(), StatusCode::kUnavailable);
  EXPECT_EQ(cloud.Get("o").value(), BytesOf("v"));  // schedule drained
  EXPECT_GE(cloud.plan()->faults_injected(), 2u);
}

TEST(SimCloudTest, FaultPlanStallChargesVirtualClock) {
  MemBackend inner;
  SimCloud cloud(&inner, UnlimitedProfile(), /*virtual_time=*/true);
  ASSERT_TRUE(cloud.Put("o", BytesOf("v")).ok());
  double before = cloud.download_seconds();
  FaultSpec spec = cloud.plan()->spec();
  spec.stall_ms = 250;
  cloud.plan()->set_spec(spec);
  cloud.plan()->ForceNext(FaultKind::kStall, 1);
  ASSERT_TRUE(cloud.Get("o").ok());  // stalled, not failed
  EXPECT_NEAR(cloud.download_seconds() - before, 0.25, 1e-9);
}

TEST(SimCloudTest, SharedFaultSpecMatchesHttpSchedule) {
  // One FaultSpec, two consumers: SimCloud and FaultyHttpServer tests can
  // describe "this cloud misbehaves" identically because both draw the
  // same pure (seed, index) schedule.
  FaultSpec spec;
  spec.error_rate = 0.3;
  spec.seed = 99;
  MemBackend inner;
  SimCloud cloud(&inner, UnlimitedProfile(), true);
  cloud.plan()->set_spec(spec);
  FaultPlan reference(spec);
  ASSERT_TRUE(inner.Put("o", BytesOf("v")).ok());
  for (int i = 0; i < 50; ++i) {
    bool should_fail = reference.Next() == FaultKind::kError;
    EXPECT_EQ(cloud.Get("o").ok(), !should_fail) << i;
  }
}

}  // namespace
}  // namespace cdstore
