#include <gtest/gtest.h>

#include <string>

#include "src/crypto/aes256.h"
#include "src/crypto/ctr.h"
#include "src/crypto/ctr_drbg.h"
#include "src/crypto/sha256.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

Bytes FromHex(const std::string& hex) {
  Bytes out;
  EXPECT_TRUE(HexDecode(hex, &out));
  return out;
}

// ---------------------------------------------------------------- SHA-256 --
// Vectors from FIPS 180-4 / NIST CAVP.

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(HexEncode(Sha256::Hash(ConstByteSpan{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(HexEncode(Sha256::Hash(BytesOf("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      HexEncode(Sha256::Hash(BytesOf("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  Bytes out(Sha256::kDigestSize);
  h.Finish(out);
  EXPECT_EQ(HexEncode(out), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShotAtAllSplitPoints) {
  Bytes msg = Rng(11).RandomBytes(257);
  Bytes whole = Sha256::Hash(msg);
  for (size_t split = 0; split <= msg.size(); split += 13) {
    Sha256 h;
    h.Update(ConstByteSpan(msg.data(), split));
    h.Update(ConstByteSpan(msg.data() + split, msg.size() - split));
    Bytes out(Sha256::kDigestSize);
    h.Finish(out);
    EXPECT_EQ(out, whole) << "split=" << split;
  }
}

TEST(Sha256Test, ExactBlockBoundaryLengths) {
  // 55/56/63/64/65 bytes straddle the padding boundary cases.
  for (size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes msg(len, 'x');
    Bytes d1 = Sha256::Hash(msg);
    Sha256 h;
    for (size_t i = 0; i < len; ++i) {
      h.Update(ConstByteSpan(&msg[i], 1));
    }
    Bytes d2(Sha256::kDigestSize);
    h.Finish(d2);
    EXPECT_EQ(d1, d2) << "len=" << len;
  }
}

// ---------------------------------------------------------------- AES-256 --

TEST(Aes256Test, Fips197KnownAnswer) {
  // FIPS-197 Appendix C.3.
  Bytes key = FromHex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes pt = FromHex("00112233445566778899aabbccddeeff");
  Bytes expect = FromHex("8ea2b7ca516745bfeafc49904b496089");
  Aes256 aes(key);
  Bytes ct(16);
  aes.EncryptBlock(pt.data(), ct.data());
  EXPECT_EQ(ct, expect);
}

TEST(Aes256Test, BatchedMatchesSingle) {
  Bytes key = Rng(12).RandomBytes(32);
  Aes256 aes(key);
  Bytes in = Rng(13).RandomBytes(16 * 37);
  Bytes batched(in.size());
  aes.EncryptBlocks(in.data(), batched.data(), 37);
  Bytes single(in.size());
  for (int i = 0; i < 37; ++i) {
    aes.EncryptBlock(in.data() + 16 * i, single.data() + 16 * i);
  }
  EXPECT_EQ(batched, single);
}

TEST(Aes256Test, InPlaceEncryption) {
  Bytes key = Rng(14).RandomBytes(32);
  Aes256 aes(key);
  Bytes block = Rng(15).RandomBytes(16);
  Bytes expect(16);
  aes.EncryptBlock(block.data(), expect.data());
  aes.EncryptBlock(block.data(), block.data());
  EXPECT_EQ(block, expect);
}

// -------------------------------------------------------------------- CTR --

TEST(CtrTest, Sp80038aKnownAnswer) {
  // NIST SP 800-38A F.5.5 CTR-AES256.Encrypt (first two blocks).
  Bytes key = FromHex("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  Bytes iv = FromHex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  Bytes pt = FromHex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  Bytes expect = FromHex(
      "601ec313775789a5b7a7f504bbf3d228"
      "f443e3ca4d62b59aca84e990cacaf5c5");
  Aes256 aes(key);
  Bytes ct(pt.size());
  Aes256CtrXor(aes, iv.data(), pt, ct);
  EXPECT_EQ(ct, expect);
}

TEST(CtrTest, XorIsInvolution) {
  Bytes key = Rng(16).RandomBytes(32);
  Aes256 aes(key);
  uint8_t iv[16] = {1, 2, 3};
  Bytes msg = Rng(17).RandomBytes(1000);  // non-multiple of 16
  Bytes ct(msg.size());
  Aes256CtrXor(aes, iv, msg, ct);
  EXPECT_NE(ct, msg);
  Bytes back(msg.size());
  Aes256CtrXor(aes, iv, ct, back);
  EXPECT_EQ(back, msg);
}

TEST(CtrTest, KeystreamMatchesXorOfZeros) {
  Bytes key = Rng(18).RandomBytes(32);
  Aes256 aes(key);
  uint8_t iv[16] = {0};
  Bytes zeros(333, 0);
  Bytes viaxor(zeros.size());
  Aes256CtrXor(aes, iv, zeros, viaxor);
  Bytes stream(333);
  Aes256CtrKeystream(aes, iv, stream);
  EXPECT_EQ(stream, viaxor);
}

TEST(CtrTest, CounterCarryAcrossBlocks) {
  // IV ending in 0xff forces a carry into higher bytes on the 2nd block.
  Bytes key = Rng(19).RandomBytes(32);
  Aes256 aes(key);
  uint8_t iv[16];
  std::fill(std::begin(iv), std::end(iv), 0xff);
  Bytes stream(64);
  Aes256CtrKeystream(aes, iv, stream);
  // Manually compute block 1 (counter wrapped to all-zero).
  uint8_t zero_ctr[16] = {0};
  Bytes blk1(16);
  aes.EncryptBlock(zero_ctr, blk1.data());
  EXPECT_EQ(Bytes(stream.begin() + 16, stream.begin() + 32), blk1);
}

// ---------------------------------------------------------------- CtrDrbg --

TEST(CtrDrbgTest, DeterministicWithFixedSeed) {
  Bytes seed = BytesOf("fixed-seed");
  CtrDrbg a(seed);
  CtrDrbg b(seed);
  EXPECT_EQ(a.RandomBytes(100), b.RandomBytes(100));
}

TEST(CtrDrbgTest, StreamsDoNotRepeat) {
  CtrDrbg d(BytesOf("seed"));
  Bytes first = d.RandomBytes(64);
  Bytes second = d.RandomBytes(64);
  EXPECT_NE(first, second);
}

TEST(CtrDrbgTest, ReseedChangesOutput) {
  CtrDrbg a(BytesOf("seed"));
  CtrDrbg b(BytesOf("seed"));
  b.Reseed(BytesOf("entropy"));
  EXPECT_NE(a.RandomBytes(64), b.RandomBytes(64));
}

TEST(CtrDrbgTest, GlobalIsUsable) {
  Bytes x = CtrDrbg::Global().RandomBytes(32);
  Bytes y = CtrDrbg::Global().RandomBytes(32);
  EXPECT_NE(x, y);
}

}  // namespace
}  // namespace cdstore
