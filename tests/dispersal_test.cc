#include <gtest/gtest.h>

#include <tuple>

#include "src/dispersal/aont_rs.h"
#include "src/dispersal/registry.h"
#include "src/util/rng.h"

namespace cdstore {
namespace {

// =========================================================================
// Property sweep: every scheme x (n, k) grid x secret size must round-trip
// from any k-share subset, produce equal-size shares, and match its declared
// blowup.
// =========================================================================

using SweepParam = std::tuple<SchemeType, std::pair<int, int>, size_t>;

class SchemeSweepTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  std::unique_ptr<SecretSharing> MakeSchemeOrDie() {
    auto [type, nk, size] = GetParam();
    SchemeParams p;
    p.n = nk.first;
    p.k = nk.second;
    p.r = std::min(1, p.k - 1);
    auto scheme = MakeScheme(type, p);
    EXPECT_TRUE(scheme.ok()) << scheme.status().ToString();
    return std::move(scheme.value());
  }
};

TEST_P(SchemeSweepTest, EncodeProducesNEqualSizeShares) {
  auto [type, nk, size] = GetParam();
  auto scheme = MakeSchemeOrDie();
  Rng rng(size + nk.first);
  Bytes secret = rng.RandomBytes(size);
  std::vector<Bytes> shares;
  ASSERT_TRUE(scheme->Encode(secret, &shares).ok());
  ASSERT_EQ(shares.size(), static_cast<size_t>(nk.first));
  for (const Bytes& s : shares) {
    EXPECT_EQ(s.size(), shares[0].size());
    EXPECT_EQ(s.size(), scheme->ShareSize(size));
  }
}

TEST_P(SchemeSweepTest, DecodesFromFirstKShares) {
  auto [type, nk, size] = GetParam();
  auto scheme = MakeSchemeOrDie();
  Rng rng(size * 7 + nk.second);
  Bytes secret = rng.RandomBytes(size);
  std::vector<Bytes> shares;
  ASSERT_TRUE(scheme->Encode(secret, &shares).ok());
  std::vector<int> ids;
  std::vector<Bytes> subset;
  for (int i = 0; i < nk.second; ++i) {
    ids.push_back(i);
    subset.push_back(shares[i]);
  }
  Bytes back;
  ASSERT_TRUE(scheme->Decode(ids, subset, size, &back).ok());
  EXPECT_EQ(back, secret);
}

TEST_P(SchemeSweepTest, DecodesFromLastKShares) {
  auto [type, nk, size] = GetParam();
  auto scheme = MakeSchemeOrDie();
  Rng rng(size * 13 + nk.first);
  Bytes secret = rng.RandomBytes(size);
  std::vector<Bytes> shares;
  ASSERT_TRUE(scheme->Encode(secret, &shares).ok());
  std::vector<int> ids;
  std::vector<Bytes> subset;
  for (int i = nk.first - nk.second; i < nk.first; ++i) {
    ids.push_back(i);
    subset.push_back(shares[i]);
  }
  Bytes back;
  ASSERT_TRUE(scheme->Decode(ids, subset, size, &back).ok());
  EXPECT_EQ(back, secret);
}

TEST_P(SchemeSweepTest, DeterminismMatchesDeclaration) {
  auto [type, nk, size] = GetParam();
  if (size == 0) {
    GTEST_SKIP() << "empty secrets have trivially equal shares for some schemes";
  }
  auto scheme = MakeSchemeOrDie();
  Rng rng(size * 31);
  Bytes secret = rng.RandomBytes(size);
  std::vector<Bytes> first, again;
  ASSERT_TRUE(scheme->Encode(secret, &first).ok());
  if (scheme->deterministic()) {
    ASSERT_TRUE(scheme->Encode(secret, &again).ok());
    EXPECT_EQ(first, again) << scheme->name() << " must be convergent";
    return;
  }
  // A 1-byte secret draws one random byte per random piece, so two
  // encodings collide with probability 1/256. Of 8 encodings, not all may
  // be equal: a false failure then needs 7 collisions in a row (2^-56).
  bool fresh = false;
  for (int i = 1; i < 8 && !fresh; ++i) {
    ASSERT_TRUE(scheme->Encode(secret, &again).ok());
    fresh = again != first;
  }
  EXPECT_TRUE(fresh) << scheme->name() << " must embed fresh randomness";
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeSweepTest,
    ::testing::Combine(::testing::ValuesIn(AllSchemeTypes()),
                       ::testing::Values(std::make_pair(4, 3), std::make_pair(4, 2),
                                         std::make_pair(6, 4), std::make_pair(8, 6)),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{31}, size_t{4096},
                                         size_t{8192}, size_t{10000})),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      std::string name = SchemeTypeName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      const auto& nk = std::get<1>(info.param);
      return name + "_n" + std::to_string(nk.first) + "k" + std::to_string(nk.second) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// =========================================================================
// Table 1 storage blowups.
// =========================================================================

TEST(StorageBlowupTest, MatchesTable1) {
  const size_t kSecret = 8192;
  const int n = 4, k = 3;
  SchemeParams p{.n = n, .k = k, .r = 1, .salt = {}};

  auto ssss = std::move(MakeScheme(SchemeType::kSsss, p).value());
  EXPECT_NEAR(ssss->StorageBlowup(kSecret), 4.0, 0.01);  // n

  auto ida = std::move(MakeScheme(SchemeType::kIda, p).value());
  EXPECT_NEAR(ida->StorageBlowup(kSecret), 4.0 / 3.0, 0.01);  // n/k

  auto rsss = std::move(MakeScheme(SchemeType::kRsss, p).value());
  EXPECT_NEAR(rsss->StorageBlowup(kSecret), 4.0 / 2.0, 0.01);  // n/(k-r)

  auto ssms = std::move(MakeScheme(SchemeType::kSsms, p).value());
  // n/k + n*Skey/Ssec = 4/3 + 4*32/8192.
  EXPECT_NEAR(ssms->StorageBlowup(kSecret), 4.0 / 3.0 + 4.0 * 32 / 8192, 0.01);

  auto caont = std::move(MakeScheme(SchemeType::kCaontRs, p).value());
  // n/k + (n/k)*Shash/Ssec = (4/3)(1 + 32/8192), small padding slack allowed.
  EXPECT_NEAR(caont->StorageBlowup(kSecret), (4.0 / 3.0) * (1.0 + 32.0 / 8192), 0.02);
}

TEST(StorageBlowupTest, RsssInterpolatesBetweenIdaAndSsss) {
  const size_t kSecret = 6000;
  double prev = 0;
  for (int r = 0; r < 5; ++r) {
    SchemeParams p{.n = 6, .k = 5, .r = r, .salt = {}};
    auto scheme = std::move(MakeScheme(SchemeType::kRsss, p).value());
    double blowup = scheme->StorageBlowup(kSecret);
    EXPECT_GT(blowup, prev);
    prev = blowup;
  }
  EXPECT_NEAR(prev, 6.0, 0.01);  // r = k-1 degenerates to SSSS blowup
}

// =========================================================================
// Convergent dispersal specifics (§3.2).
// =========================================================================

TEST(CaontRsTest, IdenticalSecretsFromDifferentUsersShareShares) {
  // Two independent scheme instances (two users' clients) must produce
  // byte-identical shares for the same secret — the dedup enabler.
  auto user1 = MakeCaontRs(4, 3);
  auto user2 = MakeCaontRs(4, 3);
  Bytes secret = Rng(77).RandomBytes(8192);
  std::vector<Bytes> s1, s2;
  ASSERT_TRUE(user1->Encode(secret, &s1).ok());
  ASSERT_TRUE(user2->Encode(secret, &s2).ok());
  EXPECT_EQ(s1, s2);
}

TEST(CaontRsTest, SaltChangesShares) {
  auto plain = MakeCaontRs(4, 3);
  auto salted = MakeCaontRs(4, 3, BytesOf("deployment-salt"));
  Bytes secret = Rng(78).RandomBytes(1000);
  std::vector<Bytes> s1, s2;
  ASSERT_TRUE(plain->Encode(secret, &s1).ok());
  ASSERT_TRUE(salted->Encode(secret, &s2).ok());
  EXPECT_NE(s1, s2);
  // But the salted scheme still round-trips.
  Bytes back;
  ASSERT_TRUE(salted->Decode({0, 1, 2}, {s2[0], s2[1], s2[2]}, secret.size(), &back).ok());
  EXPECT_EQ(back, secret);
}

TEST(CaontRsTest, CorruptedShareDetectedOnDecode) {
  auto scheme = MakeCaontRs(4, 3);
  Bytes secret = Rng(79).RandomBytes(4096);
  std::vector<Bytes> shares;
  ASSERT_TRUE(scheme->Encode(secret, &shares).ok());
  shares[1][7] ^= 0x40;
  Bytes back;
  EXPECT_EQ(scheme->Decode({0, 1, 2}, {shares[0], shares[1], shares[2]}, secret.size(), &back)
                .code(),
            StatusCode::kCorruption);
}

TEST(CaontRsTest, BruteForceDecodeSurvivesOneCorruptedShare) {
  // §3.2: "try a different subset of k shares until the secret is correctly
  // decoded". With 4 shares and one corrupted, some 3-subset is clean.
  auto scheme = MakeCaontRs(4, 3);
  Bytes secret = Rng(80).RandomBytes(4096);
  std::vector<Bytes> shares;
  ASSERT_TRUE(scheme->Encode(secret, &shares).ok());
  shares[2][0] ^= 0xff;
  Bytes back;
  ASSERT_TRUE(
      DecodeWithBruteForce(*scheme, {0, 1, 2, 3}, shares, secret.size(), &back).ok());
  EXPECT_EQ(back, secret);
}

TEST(CaontRsTest, BruteForceFailsWhenTooManyCorrupted) {
  auto scheme = MakeCaontRs(4, 3);
  Bytes secret = Rng(81).RandomBytes(1024);
  std::vector<Bytes> shares;
  ASSERT_TRUE(scheme->Encode(secret, &shares).ok());
  shares[0][0] ^= 1;
  shares[1][0] ^= 1;  // every 3-subset now contains a corrupted share
  Bytes back;
  EXPECT_FALSE(
      DecodeWithBruteForce(*scheme, {0, 1, 2, 3}, shares, secret.size(), &back).ok());
}

TEST(CaontRsTest, DifferentSecretsNeverCollide) {
  auto scheme = MakeCaontRs(4, 3);
  Rng rng(82);
  Bytes a = rng.RandomBytes(512);
  Bytes b = a;
  b[0] ^= 1;
  std::vector<Bytes> sa, sb;
  ASSERT_TRUE(scheme->Encode(a, &sa).ok());
  ASSERT_TRUE(scheme->Encode(b, &sb).ok());
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(sa[i], sb[i]);
  }
}

TEST(CaontRsRivestTest, ConvergentAndSelfVerifying) {
  auto scheme = MakeCaontRsRivest(4, 3);
  EXPECT_TRUE(scheme->deterministic());
  EXPECT_TRUE(scheme->self_verifying());
  Bytes secret = Rng(83).RandomBytes(2000);
  std::vector<Bytes> s1, s2;
  ASSERT_TRUE(scheme->Encode(secret, &s1).ok());
  ASSERT_TRUE(scheme->Encode(secret, &s2).ok());
  EXPECT_EQ(s1, s2);
  s1[0][0] ^= 1;
  Bytes back;
  EXPECT_FALSE(scheme->Decode({0, 1, 2}, {s1[0], s1[1], s1[2]}, secret.size(), &back).ok());
}

TEST(AontRsTest, RandomKeyPreventsDedup) {
  auto scheme = MakeAontRs(4, 3);
  EXPECT_FALSE(scheme->deterministic());
  Bytes secret = Rng(84).RandomBytes(2000);
  std::vector<Bytes> s1, s2;
  ASSERT_TRUE(scheme->Encode(secret, &s1).ok());
  ASSERT_TRUE(scheme->Encode(secret, &s2).ok());
  EXPECT_NE(s1, s2);
}

TEST(RegistryTest, RejectsBadParameters) {
  SchemeParams p;
  p.n = 3;
  p.k = 3;  // k == n
  EXPECT_FALSE(MakeScheme(SchemeType::kIda, p).ok());
  p.n = 4;
  p.k = 0;
  EXPECT_FALSE(MakeScheme(SchemeType::kSsss, p).ok());
  p.k = 3;
  p.r = 3;  // r >= k
  EXPECT_FALSE(MakeScheme(SchemeType::kRsss, p).ok());
}

TEST(RegistryTest, NamesAreStable) {
  SchemeParams p{.n = 4, .k = 3, .r = 1, .salt = {}};
  for (SchemeType t : AllSchemeTypes()) {
    auto scheme = MakeScheme(t, p);
    ASSERT_TRUE(scheme.ok());
    EXPECT_EQ(scheme.value()->name(), SchemeTypeName(t));
  }
}

}  // namespace
}  // namespace cdstore
