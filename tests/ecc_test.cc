// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the ECC layer: capability-model math, page decode, XOR parity,
// and CRC32.

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/ecc/ecc_scheme.h"
#include "src/ecc/parity.h"

namespace sos {
namespace {

// --- EccScheme model -------------------------------------------------------

TEST(EccSchemeTest, PresetsResolve) {
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kNone).correctable_bits, 0u);
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kWeakBch).correctable_bits, 8u);
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kBch).correctable_bits, 40u);
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kLdpc).correctable_bits, 72u);
  EXPECT_LT(EccScheme::FromPreset(EccPreset::kWeakBch).parity_overhead,
            EccScheme::FromPreset(EccPreset::kLdpc).parity_overhead);
}

TEST(EccSchemeTest, CodewordsPerPage) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  EXPECT_EQ(scheme.CodewordsPerPage(4096), 4u);
  EXPECT_EQ(scheme.CodewordsPerPage(4097), 5u);
  EXPECT_EQ(scheme.CodewordsPerPage(100), 1u);
}

TEST(EccSchemeTest, FailureProbMonotonicInRber) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  double prev = -1.0;
  for (double rber : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2}) {
    const double p = scheme.CodewordFailureProb(rber);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(EccSchemeTest, StrongerCodeFailsLess) {
  const double rber = 3e-3;
  EXPECT_LT(EccScheme::FromPreset(EccPreset::kLdpc).CodewordFailureProb(rber),
            EccScheme::FromPreset(EccPreset::kBch).CodewordFailureProb(rber));
  EXPECT_LT(EccScheme::FromPreset(EccPreset::kBch).CodewordFailureProb(rber),
            EccScheme::FromPreset(EccPreset::kWeakBch).CodewordFailureProb(rber));
}

TEST(EccSchemeTest, ZeroRberNeverFails) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  EXPECT_EQ(scheme.CodewordFailureProb(0.0), 0.0);
  EXPECT_EQ(scheme.PageFailureProb(0.0, 4096), 0.0);
  EXPECT_EQ(scheme.Uber(0.0), 0.0);
}

TEST(EccSchemeTest, SaturatedRberAlwaysFails) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  EXPECT_NEAR(scheme.CodewordFailureProb(0.4), 1.0, 1e-9);
}

TEST(EccSchemeTest, PageFailureAtLeastCodewordFailure) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  for (double rber : {1e-4, 1e-3}) {
    EXPECT_GE(scheme.PageFailureProb(rber, 4096), scheme.CodewordFailureProb(rber));
  }
}

TEST(EccSchemeTest, NoEccUberEqualsRber) {
  const EccScheme none = EccScheme::FromPreset(EccPreset::kNone);
  EXPECT_DOUBLE_EQ(none.Uber(1e-4), 1e-4);
}

TEST(EccSchemeTest, MaxCorrectableRberConsistent) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kBch);
  const double limit = scheme.MaxCorrectableRber(4096, 1e-6);
  EXPECT_GT(limit, 0.0);
  EXPECT_LE(scheme.PageFailureProb(limit, 4096), 1e-6 * 1.1);
  EXPECT_GT(scheme.PageFailureProb(limit * 2.0, 4096), 1e-6);
  // A stronger code sustains a higher RBER.
  EXPECT_GT(EccScheme::FromPreset(EccPreset::kLdpc).MaxCorrectableRber(4096, 1e-6), limit);
}

TEST(EccSchemeTest, NoEccHasZeroLimit) {
  EXPECT_EQ(EccScheme::FromPreset(EccPreset::kNone).MaxCorrectableRber(4096), 0.0);
}

// --- DecodePage ------------------------------------------------------------

TEST(DecodePageTest, ZeroErrorsAlwaysCorrected) {
  for (EccPreset preset : {EccPreset::kNone, EccPreset::kWeakBch, EccPreset::kBch}) {
    const DecodeOutcome out = DecodePage(EccScheme::FromPreset(preset), 4096, 0, {1});
    EXPECT_TRUE(out.corrected);
    EXPECT_EQ(out.residual_errors, 0u);
  }
}

TEST(DecodePageTest, NoEccLeaksEverything) {
  const DecodeOutcome out = DecodePage(EccScheme::FromPreset(EccPreset::kNone), 4096, 17, {1});
  EXPECT_FALSE(out.corrected);
  EXPECT_EQ(out.residual_errors, 17u);
}

TEST(DecodePageTest, FewErrorsCorrected) {
  // 4 codewords * t=40: 20 errors can never exceed any single codeword.
  const DecodeOutcome out = DecodePage(EccScheme::FromPreset(EccPreset::kBch), 4096, 20, {42});
  EXPECT_TRUE(out.corrected);
}

TEST(DecodePageTest, ManyErrorsFail) {
  // 4 codewords * t=40 = 160 correctable in the best case; 400 must fail.
  const DecodeOutcome out = DecodePage(EccScheme::FromPreset(EccPreset::kBch), 4096, 400, {42});
  EXPECT_FALSE(out.corrected);
  EXPECT_GT(out.residual_errors, 0u);
  EXPECT_GT(out.failed_codewords, 0u);
}

TEST(DecodePageTest, DeterministicPerSeed) {
  const EccScheme scheme = EccScheme::FromPreset(EccPreset::kWeakBch);
  // 40 errors over 4 codewords of t=8: borderline, scatter decides.
  const DecodeOutcome a = DecodePage(scheme, 4096, 40, {7});
  const DecodeOutcome b = DecodePage(scheme, 4096, 40, {7});
  EXPECT_EQ(a.corrected, b.corrected);
  EXPECT_EQ(a.residual_errors, b.residual_errors);
  EXPECT_EQ(a.failed_codewords, b.failed_codewords);
}

// DecodePage answers "corrected" without splitting a page that holds at most
// t raw errors. That shortcut is exact only if no split of <= t errors can
// fail: check every preset and raw count in [0, t] over many seeds.
TEST(DecodePageTest, AtMostTErrorsAlwaysCorrect) {
  for (const EccPreset preset :
       {EccPreset::kNone, EccPreset::kWeakBch, EccPreset::kBch, EccPreset::kLdpc}) {
    const EccScheme scheme = EccScheme::FromPreset(preset);
    for (const uint32_t page_bytes : {uint32_t{4 * kKiB}, uint32_t{16 * kKiB}}) {
      for (uint64_t raw = 0; raw <= scheme.correctable_bits; ++raw) {
        for (uint64_t seed = 0; seed < 256; ++seed) {
          const DecodeOutcome out = DecodePage(scheme, page_bytes, raw, {seed});
          ASSERT_TRUE(out.corrected) << EccPresetName(preset) << " raw=" << raw;
          ASSERT_EQ(out.residual_errors, 0u);
          ASSERT_EQ(out.failed_codewords, 0u);
        }
      }
    }
  }
}

TEST(DecodePageTest, OneErrorPastTFailsASingleCodewordPage) {
  // The shortcut stops at exactly t: on a one-codeword page, t + 1 errors
  // all land in that codeword and overload it.
  for (const EccPreset preset : {EccPreset::kWeakBch, EccPreset::kBch, EccPreset::kLdpc}) {
    const EccScheme scheme = EccScheme::FromPreset(preset);
    const uint64_t raw = scheme.correctable_bits + 1;
    const DecodeOutcome out = DecodePage(scheme, scheme.codeword_bytes, raw, {3});
    EXPECT_FALSE(out.corrected) << EccPresetName(preset);
    EXPECT_EQ(out.failed_codewords, 1u);
    EXPECT_EQ(out.residual_errors, raw);
  }
}

// --- Parity ----------------------------------------------------------------

TEST(ParityTest, ReconstructsAnyLostPage) {
  Rng rng(9);
  std::vector<std::vector<uint8_t>> stripe(5, std::vector<uint8_t>(64));
  for (auto& page : stripe) {
    for (auto& b : page) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
  }
  const std::vector<uint8_t> parity = ComputeParityPage(stripe);
  for (size_t lost = 0; lost < stripe.size(); ++lost) {
    EXPECT_EQ(ReconstructFromParity(stripe, parity, lost), stripe[lost]) << "lost " << lost;
  }
}

TEST(ParityTest, SinglePageStripe) {
  std::vector<std::vector<uint8_t>> stripe{{1, 2, 3}};
  const std::vector<uint8_t> parity = ComputeParityPage(stripe);
  EXPECT_EQ(parity, stripe[0]);
  EXPECT_EQ(ReconstructFromParity(stripe, parity, 0), stripe[0]);
}

// --- CRC32 -----------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const uint8_t*>(s.data()), s.size()}), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32({}), 0u); }

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(128, 0x42);
  const uint32_t crc = Crc32(data);
  data[37] ^= 0x04;
  EXPECT_NE(Crc32(data), crc);
}

}  // namespace
}  // namespace sos
