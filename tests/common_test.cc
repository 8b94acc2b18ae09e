// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Unit tests for src/common: RNG determinism and distribution sanity,
// statistics, status/result plumbing, table formatting, units.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "src/common/rng.h"
#include "src/common/sim_clock.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/units.h"

namespace sos {
namespace {

// --- RNG -------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(9);
  for (uint64_t bound : {1ull, 2ull, 7ull, 1000ull}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, NextIntCoversRangeInclusive) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextBoolEdgeCases) {
  Rng rng(13);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
  int count = 0;
  for (int i = 0; i < 10000; ++i) {
    count += rng.NextBool(0.25) ? 1 : 0;
  }
  EXPECT_NEAR(count / 10000.0, 0.25, 0.03);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.NextGaussian(5.0, 2.0));
  }
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.Add(rng.NextExponential(3.0));
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.15);
}

TEST(RngTest, BinomialMeanSmallN) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 5000; ++i) {
    stats.Add(static_cast<double>(rng.NextBinomial(20, 0.3)));
  }
  EXPECT_NEAR(stats.mean(), 6.0, 0.2);
}

TEST(RngTest, BinomialMeanLargeNSmallP) {
  // Exercises the geometric-skip path (n > 64, np < 16).
  Rng rng(29);
  RunningStats stats;
  for (int i = 0; i < 3000; ++i) {
    stats.Add(static_cast<double>(rng.NextBinomial(32768, 1e-4)));
  }
  EXPECT_NEAR(stats.mean(), 3.2768, 0.25);
}

TEST(RngTest, BinomialMeanLargeNLargeP) {
  // Exercises the normal-approximation path.
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 3000; ++i) {
    stats.Add(static_cast<double>(rng.NextBinomial(100000, 0.01)));
  }
  EXPECT_NEAR(stats.mean(), 1000.0, 10.0);
}

// The waiting-time loop of NextBinomial's n > 64, np < 16 branch before it
// learned to stop on a lower bound of the next waiting time, kept verbatim
// as the reference.
uint64_t ReferenceWaitingTimeBinomial(Rng& rng, uint64_t n, double p) {
  const double log_q = std::log1p(-p);
  uint64_t count = 0;
  double sum = 0.0;
  for (;;) {
    double u = rng.NextDouble();
    if (u >= 1.0) {
      u = 0x1.fffffffffffffp-1;
    }
    sum += std::log(1.0 - u) / log_q;
    if (sum > static_cast<double>(n)) {
      return count;
    }
    ++count;
  }
}

TEST(RngTest, BinomialEarlyExitMatchesWaitingTimeLoop) {
  for (uint64_t n : {uint64_t{65}, uint64_t{32768}, uint64_t{1} << 20}) {
    const double edge = 16.0 / static_cast<double>(n);
    std::vector<double> ps;
    for (double p = 1e-9; p < edge; p *= 3.0) {
      ps.push_back(p);
    }
    ps.push_back(edge / 2.0);
    ps.push_back(std::nextafter(edge, 0.0));
    for (double p : ps) {
      ASSERT_LT(static_cast<double>(n) * p, 16.0);
      for (uint64_t seed = 0; seed < 2000; ++seed) {
        Rng fast(DeriveSeed({seed, n}));
        Rng reference(DeriveSeed({seed, n}));
        ASSERT_EQ(fast.NextBinomial(n, p), ReferenceWaitingTimeBinomial(reference, n, p))
            << "n=" << n << " p=" << p << " seed=" << seed;
        ASSERT_EQ(fast.NextU64(), reference.NextU64())
            << "n=" << n << " p=" << p << " seed=" << seed;
      }
    }
  }
}

TEST(RngTest, BinomialEdgeCases) {
  Rng rng(37);
  EXPECT_EQ(rng.NextBinomial(0, 0.5), 0u);
  EXPECT_EQ(rng.NextBinomial(100, 0.0), 0u);
  EXPECT_EQ(rng.NextBinomial(100, 1.0), 100u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(DeriveSeedTest, SensitiveToEveryKey) {
  const uint64_t base = DeriveSeed({1, 2, 3});
  EXPECT_NE(base, DeriveSeed({1, 2, 4}));
  EXPECT_NE(base, DeriveSeed({1, 3, 3}));
  EXPECT_NE(base, DeriveSeed({2, 2, 3}));
  EXPECT_EQ(base, DeriveSeed({1, 2, 3}));
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfDistribution zipf(100, 1.0);
  Rng rng(43);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[99]);
  // Zipf(1.0): rank 0 should take roughly 1/H(100) ~ 19% of mass.
  EXPECT_NEAR(counts[0] / 50000.0, 0.19, 0.05);
}

// --- Stats -----------------------------------------------------------------

TEST(RunningStatsTest, BasicMoments) {
  RunningStats stats;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 5u);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 15.0);
  EXPECT_NEAR(stats.variance(), 2.5, 1e-12);
}

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.min(), 0.0);
}

TEST(PercentilesTest, InterpolatesOrderStatistics) {
  Percentiles p;
  for (int i = 100; i >= 1; --i) {
    p.Add(i);
  }
  EXPECT_DOUBLE_EQ(p.Get(0), 1.0);
  EXPECT_DOUBLE_EQ(p.Get(100), 100.0);
  EXPECT_NEAR(p.Get(50), 50.5, 1e-9);
  EXPECT_NEAR(p.Get(99), 99.01, 0.1);
}

TEST(PercentilesTest, EmptyReturnsZero) {
  Percentiles p;
  EXPECT_EQ(p.Get(50), 0.0);
}

TEST(PercentilesTest, AddAfterGetIsSeen) {
  // A query must not freeze the order statistics: samples added after it
  // count in the next one.
  Percentiles p;
  p.Add(5);
  EXPECT_EQ(p.Get(50), 5.0);
  p.Add(1);
  p.Add(1);
  EXPECT_EQ(p.Get(0), 1.0);
  EXPECT_EQ(p.Get(50), 1.0);
  EXPECT_EQ(p.Get(100), 5.0);
  EXPECT_EQ(p.count(), 3u);
}

// The sort-and-interpolate formula Percentiles used when it kept every
// sample; the per-value counts must reproduce it bit for bit.
double SortedPercentile(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

TEST(PercentilesTest, CountsMatchSortedSamplesBitForBit) {
  Rng rng(2026);
  for (const size_t n : std::vector<size_t>{1, 2, 3, 10, 1000, 20011}) {
    for (const uint64_t distinct : std::vector<uint64_t>{1, 7, 60000}) {
      Percentiles counted;
      std::vector<double> samples;
      for (size_t i = 0; i < n; ++i) {
        const double x = static_cast<double>(rng.NextBounded(distinct) * 13 + 100);
        counted.Add(x);
        samples.push_back(x);
      }
      ASSERT_EQ(counted.count(), n);
      for (double p : {0.0, 0.1, 50.0, 99.0, 99.9, 100.0}) {
        const double want = SortedPercentile(samples, p);
        const double got = counted.Get(p);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << "n=" << n << " distinct=" << distinct << " p=" << p << ": " << got
            << " vs " << want;
      }
    }
  }
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5.0);   // clamps to first bucket
  h.Add(0.5);
  h.Add(9.9);
  h.Add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.buckets().front(), 2u);
  EXPECT_EQ(h.buckets().back(), 2u);
  EXPECT_FALSE(h.Render().empty());
}

// --- Status / Result -------------------------------------------------------

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  Status err(StatusCode::kDataLoss, "page 42");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.ToString(), "DATA_LOSS: page 42");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, ValueAndStatus) {
  Result<int> ok_result(5);
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 5);
  EXPECT_TRUE(ok_result.status().ok());

  Result<int> err_result(Status(StatusCode::kNotFound, "gone"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, CodeNamesAreDistinct) {
  // A duplicate name would make two failure modes indistinguishable in logs
  // and table output; catch it when a new code is added.
  std::set<std::string> names;
  const int count = static_cast<int>(StatusCode::kUnavailable) + 1;
  for (int c = 0; c < count; ++c) {
    names.insert(StatusCodeName(static_cast<StatusCode>(c)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(count));
}

TEST(StatusTest, ToStringWithEmptyMessage) {
  EXPECT_EQ(Status(StatusCode::kWornOut, "").ToString(), "WORN_OUT");
}

TEST(ResultTest, MovedFromResultKeepsItsAlternative) {
  // std::variant's move leaves the same alternative engaged (holding a
  // moved-from value), so ok() on a moved-from Result keeps answering
  // consistently instead of flipping to an error.
  Result<std::string> ok_result(std::string("payload"));
  Result<std::string> moved_ok = std::move(ok_result);
  EXPECT_TRUE(moved_ok.ok());
  EXPECT_EQ(moved_ok.value(), "payload");
  EXPECT_TRUE(ok_result.ok());  // NOLINT(bugprone-use-after-move)

  Result<std::string> err_result(Status(StatusCode::kWornOut, "dead"));
  Result<std::string> moved_err = std::move(err_result);
  EXPECT_FALSE(moved_err.ok());
  EXPECT_EQ(moved_err.status().code(), StatusCode::kWornOut);
  EXPECT_EQ(moved_err.status().message(), "dead");
  // The moved-from error still reports the (scalar) code even though the
  // message string's contents are unspecified after the move.
  EXPECT_FALSE(err_result.ok());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(err_result.status().code(), StatusCode::kWornOut);
}

TEST(ResultTest, IgnoreResultConsumesNodiscardValues) {
  // IgnoreResult is the sanctioned sink for deliberately dropped values;
  // this compiles warning-free where a bare call would trip
  // -Werror=unused-result.
  IgnoreResult(Status(StatusCode::kUnavailable, "busy"));
  IgnoreResult(Result<int>(7));
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
TEST(ResultDeathTest, ValueOnErrorAsserts) {
  // The tree builds with assertions on (CMake strips NDEBUG), so misusing
  // value() must die loudly rather than return garbage.
  Result<int> err(Status(StatusCode::kNotFound, "gone"));
  EXPECT_DEATH({ [[maybe_unused]] const int v = err.value(); }, "ok");
}

TEST(ResultDeathTest, OkStatusWithoutValueAsserts) {
  EXPECT_DEATH(IgnoreResult(Result<int>(Status::Ok())), "OK status without a value");
}
#endif

// --- Table & formatting ----------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.AddRow({"alpha", "1"});
  table.AddRow({"b", "22.5"});
  const std::string out = table.Render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-+-"), std::string::npos);
}

TEST(FormatTest, Helpers) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPercent(0.5, 1), "50.0%");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
  EXPECT_EQ(FormatCount(12), "12");
  EXPECT_EQ(FormatBytes(2048), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kGiB), "3.00 GiB");
}

// --- Units & clock ---------------------------------------------------------

TEST(UnitsTest, Conversions) {
  EXPECT_DOUBLE_EQ(BytesToGiB(kGiB), 1.0);
  EXPECT_DOUBLE_EQ(BytesToGB(kGB), 1.0);
  EXPECT_DOUBLE_EQ(UsToDays(kUsPerDay), 1.0);
  EXPECT_DOUBLE_EQ(UsToYears(kUsPerYear), 1.0);
  EXPECT_EQ(DaysToUs(2.0), 2 * kUsPerDay);
  EXPECT_DOUBLE_EQ(GramsToMegatonnes(1e12), 1.0);
  EXPECT_DOUBLE_EQ(GramsToTonnes(KgToGrams(1000.0)), 1.0);
}

TEST(SimClockTest, MonotonicAdvance) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(kUsPerDay);
  EXPECT_DOUBLE_EQ(clock.now_days(), 1.0);
}

}  // namespace
}  // namespace sos
