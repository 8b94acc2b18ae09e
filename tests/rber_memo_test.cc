// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Accuracy and determinism contract of the memoized RBER path
// (src/flash/rber_cache.h):
//
//   1. memo ON: |memo - exact| <= kRelErrorBound * exact + kAbsErrorBound
//      across the full wear x retention x disturb x retry grid, for every
//      cell technology and both error-model kinds. A violation is a test
//      failure, never a reason to loosen the bound silently.
//   2. out-of-range inputs (retention beyond the grid, pec beyond the memo
//      cap, wear ratio beyond the sigma axis, disturb beyond the linear
//      window) fall back to the exact model *bitwise*.
//   3. memo OFF (the default): bitwise equal to ComputeRber -- this is what
//      keeps every golden byte-identical.
//   4. the config switches default off (NandConfig::rber_memo,
//      FtlConfig/SosDeviceConfig::batched_relocation).

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>
#include "src/common/rng.h"
#include "src/flash/cell_tech.h"
#include "src/flash/error_model.h"
#include "src/flash/nand_device.h"
#include "src/flash/rber_cache.h"
#include "src/flash/voltage_model.h"
#include "src/ftl/ftl.h"
#include "src/sos/sos_device.h"

namespace sos {
namespace {

constexpr CellTech kAllTechs[] = {CellTech::kSlc, CellTech::kMlc, CellTech::kTlc,
                                  CellTech::kQlc, CellTech::kPlc};
constexpr ErrorModelKind kKinds[] = {ErrorModelKind::kPhenomenological, ErrorModelKind::kVoltage};

PageErrorState StateFor(CellTech tech, double endurance, uint32_t pec, double t, uint32_t reads) {
  PageErrorState state;
  state.mode = tech;
  state.endurance_pec = endurance;
  state.pec_at_program = pec;
  state.retention_years = t;
  state.reads_since_program = reads;
  return state;
}

TEST(RberMemoTest, MemoizedWithinDocumentedBoundOnFullGrid) {
  constexpr double kTs[] = {0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 24.9};
  constexpr uint32_t kReads[] = {0, 100, 2000};
  constexpr int kRetries[] = {0, 1, 3};
  for (ErrorModelKind kind : kKinds) {
    RberCache memo(kind, true);
    ASSERT_TRUE(memo.memoizing());
    for (CellTech tech : kAllTechs) {
      const double endurance = static_cast<double>(GetCellTechInfo(tech).rated_endurance_pec);
      for (uint32_t i = 0; i < 16; ++i) {
        const uint32_t pec =
            static_cast<uint32_t>(endurance * 1.95 * static_cast<double>(i) / 15.0);
        for (double t : kTs) {
          for (uint32_t reads : kReads) {
            for (int retry : kRetries) {
              const PageErrorState state = StateFor(tech, endurance, pec, t, reads);
              const double exact = ComputeRber(kind, state, retry);
              const double got = memo.Rber(state, retry);
              EXPECT_LE(std::abs(got - exact),
                        RberCache::kRelErrorBound * exact + RberCache::kAbsErrorBound)
                  << CellTechName(tech) << " kind=" << static_cast<int>(kind) << " pec=" << pec
                  << " t=" << t << " reads=" << reads << " retry=" << retry
                  << " exact=" << exact << " memo=" << got;
            }
          }
        }
      }
    }
  }
}

TEST(RberMemoTest, OutOfRangeInputsFallBackToExactBitwise) {
  for (ErrorModelKind kind : kKinds) {
    RberCache memo(kind, true);
    for (CellTech tech : {CellTech::kTlc, CellTech::kPlc}) {
      SCOPED_TRACE(std::string(CellTechName(tech)));
      const double endurance = static_cast<double>(GetCellTechInfo(tech).rated_endurance_pec);
      // Retention beyond the grid ceiling.
      PageErrorState state = StateFor(tech, endurance, 100, 30.0, 10);
      EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
      // PEC beyond the memo cap.
      state = StateFor(tech, endurance, RberCache::kMaxMemoPec + 5, 0.5, 10);
      EXPECT_EQ(memo.Rber(state, 1), ComputeRber(kind, state, 1));
      // Wear ratio beyond the sigma axis: an exact fallback on the voltage
      // path only (the pheno memo stores base*wear per PEC exactly, so high
      // wear stays memoized there and is covered by the bound test).
      if (kind == ErrorModelKind::kVoltage) {
        state = StateFor(tech, endurance,
                         static_cast<uint32_t>(endurance * (RberCache::kMaxWearRatio + 0.5)), 0.5,
                         10);
        EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
      }
      // An endurance that changed under the cache: refuse, exact path.
      state = StateFor(tech, endurance * 2.0, 100, 0.5, 10);
      EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
    }
    // Read disturb beyond the first-order window (voltage path).
    if (kind == ErrorModelKind::kVoltage) {
      const CellTechInfo& info = GetCellTechInfo(CellTech::kPlc);
      const double per_read = VoltageModel::ParamsFor(CellTech::kPlc).disturb_per_read;
      const uint32_t reads =
          static_cast<uint32_t>(RberCache::kMaxDisturbWindow / per_read) + 1000;
      const PageErrorState state =
          StateFor(CellTech::kPlc, static_cast<double>(info.rated_endurance_pec), 50, 0.5, reads);
      EXPECT_EQ(memo.Rber(state, 0), ComputeRber(kind, state, 0));
    }
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

TEST(RberMemoTest, MemoOffIsBitwisePassthrough) {
  // Voltage: a passthrough to ComputeRber.
  RberCache voltage(ErrorModelKind::kVoltage, false);
  ASSERT_FALSE(voltage.memoizing());
  for (CellTech tech : kAllTechs) {
    const double endurance = static_cast<double>(GetCellTechInfo(tech).rated_endurance_pec);
    for (uint32_t pec : {0u, 37u, 500u, 5000u}) {
      for (double t : {0.0, 0.01, 1.0, 7.5}) {
        for (int retry : {0, 2}) {
          const PageErrorState state = StateFor(tech, endurance, pec, t, 123);
          EXPECT_EQ(Bits(voltage.Rber(state, retry)),
                    Bits(ComputeRber(ErrorModelKind::kVoltage, state, retry)))
              << CellTechName(tech) << " pec=" << pec << " t=" << t;
        }
      }
    }
  }
}

// Phenomenological memo off: the exact wear-product memo plus
// ErrorModel::RberFromWear must give ComputeRber's bits for every mode
// programmed on every physical tech (the pseudo-mode endurance bonus),
// across wear, retention, reads and retry levels, cold and warm.
TEST(RberMemoTest, PhenoMemoOffIsBitwiseExact) {
  Rng rng(4711);
  for (CellTech physical : kAllTechs) {
    RberCache exact(ErrorModelKind::kPhenomenological, false);
    for (CellTech mode : kAllTechs) {
      if (static_cast<int>(mode) > static_cast<int>(physical)) {
        continue;  // a pseudo-mode stores at most the die's native bits
      }
      const double endurance =
          static_cast<double>(GetCellTechInfo(mode).rated_endurance_pec) *
          PseudoModeEnduranceBonus(physical, mode);
      for (int sample = 0; sample < 400; ++sample) {
        const uint32_t pec = sample < 40 ? static_cast<uint32_t>(sample)
                                         : static_cast<uint32_t>(rng.NextBounded(
                                               static_cast<uint64_t>(endurance * 2.5) + 1));
        // Retention 0 or log-uniform over [1e-6, 5] years.
        const double t =
            sample % 8 == 0 ? 0.0 : 1e-6 * std::pow(5e6, rng.NextDouble());
        const uint32_t reads =
            sample % 3 == 0 ? 0u : static_cast<uint32_t>(rng.NextBounded(200000));
        const PageErrorState state = StateFor(mode, endurance, pec, t, reads);
        for (int retry = 0; retry <= 3; ++retry) {
          const uint64_t want =
              Bits(ComputeRber(ErrorModelKind::kPhenomenological, state, retry));
          EXPECT_EQ(Bits(exact.Rber(state, retry)), want)
              << CellTechName(physical) << "/" << CellTechName(mode) << " pec=" << pec
              << " t=" << t << " reads=" << reads << " retry=" << retry;
          EXPECT_EQ(Bits(exact.Rber(state, retry)), want) << "warm";
        }
      }
      // Fallbacks: an endurance the cache was not keyed on, and a pec past
      // the memo cap; then the keyed endurance still reads exactly.
      for (const PageErrorState& state :
           {StateFor(mode, endurance * 2.0, 100, 0.5, 10),
            StateFor(mode, endurance, RberCache::kMaxMemoPec, 0.5, 10),
            StateFor(mode, endurance, RberCache::kMaxMemoPec + 5, 3.0, 0),
            StateFor(mode, endurance, 100, 0.5, 10)}) {
        for (int retry = 0; retry <= 3; ++retry) {
          EXPECT_EQ(Bits(exact.Rber(state, retry)),
                    Bits(ComputeRber(ErrorModelKind::kPhenomenological, state, retry)))
              << CellTechName(mode) << " endurance=" << state.endurance_pec
              << " pec=" << state.pec_at_program << " retry=" << retry;
        }
      }
    }
  }
}

TEST(RberMemoTest, RetryTrackingSaturationIsMemoizedNotFallback) {
  // VoltageModel::RetryTracking saturates at level 3, so the memo clamps
  // higher retry levels onto the level-3 table instead of dropping to the
  // exact path; the bound must still hold there.
  RberCache memo(ErrorModelKind::kVoltage, true);
  const double endurance = static_cast<double>(GetCellTechInfo(CellTech::kQlc).rated_endurance_pec);
  const PageErrorState state = StateFor(CellTech::kQlc, endurance, 400, 2.0, 50);
  const double exact = ComputeRber(ErrorModelKind::kVoltage, state, 7);
  const double got = memo.Rber(state, 7);
  EXPECT_LE(std::abs(got - exact), RberCache::kRelErrorBound * exact + RberCache::kAbsErrorBound);
  EXPECT_EQ(got, memo.Rber(state, 3));  // same saturated table
}

TEST(RberMemoTest, HotPathSwitchesDefaultOff) {
  // The determinism contract: every golden was produced with these off, so
  // their defaults are load-bearing. Flipping one is a deliberate,
  // golden-regenerating decision -- never a drive-by.
  EXPECT_FALSE(NandConfig{}.rber_memo);
  EXPECT_FALSE(FtlConfig{}.batched_relocation);
  EXPECT_FALSE(SosDeviceConfig{}.batched_relocation);
}

}  // namespace
}  // namespace sos
