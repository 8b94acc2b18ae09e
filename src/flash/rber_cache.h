// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Memoized RBER evaluation for the NAND read hot path.
//
// ComputeRber dominates the inner loop of lifetime simulations: the
// phenomenological model costs two libm pow() calls per read, and the
// voltage model a full 2*levels erfc() sweep (64 tail evaluations for PLC).
// Both are pure functions of a handful of slowly-varying inputs, so this
// cache trades them for table lookups:
//
//   phenomenological   rber = [base * wear_term](pec)            exact memo
//                             * (1 + beta * pow(t, m))           interpolated
//                             + disturb * reads                  exact
//
//   voltage            sigma(pec)                                exact memo
//                      drift = shift * pow(t, m)                 interpolated
//                      F(sigma, drift) + dF/ddisturb * disturb   bilinear
//
// pow(t, m) is interpolated on a geometric (log-spaced) grid over
// t in [kTMinYears, kTMaxYears]; below the grid the curve is chorded from
// the exact zero point, above it (and for any other out-of-range input:
// pec >= 2^20, wear ratio > 2, disturb > kMaxDisturbWindow, or an endurance
// that changed under the cache) the cache falls back to the exact model.
// Voltage tables are built lazily per (mode, retry) by calling
// VoltageModel::RberPhysics -- the model's own arithmetic -- at the grid
// nodes, never by re-implementing the physics here.
//
// Accuracy contract: kRelErrorBound/kAbsErrorBound below, enforced over the
// full wear x retention x retry grid for every cell tech by
// tests/rber_memo_test.cc.
//
// Determinism contract: interpolation is OPT-IN (NandConfig::rber_memo,
// default false). With it off, Rber() equals ComputeRber bit for bit and
// every simulated byte stays identical to the historical goldens: the
// phenomenological path memoizes only the exact wear product
// (ErrorModel::WearProduct) per (mode, pec) and finishes with
// ErrorModel::RberFromWear, which is how ErrorModel::Rber itself computes,
// so a read pays one pow() instead of two. The voltage path calls
// ComputeRber. With it on, results differ from exact by at most the
// documented bound -- use it for fleet-scale throughput runs, not for
// golden comparisons.
//
// The tables are mutable state behind const entry points: one RberCache
// belongs to one NandDevice and is used by one thread at a time.

#ifndef SOS_SRC_FLASH_RBER_CACHE_H_
#define SOS_SRC_FLASH_RBER_CACHE_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/flash/cell_tech.h"
#include "src/flash/error_model.h"
#include "src/flash/voltage_model.h"

namespace sos {

class RberCache {
 public:
  // Documented quantization-error bound of the memoized path:
  //   |memo - exact| <= kRelErrorBound * exact + kAbsErrorBound
  static constexpr double kRelErrorBound = 0.01;
  static constexpr double kAbsErrorBound = 1e-9;

  // Inputs beyond these limits take the exact fallback path.
  static constexpr double kTMinYears = 1e-4;
  static constexpr double kTMaxYears = 25.0;
  static constexpr uint32_t kMaxMemoPec = 1u << 20;
  static constexpr double kMaxWearRatio = 2.0;
  static constexpr double kMaxDisturbWindow = 2e-4;  // window units (voltage)

  RberCache(ErrorModelKind kind, bool memoize);

  // RBER for `state` at `retry_level`; equal to ComputeRber when
  // memoization is off. const (with mutable tables) because the prediction
  // entry points on NandDevice are const.
  double Rber(const PageErrorState& state, int retry_level) const;

  bool memoizing() const { return memoize_; }

 private:
  // Grid densities are sized so the worst-case bilinear interpolation error
  // over the full test grid stays well under kRelErrorBound. The binding
  // case is fresh cells (sigma = sigma0): RBER sits deepest in the erfc
  // tail there, so its *relative* curvature along the drift axis is
  // maximal, which is why the drift axis is the densest. Error shrinks
  // quadratically with node spacing (~2.5x margin measured by
  // tests/rber_memo_test.cc at these densities).
  // soslint:allow(R10) interpolation grid density, not a size unit
  static constexpr uint32_t kPowGridPoints = 1024;
  static constexpr uint32_t kSigmaPoints = 257;
  static constexpr uint32_t kDriftPoints = 769;
  static constexpr int kMaxRetryTables = 4;  // tracking saturates at level 3
  static constexpr double kDisturbDelta = 2e-5;  // finite-difference step

  // Per-mode memo state. `endurance` guards the pec-keyed vectors: all
  // blocks of one mode on one die share an effective endurance, but if a
  // caller ever presents a different value the cache refuses (exact path)
  // rather than serving stale entries.
  struct ModeMemo {
    double endurance = -1.0;
    std::vector<double> base_wear_by_pec;  // ErrorModel::WearProduct(pec); <0 = empty
    std::vector<double> sigma_by_pec;      // voltage sigma(pec); <0 = empty
    bool pow_built = false;
    double inv_log_step = 0.0;             // 1 / ln(grid ratio)
    std::vector<double> pow_grid;          // pow(t_i, retention_exponent)
  };

  // Bilinear (sigma, drift) table of the voltage model's RBER surface plus
  // its first-order read-disturb sensitivity.
  struct VoltTable {
    bool built = false;
    double sigma_lo = 0.0;
    double inv_dsigma = 0.0;
    double inv_ddrift = 0.0;
    std::vector<double> f;   // kSigmaPoints * kDriftPoints
    std::vector<double> fd;  // dF/ddisturb at the same nodes
  };

  double PhenoRber(const PageErrorState& state, int retry_level) const;
  double VoltageRber(const PageErrorState& state, int retry_level) const;

  // pow(t, m) via the mode's log-spaced grid; t must be in [0, kTMaxYears].
  double PowLookup(ModeMemo& memo, double m, double t) const;
  void EnsurePowGrid(ModeMemo& memo, double m) const;
  void EnsureVoltTable(VoltTable& table, CellTech mode, int retry) const;

  ErrorModelKind kind_;
  bool memoize_;
  mutable std::array<ModeMemo, kNumCellTechs> modes_;
  mutable std::array<std::array<VoltTable, kMaxRetryTables>, kNumCellTechs> volt_;
};

}  // namespace sos

#endif  // SOS_SRC_FLASH_RBER_CACHE_H_
