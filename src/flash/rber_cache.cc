// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/flash/rber_cache.h"

#include <algorithm>
#include <cmath>

namespace sos {

RberCache::RberCache(ErrorModelKind kind, bool memoize)
    : kind_(kind), memoize_(memoize) {}

double RberCache::Rber(const PageErrorState& state, int retry_level) const {
  if (kind_ == ErrorModelKind::kVoltage) {
    return memoize_ ? VoltageRber(state, retry_level) : ComputeRber(kind_, state, retry_level);
  }
  return PhenoRber(state, retry_level);
}

void RberCache::EnsurePowGrid(ModeMemo& memo, double m) const {
  if (memo.pow_built) {
    return;
  }
  // Geometric grid: t_i = kTMinYears * ratio^i. Linear interpolation in
  // index space is linear in ln(t); over one step h = ln(ratio) the relative
  // interpolation error of t^m = exp(m ln t) is ~ (m*h)^2 / 8, which at 1024
  // points across [1e-4, 25] years is below 2e-5 -- far inside the bound.
  const double ratio = std::pow(kTMaxYears / kTMinYears,
                                1.0 / static_cast<double>(kPowGridPoints - 1));
  const double log_step = std::log(ratio);
  memo.inv_log_step = 1.0 / log_step;
  memo.pow_grid.resize(kPowGridPoints);
  for (uint32_t i = 0; i < kPowGridPoints; ++i) {
    const double t = kTMinYears * std::exp(log_step * static_cast<double>(i));
    memo.pow_grid[i] = std::pow(t, m);
  }
  memo.pow_built = true;
}

double RberCache::PowLookup(ModeMemo& memo, double m, double t) const {
  if (t <= 0.0) {
    return 0.0;
  }
  EnsurePowGrid(memo, m);
  if (t <= kTMinYears) {
    // Chord from the exact (0, 0) point. t^m with m < 1 lies above the
    // chord, but the absolute shortfall is < pow(kTMinYears, m), which is
    // negligible once multiplied by the retention coefficient.
    return memo.pow_grid[0] * (t / kTMinYears);
  }
  const double x = std::log(t / kTMinYears) * memo.inv_log_step;
  uint32_t i = static_cast<uint32_t>(x);
  double frac = x - static_cast<double>(i);
  if (i >= kPowGridPoints - 1) {  // t == kTMaxYears up to rounding
    i = kPowGridPoints - 2;
    frac = 1.0;
  }
  return memo.pow_grid[i] + frac * (memo.pow_grid[i + 1] - memo.pow_grid[i]);
}

double RberCache::PhenoRber(const PageErrorState& state, int retry_level) const {
  const double endurance = std::max(state.endurance_pec, 1.0);
  ModeMemo& memo = modes_[static_cast<size_t>(state.mode)];
  if (memo.endurance < 0.0) {
    memo.endurance = endurance;
  }
  // A retry re-reads with drift-tracking references; the phenomenological
  // mapping scales the retention age (see ComputeRber), so the same memo
  // serves every retry level. Clamping before the scaling gives the same
  // value ComputeRber's clamp after it does, since the scale is positive.
  double t = std::max(state.retention_years, 0.0);
  if (retry_level > 0) {
    t *= 1.0 - VoltageModel::RetryTracking(retry_level);
  }
  if (memo.endurance != endurance || state.pec_at_program >= kMaxMemoPec ||
      (memoize_ && t > kTMaxYears)) {
    return ComputeRber(kind_, state, retry_level);
  }
  const uint32_t pec = state.pec_at_program;
  if (memo.base_wear_by_pec.size() <= pec) {
    memo.base_wear_by_pec.resize(
        std::max<size_t>(pec + 1, memo.base_wear_by_pec.size() * 2), -1.0);
  }
  double& base_wear = memo.base_wear_by_pec[pec];
  if (base_wear < 0.0) {
    base_wear = ErrorModel::WearProduct(state.mode, endurance, pec);
  }
  if (!memoize_) {
    PageErrorState tracked = state;
    tracked.retention_years = t;
    return ErrorModel::RberFromWear(tracked, base_wear);
  }
  const CellTechInfo& info = GetCellTechInfo(state.mode);
  const double powv = PowLookup(memo, info.retention_exponent, t);
  const double rber =
      base_wear * (1.0 + info.retention_beta * powv) +
      info.read_disturb_per_read * static_cast<double>(state.reads_since_program);
  return std::clamp(rber, 0.0, 0.5);
}

void RberCache::EnsureVoltTable(VoltTable& table, CellTech mode, int retry) const {
  if (table.built) {
    return;
  }
  const VoltageModelParams& params = VoltageModel::ParamsFor(mode);
  // Sigma axis spans fresh cells to kMaxWearRatio of effective endurance;
  // drift axis spans retention 0 .. kTMaxYears. Beyond either the caller
  // falls back to the exact model.
  table.sigma_lo = params.sigma0;
  const double sigma_hi =
      params.sigma0 *
      (1.0 + params.sigma_wear_gain * std::pow(kMaxWearRatio, params.wear_exponent));
  const double drift_hi =
      params.shift_per_year * std::pow(kTMaxYears, params.retention_exponent);
  const double dsigma = (sigma_hi - table.sigma_lo) / static_cast<double>(kSigmaPoints - 1);
  const double ddrift = drift_hi / static_cast<double>(kDriftPoints - 1);
  table.inv_dsigma = 1.0 / dsigma;
  table.inv_ddrift = 1.0 / ddrift;
  const double tracking = VoltageModel::RetryTracking(retry);
  table.f.resize(static_cast<size_t>(kSigmaPoints) * kDriftPoints);
  table.fd.resize(table.f.size());
  for (uint32_t si = 0; si < kSigmaPoints; ++si) {
    const double sigma = table.sigma_lo + dsigma * static_cast<double>(si);
    for (uint32_t di = 0; di < kDriftPoints; ++di) {
      const double drift = ddrift * static_cast<double>(di);
      const size_t idx = static_cast<size_t>(si) * kDriftPoints + di;
      const double f0 = VoltageModel::RberPhysics(mode, sigma, drift, tracking, 0.0);
      const double f1 =
          VoltageModel::RberPhysics(mode, sigma, drift, tracking, kDisturbDelta);
      table.f[idx] = f0;
      // Read disturb only nudges the lowest level's mean; over the tiny
      // disturb magnitudes the cache accepts (<= kMaxDisturbWindow, well
      // under any sigma) the response is linear to first order.
      table.fd[idx] = (f1 - f0) / kDisturbDelta;
    }
  }
  table.built = true;
}

double RberCache::VoltageRber(const PageErrorState& state, int retry_level) const {
  const VoltageModelParams& params = VoltageModel::ParamsFor(state.mode);
  const double endurance = std::max(state.endurance_pec, 1.0);
  ModeMemo& memo = modes_[static_cast<size_t>(state.mode)];
  if (memo.endurance < 0.0) {
    memo.endurance = endurance;
  }
  const double t = std::max(state.retention_years, 0.0);
  const double disturb =
      params.disturb_per_read * static_cast<double>(state.reads_since_program);
  if (memo.endurance != endurance || state.pec_at_program >= kMaxMemoPec ||
      t > kTMaxYears || disturb > kMaxDisturbWindow) {
    return ComputeRber(kind_, state, retry_level);
  }
  const uint32_t pec = state.pec_at_program;
  if (memo.sigma_by_pec.size() <= pec) {
    memo.sigma_by_pec.resize(std::max<size_t>(pec + 1, memo.sigma_by_pec.size() * 2),
                             -1.0);
  }
  double& sigma_slot = memo.sigma_by_pec[pec];
  if (sigma_slot < 0.0) {
    const double wear_ratio = static_cast<double>(pec) / endurance;
    sigma_slot = params.sigma0 *
                 (1.0 + params.sigma_wear_gain *
                            std::pow(wear_ratio, params.wear_exponent));
  }
  const double sigma = sigma_slot;
  // RetryTracking saturates at level 3, so deeper retries share its table.
  const int retry = std::clamp(retry_level, 0, kMaxRetryTables - 1);
  VoltTable& table = volt_[static_cast<size_t>(state.mode)][static_cast<size_t>(retry)];
  EnsureVoltTable(table, state.mode, retry);

  const double drift =
      params.shift_per_year * PowLookup(memo, params.retention_exponent, t);
  double x = (sigma - table.sigma_lo) * table.inv_dsigma;
  if (x > static_cast<double>(kSigmaPoints - 1)) {
    return ComputeRber(kind_, state, retry_level);  // wear ratio beyond the axis
  }
  x = std::max(x, 0.0);
  double y = std::clamp(drift * table.inv_ddrift, 0.0,
                        static_cast<double>(kDriftPoints - 1));
  uint32_t xi = std::min(static_cast<uint32_t>(x), kSigmaPoints - 2);
  uint32_t yi = std::min(static_cast<uint32_t>(y), kDriftPoints - 2);
  const double fx = x - static_cast<double>(xi);
  const double fy = y - static_cast<double>(yi);
  const size_t i00 = static_cast<size_t>(xi) * kDriftPoints + yi;
  const size_t i10 = i00 + kDriftPoints;
  auto bilerp = [&](const std::vector<double>& v) {
    const double lo = v[i00] + fy * (v[i00 + 1] - v[i00]);
    const double hi = v[i10] + fy * (v[i10 + 1] - v[i10]);
    return lo + fx * (hi - lo);
  };
  return std::clamp(bilerp(table.f) + bilerp(table.fd) * disturb, 0.0, 0.5);
}

}  // namespace sos
