// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/ecc/ecc_scheme.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/rng.h"

namespace sos {

std::string_view EccPresetName(EccPreset preset) {
  switch (preset) {
    case EccPreset::kNone:
      return "none";
    case EccPreset::kWeakBch:
      return "weak-BCH(t=8)";
    case EccPreset::kBch:
      return "BCH(t=40)";
    case EccPreset::kLdpc:
      return "LDPC(t=72)";
  }
  return "???";
}

EccScheme EccScheme::FromPreset(EccPreset preset) {
  switch (preset) {
    case EccPreset::kNone:
      return EccScheme{preset, kKiB, 0, 0.0};
    case EccPreset::kWeakBch:
      return EccScheme{preset, kKiB, 8, 0.02};
    case EccPreset::kBch:
      return EccScheme{preset, kKiB, 40, 0.08};
    case EccPreset::kLdpc:
      return EccScheme{preset, kKiB, 72, 0.12};
  }
  return EccScheme{};
}

uint32_t EccScheme::CodewordsPerPage(uint32_t page_bytes) const {
  return (page_bytes + codeword_bytes - 1) / codeword_bytes;
}

namespace {

// std::lgamma writes the process-global `signgam`, which is a data race when
// experiment jobs construct ECC schemes on pool workers. All arguments here
// are >= 1, where the gamma function is positive, so the sign output of the
// reentrant lgamma_r can be discarded.
double LogGamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

// log(n choose k) via lgamma; exact enough for tail sums.
double LogChoose(double n, double k) {
  return LogGamma(n + 1.0) - LogGamma(k + 1.0) - LogGamma(n - k + 1.0);
}

}  // namespace

double EccScheme::CodewordFailureProb(double rber) const {
  if (rber <= 0.0) {
    return 0.0;
  }
  rber = std::min(rber, 0.5);
  const double n = static_cast<double>(codeword_bytes) * 8.0;
  const double t = static_cast<double>(correctable_bits);
  // P(X > t) with X ~ Binomial(n, rber). Sum the head in log space when the
  // head is small; otherwise use the complement of the tail.
  const double mean = n * rber;
  if (mean > t + 8.0 * std::sqrt(mean)) {
    return 1.0;  // failure essentially certain
  }
  double head = 0.0;
  const double log_p = std::log(rber);
  const double log_q = std::log1p(-rber);
  for (uint32_t k = 0; k <= correctable_bits; ++k) {
    const double log_term =
        LogChoose(n, static_cast<double>(k)) + static_cast<double>(k) * log_p +
        (n - static_cast<double>(k)) * log_q;
    head += std::exp(log_term);
  }
  return std::clamp(1.0 - head, 0.0, 1.0);
}

double EccScheme::PageFailureProb(double rber, uint32_t page_bytes) const {
  const double per_cw = CodewordFailureProb(rber);
  const double ok = std::pow(1.0 - per_cw, static_cast<double>(CodewordsPerPage(page_bytes)));
  return std::clamp(1.0 - ok, 0.0, 1.0);
}

double EccScheme::Uber(double rber) const {
  if (correctable_bits == 0) {
    return rber;  // no ECC: every raw error is a user-visible error
  }
  // When a codeword fails, its raw errors leak; expected leaked bits per data
  // bit is rber conditioned on failure, approximated by rber itself (the
  // conditional raw count is close to the mean for the regimes we model).
  return CodewordFailureProb(rber) * rber;
}

double EccScheme::MaxCorrectableRber(uint32_t page_bytes, double target) const {
  if (correctable_bits == 0) {
    return 0.0;
  }
  double lo = 0.0;
  double hi = 0.5;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (PageFailureProb(mid, page_bytes) > target) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo;
}

DecodeOutcome DecodePage(const EccScheme& scheme, uint32_t page_bytes, uint64_t raw_errors,
                         std::initializer_list<uint64_t> seed_keys) {
  DecodeOutcome outcome;
  if (scheme.correctable_bits == 0) {
    outcome.corrected = (raw_errors == 0);
    outcome.residual_errors = raw_errors;
    outcome.failed_codewords = raw_errors > 0 ? scheme.CodewordsPerPage(page_bytes) : 0;
    return outcome;
  }
  const uint32_t codewords = scheme.CodewordsPerPage(page_bytes);
  // At most t raw errors cannot overload any codeword, whatever the split.
  if (raw_errors <= scheme.correctable_bits || codewords == 0) {
    outcome.corrected = true;
    return outcome;
  }
  // Scatter the raw errors uniformly over codewords (multinomial by repeated
  // uniform draws; raw_errors is small in every regime we simulate).
  std::vector<uint64_t> per_cw(codewords, 0);
  Rng rng(DeriveSeed({DeriveSeed(seed_keys), 0x6465636f64650aull /* "decode" */}));
  for (uint64_t e = 0; e < raw_errors; ++e) {
    ++per_cw[rng.NextBounded(codewords)];
  }
  outcome.corrected = true;
  for (uint64_t errors : per_cw) {
    if (errors > scheme.correctable_bits) {
      outcome.corrected = false;
      outcome.residual_errors += errors;
      ++outcome.failed_codewords;
    }
  }
  return outcome;
}

}  // namespace sos
