// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/common/rng.h"

#include <cmath>

namespace sos {

uint64_t DeriveSeed(std::initializer_list<uint64_t> keys) {
  // Chain each key through SplitMix64 so that any single-bit change in any
  // key yields an unrelated stream.
  uint64_t acc = 0x5bf03635f0c48d32ull;
  for (uint64_t k : keys) {
    SplitMix64 mix(acc ^ k);
    acc = mix.Next();
  }
  return acc;
}

Rng::Rng(uint64_t seed) {
  SplitMix64 mix(seed);
  for (auto& word : s_) {
    word = mix.Next();
  }
}

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  if (bound == 0) {
    return 0;
  }
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  // 53 high bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBounded(span));
}

double Rng::NextGaussian(double mean, double stddev) {
  double sum = 0.0;
  for (int i = 0; i < 12; ++i) {
    sum += NextDouble();
  }
  return mean + stddev * (sum - 6.0);
}

double Rng::NextExponential(double mean) {
  double u = NextDouble();
  // Guard against log(0).
  if (u >= 1.0) {
    u = 0x1.fffffffffffffp-1;
  }
  return -mean * std::log(1.0 - u);
}

uint64_t Rng::NextBinomial(uint64_t n, double p) {
  if (n == 0 || p <= 0.0) {
    return 0;
  }
  if (p >= 1.0) {
    return n;
  }
  const double np = static_cast<double>(n) * p;
  if (n <= 64) {
    // Exact Bernoulli trials.
    uint64_t count = 0;
    for (uint64_t i = 0; i < n; ++i) {
      count += NextBool(p) ? 1u : 0u;
    }
    return count;
  }
  if (np < 16.0) {
    // Inverse-transform Poisson-like exact sampling via waiting times
    // (geometric skips). O(np) expected.
    //
    // Each waiting time log(1-u)/log1p(-p) is at least u*(1-p)/p, because
    // -log(1-u) >= u and -log1p(-p) <= p/(1-p). `min_wait` is that bound
    // shrunk by a 1e-9 relative margin, far above the few ulps of rounding
    // in either expression. When it already takes the sum past n, so does
    // the rounded waiting time (rounded addition is monotone), and the draw
    // ends without calling log: same count, same draws consumed.
    const double min_wait = (1.0 - p) / p * (1.0 - 1e-9);
    double log_q = 0.0;  // log1p(-p) < 0 once computed
    uint64_t count = 0;
    double sum = 0.0;
    for (;;) {
      double u = NextDouble();
      if (u >= 1.0) {
        u = 0x1.fffffffffffffp-1;
      }
      if (sum + u * min_wait > static_cast<double>(n)) {
        return count;
      }
      if (log_q == 0.0) {
        log_q = std::log1p(-p);
      }
      sum += std::log(1.0 - u) / log_q;
      if (sum > static_cast<double>(n)) {
        return count;
      }
      ++count;
    }
  }
  // Normal approximation with continuity correction; clamp to [0, n].
  const double sigma = std::sqrt(np * (1.0 - p));
  double draw = NextGaussian(np, sigma) + 0.5;
  if (draw < 0.0) {
    return 0;
  }
  if (draw > static_cast<double>(n)) {
    return n;
  }
  return static_cast<uint64_t>(draw);
}

ZipfDistribution::ZipfDistribution(size_t n, double skew) {
  cdf_.resize(n > 0 ? n : 1);
  double sum = 0.0;
  for (size_t i = 0; i < cdf_.size(); ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

size_t ZipfDistribution::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search for the first CDF entry >= u.
  size_t lo = 0;
  size_t hi = cdf_.size() - 1;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace sos
