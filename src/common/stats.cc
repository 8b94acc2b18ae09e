// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace sos {

void RunningStats::Add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double Percentiles::Get(double p) const {
  if (count_ == 0) {
    return 0.0;
  }
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count_ - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, count_ - 1);
  const double frac = rank - static_cast<double>(lo);
  // `end` counts the samples up to and including `it`'s value, so order
  // statistic k holds `it`'s value once end > k.
  auto it = counts_.begin();
  uint64_t end = it->second;
  while (end <= lo) {
    end += (++it)->second;
  }
  const double lo_value = it->first;
  while (end <= hi) {
    end += (++it)->second;
  }
  return lo_value * (1.0 - frac) + it->first * frac;
}

Histogram::Histogram(double lo, double hi, size_t buckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(buckets > 0 ? buckets : 1)),
      counts_(buckets > 0 ? buckets : 1, 0) {}

void Histogram::Add(double x) {
  ++total_;
  if (x < lo_) {
    ++counts_.front();
    return;
  }
  size_t idx = static_cast<size_t>((x - lo_) / width_);
  if (idx >= counts_.size()) {
    idx = counts_.size() - 1;
  }
  ++counts_[idx];
}

double Histogram::BucketLow(size_t i) const { return lo_ + width_ * static_cast<double>(i); }

std::string Histogram::Render(size_t max_width) const {
  uint64_t peak = 1;
  for (uint64_t c : counts_) {
    peak = std::max(peak, c);
  }
  std::string out;
  char line[160];
  for (size_t i = 0; i < counts_.size(); ++i) {
    const size_t bar =
        static_cast<size_t>(static_cast<double>(counts_[i]) / static_cast<double>(peak) *
                            static_cast<double>(max_width));
    std::snprintf(line, sizeof(line), "[%10.3g, %10.3g) ", BucketLow(i), BucketLow(i + 1));
    out += line;
    out.append(bar, '#');
    std::snprintf(line, sizeof(line), " %llu\n", static_cast<unsigned long long>(counts_[i]));
    out += line;
  }
  return out;
}

}  // namespace sos
