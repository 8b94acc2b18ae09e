// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Streaming and batch statistics used by benchmarks and monitors.
//
// RunningStats -- Welford-style online mean/variance/min/max, O(1) memory.
// Percentiles  -- exact percentiles over per-value sample counts.
// Histogram    -- fixed-width bucket histogram with ASCII rendering, used by
//                 benches to show latency and wear distributions.

#ifndef SOS_SRC_COMMON_STATS_H_
#define SOS_SRC_COMMON_STATS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace sos {

// Online mean/variance accumulator (Welford's algorithm); numerically stable
// for long simulations.
class RunningStats {
 public:
  void Add(double x);

  uint64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Keeps one count per distinct sample value, so memory grows with the number
// of distinct values, not with the number of samples. Answers arbitrary
// percentile queries exactly, with linear interpolation between order
// statistics: the same result as sorting every sample.
class Percentiles {
 public:
  void Add(double x) {
    ++counts_[x];
    ++count_;
  }

  // p in [0, 100]. Returns 0 when empty.
  double Get(double p) const;

  size_t count() const { return count_; }

 private:
  std::map<double, uint64_t> counts_;  // ascending value -> occurrences
  size_t count_ = 0;
};

// Fixed-range, fixed-width bucket histogram. Values outside [lo, hi) land in
// clamped edge buckets so no sample is dropped.
class Histogram {
 public:
  Histogram(double lo, double hi, size_t buckets);

  void Add(double x);

  uint64_t total() const { return total_; }
  const std::vector<uint64_t>& buckets() const { return counts_; }

  // Lower edge of bucket i.
  double BucketLow(size_t i) const;

  // Multi-line ASCII rendering ("[lo, hi) ####### count"), used in bench
  // reports.
  std::string Render(size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<uint64_t> counts_;
  uint64_t total_ = 0;
};

}  // namespace sos

#endif  // SOS_SRC_COMMON_STATS_H_
