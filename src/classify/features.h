// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Feature extraction for the SOS classifiers.
//
// Turns a FileMeta into a fixed-length dense vector combining numeric
// attributes (log size, ages, access rates, entropy, significance signal),
// a one-hot file-type block, and a small hashed bag of path tokens (feature
// hashing keeps the vector fixed-size without a vocabulary).
//
// The ground-truth fields of FileMeta are never read here.

#ifndef SOS_SRC_CLASSIFY_FEATURES_H_
#define SOS_SRC_CLASSIFY_FEATURES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/classify/file_meta.h"

namespace sos {

inline constexpr size_t kNumericFeatures = 7;
inline constexpr size_t kPathHashBuckets = 16;
inline constexpr size_t kFeatureDim = kNumericFeatures + kNumFileTypes + kPathHashBuckets;

using FeatureVector = std::array<double, kFeatureDim>;

// Features [kTimeFeaturesBegin, kTimeFeaturesEnd) -- log_age, log_recency,
// read_rate and write_rate -- are the only ones that depend on `now_us`.
inline constexpr size_t kTimeFeaturesBegin = 1;
inline constexpr size_t kTimeFeaturesEnd = 5;

// Extracts features; `now_us` anchors the age/recency features.
FeatureVector ExtractFeatures(const FileMeta& meta, SimTimeUs now_us);

// Overwrites only the time-dependent features of `f` with those of
// ExtractFeatures(meta, now_us), which computes them through this function.
void ExtractTimeFeatures(const FileMeta& meta, SimTimeUs now_us, FeatureVector* f);

// Human-readable name of feature `i` (for model introspection dumps).
const char* FeatureName(size_t i);

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_FEATURES_H_
