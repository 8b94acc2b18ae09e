// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/features.h"

#include <cmath>
#include <cstdio>
#include <string_view>

#include "src/common/rng.h"

namespace sos {
namespace {

double LogBytes(uint64_t bytes) { return std::log2(static_cast<double>(bytes) + 1.0); }

double AgeDays(SimTimeUs now, SimTimeUs then) {
  return now >= then ? UsToDays(now - then) : 0.0;
}

// FNV-1a over a path token.
uint64_t HashToken(std::string_view token) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : token) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

void ExtractTimeFeatures(const FileMeta& meta, SimTimeUs now_us, FeatureVector* f) {
  size_t i = kTimeFeaturesBegin;
  (*f)[i++] = std::log1p(AgeDays(now_us, meta.created_us)) / 3.0;
  (*f)[i++] = std::log1p(AgeDays(now_us, meta.last_accessed_us)) / 3.0;
  // Reads per day of life; +1 day avoids the new-file singularity.
  const double life_days = AgeDays(now_us, meta.created_us) + 1.0;
  (*f)[i++] = std::log1p(static_cast<double>(meta.read_count) / life_days);
  (*f)[i++] = std::log1p(static_cast<double>(meta.write_count) / life_days);
}

FeatureVector ExtractFeatures(const FileMeta& meta, SimTimeUs now_us) {
  FeatureVector f{};
  // Numeric block.
  f[0] = LogBytes(meta.size_bytes);
  ExtractTimeFeatures(meta, now_us, &f);
  size_t i = kTimeFeaturesEnd;
  f[i++] = meta.entropy_bits_per_byte / 8.0;
  f[i++] = meta.personal_signal;

  // One-hot file type.
  f[kNumericFeatures + static_cast<size_t>(meta.type)] = 1.0;

  // Hashed path tokens ('/'-separated components, lowercase assumed).
  const size_t base = kNumericFeatures + kNumFileTypes;
  std::string_view path = meta.path;
  size_t start = 0;
  while (start < path.size()) {
    size_t end = path.find('/', start);
    if (end == std::string_view::npos) {
      end = path.size();
    }
    if (end > start) {
      const uint64_t h = HashToken(path.substr(start, end - start));
      f[base + h % kPathHashBuckets] += 1.0;
    }
    start = end + 1;
  }
  return f;
}

const char* FeatureName(size_t i) {
  static const char* kNumericNames[kNumericFeatures] = {
      "log_size", "log_age", "log_recency", "read_rate", "write_rate", "entropy", "personal",
  };
  if (i < kNumericFeatures) {
    return kNumericNames[i];
  }
  if (i < kNumericFeatures + kNumFileTypes) {
    return FileTypeName(static_cast<FileType>(i - kNumericFeatures));
  }
  // thread_local: sweep jobs may query names concurrently from pool workers.
  thread_local char buf[32];
  std::snprintf(buf, sizeof(buf), "path_hash_%zu", i - kNumericFeatures - kNumFileTypes);
  return buf;
}

}  // namespace sos
