// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/classifier.h"

namespace sos {

std::vector<const FileMeta*> AsPointers(const std::vector<FileMeta>& corpus) {
  std::vector<const FileMeta*> out;
  out.reserve(corpus.size());
  for (const auto& meta : corpus) {
    out.push_back(&meta);
  }
  return out;
}

bool BinaryClassifier::ScoreAndBounds(const FileMeta& meta, SimTimeUs now_us,
                                      std::span<const SimTimeUs> ends, double* score,
                                      std::span<ScoreRange> bounds,
                                      const BoundsStop& stop) const {
  *score = Score(meta, now_us);
  for (size_t k = 0; k < ends.size(); ++k) {
    if (!ScoreBounds(meta, now_us, ends[k], &bounds[k].lo, &bounds[k].hi)) {
      return false;
    }
    if (stop && stop(k, bounds[k])) {
      break;
    }
  }
  return true;
}

double RuleBasedClassifier::Score(const FileMeta& meta, SimTimeUs /*now_us*/) const {
  switch (meta.type) {
    case FileType::kPhoto:
    case FileType::kVideo:
    case FileType::kAudio:
    case FileType::kDownload:
    case FileType::kCache:
      return 0.9;  // "media and junk are expendable"
    case FileType::kSystem:
    case FileType::kAppData:
    case FileType::kDocument:
      return 0.1;
  }
  return 0.5;
}

}  // namespace sos
