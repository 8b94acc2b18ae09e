// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Classifier interfaces and the rule-based baseline.
//
// SOS needs two predictions per file (paper §4.4-4.5):
//   - priority: SYS (critical) vs SPARE (expendable) placement,
//   - deletion: will the user delete this file soon (the auto-delete
//     fallback's ranking signal).
// Both are binary classifiers over the same features; BinaryClassifier is
// the shared abstraction. The paper stresses "erring on the side of
// caution": the decision threshold is explicit so SOS can trade recall on
// EXPENDABLE against the risk of degrading something precious.
//
// RuleBasedClassifier is the strawman the paper dismisses ("straightforwardly
// classifying files of certain types as non-critical according to type is
// insufficient"): pure file-type rules, no content signal. It serves as the
// baseline in the E8 benchmark.

#ifndef SOS_SRC_CLASSIFY_CLASSIFIER_H_
#define SOS_SRC_CLASSIFY_CLASSIFIER_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/classify/features.h"
#include "src/classify/file_meta.h"
#include "src/host/placement.h"

namespace sos {

// Bounds on a score over a time window.
struct ScoreRange {
  double lo = 0.0;
  double hi = 0.0;
};

// A binary classifier over FileMeta. Scores near 1 mean "positive class".
// For priority models the positive class is EXPENDABLE (safe-to-degrade);
// for deletion models it is WILL-DELETE.
class BinaryClassifier {
 public:
  virtual ~BinaryClassifier() = default;

  // P(positive) in [0, 1].
  virtual double Score(const FileMeta& meta, SimTimeUs now_us) const = 0;

  // Bounds the score of an unchanging `meta` over a time window: on true,
  // *lo <= Score(meta, t) <= *hi for every t in [t0_us, t1_us] (t0_us <=
  // t1_us). False means the model cannot bound its score, so callers must
  // score every time.
  virtual bool ScoreBounds(const FileMeta& /*meta*/, SimTimeUs /*t0_us*/, SimTimeUs /*t1_us*/,
                           double* /*lo*/, double* /*hi*/) const {
    return false;
  }

  // Stop test of ScoreAndBounds, called with k and bounds[k] after each
  // bounded end: true means the caller needs no further end bounded.
  using BoundsStop = std::function<bool(size_t k, const ScoreRange& bound)>;

  // Sets *score = Score(meta, now_us) and, for k = 0, 1, ..., bounds[k] to
  // what ScoreBounds(meta, now_us, ends[k], ...) gives (every ends[k] >=
  // now_us, bounds.size() >= ends.size()), until `stop` returns true; the
  // bounds past that k are left untouched. An empty `stop` bounds every end.
  // Returns false when the model cannot bound its score; `bounds` is then
  // unspecified. The default makes exactly those calls; a model overrides it
  // to extract the features of `meta` once.
  virtual bool ScoreAndBounds(const FileMeta& meta, SimTimeUs now_us,
                              std::span<const SimTimeUs> ends, double* score,
                              std::span<ScoreRange> bounds, const BoundsStop& stop) const;

  // Hard decision at `threshold` (default 0.5). Higher thresholds are more
  // conservative about declaring a file expendable/deletable.
  bool Predict(const FileMeta& meta, SimTimeUs now_us, double threshold = 0.5) const {
    return Score(meta, now_us) >= threshold;
  }
};

// Priority decision helper: maps a positive ("expendable") prediction to the
// partition enum.
inline Priority PredictPriority(const BinaryClassifier& model, const FileMeta& meta,
                                SimTimeUs now_us, double threshold = 0.5) {
  return model.Predict(meta, now_us, threshold) ? Priority::kExpendable : Priority::kCritical;
}

// File-type-only baseline: media/cache/download are expendable, everything
// else critical. Ignores the personal-significance signal entirely.
class RuleBasedClassifier final : public BinaryClassifier {
 public:
  double Score(const FileMeta& meta, SimTimeUs now_us) const override;
};

// Maps file metadata onto the placement API's lifetime declaration. An
// explicit expected_lifetime_us wins (TTL'd cache objects); otherwise a
// coarse per-type heuristic (caches churn in days, app state in weeks,
// media and system data live for years). Deliberately simple -- the point
// of the directive API is that even crude host knowledge beats none.
inline LifetimeHint LifetimeHintFor(const FileMeta& meta) {
  if (meta.expected_lifetime_us > 0) {
    if (meta.expected_lifetime_us <= 7 * kUsPerDay) {
      return LifetimeHint::kShort;
    }
    if (meta.expected_lifetime_us <= 90 * kUsPerDay) {
      return LifetimeHint::kMedium;
    }
    return LifetimeHint::kLong;
  }
  switch (meta.type) {
    case FileType::kCache:
      return LifetimeHint::kShort;
    case FileType::kAppData:
    case FileType::kDownload:
      return LifetimeHint::kMedium;
    default:
      return LifetimeHint::kLong;
  }
}

// Label accessors shared by trainers/evaluators.
inline bool ExpendableLabel(const FileMeta& meta) {
  return meta.true_priority == Priority::kExpendable;
}
inline bool DeletionLabel(const FileMeta& meta) { return meta.will_be_deleted; }

using LabelFn = bool (*)(const FileMeta&);

// View of a corpus as non-owning pointers, the form trainers and evaluators
// consume (so train/test splits avoid copying FileMeta).
std::vector<const FileMeta*> AsPointers(const std::vector<FileMeta>& corpus);

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_CLASSIFIER_H_
