// Copyright (c) 2026 The SOS Authors. MIT License.
//
// L2-regularized logistic regression trained with mini-batch SGD.
//
// The discriminative counterpart to the Naive Bayes model: typically a point
// or two more accurate on the synthetic corpus and the default classifier
// wired into SosDevice. Features are standardized with training-set
// statistics baked into the model.

#ifndef SOS_SRC_CLASSIFY_LOGISTIC_H_
#define SOS_SRC_CLASSIFY_LOGISTIC_H_

#include <array>
#include <vector>

#include "src/classify/classifier.h"

namespace sos {

struct LogisticConfig {
  int epochs = 30;
  double learning_rate = 0.15;
  double l2 = 1e-4;
  uint64_t seed = 7;  // shuffling
};

class LogisticClassifier final : public BinaryClassifier {
 public:
  static LogisticClassifier Train(const std::vector<const FileMeta*>& corpus, LabelFn label_fn,
                                  SimTimeUs now_us, const LogisticConfig& config = {});

  double Score(const FileMeta& meta, SimTimeUs now_us) const override;
  bool ScoreBounds(const FileMeta& meta, SimTimeUs t0_us, SimTimeUs t1_us, double* lo,
                   double* hi) const override;
  bool ScoreAndBounds(const FileMeta& meta, SimTimeUs now_us, std::span<const SimTimeUs> ends,
                      double* score, std::span<ScoreRange> bounds,
                      const BoundsStop& stop) const override;

  const std::array<double, kFeatureDim>& weights() const { return w_; }
  double bias() const { return b_; }

 private:
  LogisticClassifier() = default;

  using Terms = std::array<double, kFeatureDim>;

  std::array<double, kFeatureDim> Standardize(const FeatureVector& f) const;
  // The weighted standardized feature w_j * x_j of feature value `f_j`.
  double Term(size_t j, double f_j) const {
    return w_[j] * ((f_j - feat_mean_[j]) / feat_std_[j]);
  }
  // Every feature's term.
  Terms TermsOf(const FeatureVector& f) const;
  // The bias plus the terms, summed in feature order: Score's logit.
  double Logit(const Terms& terms) const;
  // Bounds over a window whose endpoints have terms `a` and `b`.
  ScoreRange Bound(const Terms& a, const Terms& b) const;

  std::array<double, kFeatureDim> w_{};
  double b_ = 0.0;
  std::array<double, kFeatureDim> feat_mean_{};
  std::array<double, kFeatureDim> feat_std_{};
};

}  // namespace sos

#endif  // SOS_SRC_CLASSIFY_LOGISTIC_H_
