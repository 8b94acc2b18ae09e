// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/classify/logistic.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/common/rng.h"

namespace sos {
namespace {

double Sigmoid(double z) {
  if (z > 30.0) {
    return 1.0;
  }
  if (z < -30.0) {
    return 0.0;
  }
  return 1.0 / (1.0 + std::exp(-z));
}

}  // namespace

std::array<double, kFeatureDim> LogisticClassifier::Standardize(const FeatureVector& f) const {
  std::array<double, kFeatureDim> out{};
  for (size_t j = 0; j < kFeatureDim; ++j) {
    out[j] = (f[j] - feat_mean_[j]) / feat_std_[j];
  }
  return out;
}

LogisticClassifier LogisticClassifier::Train(const std::vector<const FileMeta*>& corpus, LabelFn label_fn,
                                             SimTimeUs now_us, const LogisticConfig& config) {
  LogisticClassifier model;

  std::vector<FeatureVector> features;
  std::vector<double> labels;
  features.reserve(corpus.size());
  labels.reserve(corpus.size());
  for (const FileMeta* meta : corpus) {
    features.push_back(ExtractFeatures(*meta, now_us));
    labels.push_back(label_fn(*meta) ? 1.0 : 0.0);
  }

  // Standardization statistics.
  const double n = std::max<double>(1.0, static_cast<double>(features.size()));
  for (const auto& f : features) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      model.feat_mean_[j] += f[j];
    }
  }
  for (size_t j = 0; j < kFeatureDim; ++j) {
    model.feat_mean_[j] /= n;
  }
  for (const auto& f : features) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      const double d = f[j] - model.feat_mean_[j];
      model.feat_std_[j] += d * d;
    }
  }
  for (size_t j = 0; j < kFeatureDim; ++j) {
    model.feat_std_[j] = std::max(std::sqrt(model.feat_std_[j] / n), 1e-6);
  }
  // Standardized once, in place: every epoch revisits the same values.
  for (auto& f : features) {
    f = model.Standardize(f);
  }

  // SGD with per-epoch shuffling and 1/sqrt(epoch) learning-rate decay.
  std::vector<size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(DeriveSeed({config.seed, 0x6c6f67697374ull /* "logist" */}));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr = config.learning_rate / std::sqrt(static_cast<double>(epoch) + 1.0);
    for (size_t idx : order) {
      const FeatureVector& x = features[idx];
      double z = model.b_;
      for (size_t j = 0; j < kFeatureDim; ++j) {
        z += model.w_[j] * x[j];
      }
      const double err = Sigmoid(z) - labels[idx];
      for (size_t j = 0; j < kFeatureDim; ++j) {
        model.w_[j] -= lr * (err * x[j] + config.l2 * model.w_[j]);
      }
      model.b_ -= lr * err;
    }
  }
  return model;
}

LogisticClassifier::Terms LogisticClassifier::TermsOf(const FeatureVector& f) const {
  Terms terms{};
  for (size_t j = 0; j < kFeatureDim; ++j) {
    terms[j] = Term(j, f[j]);
  }
  return terms;
}

double LogisticClassifier::Logit(const Terms& terms) const {
  double z = b_;
  for (size_t j = 0; j < kFeatureDim; ++j) {
    z += terms[j];
  }
  return z;
}

double LogisticClassifier::Score(const FileMeta& meta, SimTimeUs now_us) const {
  return Sigmoid(Logit(TermsOf(ExtractFeatures(meta, now_us))));
}

// Exact for the reason the features give: with `meta` fixed, log_age and
// log_recency only grow with time, read_rate and write_rate only shrink, and
// every other feature is constant. Standardizing divides by a positive std,
// so each weighted term w_j * x_j is monotone in t and extremal at t0 or t1.
// Summing the per-term minima (maxima) in Score's order then bounds z from
// below (above), because rounded addition is monotone in each operand, and
// the sigmoid is monotone.
ScoreRange LogisticClassifier::Bound(const Terms& a, const Terms& b) const {
  double z_lo = b_;
  double z_hi = b_;
  for (size_t j = 0; j < kFeatureDim; ++j) {
    z_lo += std::min(a[j], b[j]);
    z_hi += std::max(a[j], b[j]);
  }
  return {Sigmoid(z_lo), Sigmoid(z_hi)};
}

bool LogisticClassifier::ScoreBounds(const FileMeta& meta, SimTimeUs t0_us, SimTimeUs t1_us,
                                     double* lo, double* hi) const {
  const ScoreRange range =
      Bound(TermsOf(ExtractFeatures(meta, t0_us)), TermsOf(ExtractFeatures(meta, t1_us)));
  *lo = range.lo;
  *hi = range.hi;
  return true;
}

// Bit-exact with Score and ScoreBounds: every term is computed by Term from
// a feature value computed by the same expression, and summed in the same
// order. Only the time-dependent features differ between `now_us` and an
// end, so an end's terms are the terms at `now_us` with those replaced.
bool LogisticClassifier::ScoreAndBounds(const FileMeta& meta, SimTimeUs now_us,
                                        std::span<const SimTimeUs> ends, double* score,
                                        std::span<ScoreRange> bounds,
                                        const BoundsStop& stop) const {
  FeatureVector f = ExtractFeatures(meta, now_us);
  const Terms now_terms = TermsOf(f);
  *score = Sigmoid(Logit(now_terms));
  Terms end_terms = now_terms;
  for (size_t k = 0; k < ends.size(); ++k) {
    ExtractTimeFeatures(meta, ends[k], &f);
    for (size_t j = kTimeFeaturesBegin; j < kTimeFeaturesEnd; ++j) {
      end_terms[j] = Term(j, f[j]);
    }
    bounds[k] = Bound(now_terms, end_terms);
    if (stop && stop(k, bounds[k])) {
      break;
    }
  }
  return true;
}

}  // namespace sos
