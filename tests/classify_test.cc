// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the classification stack: features, synthetic corpus
// distributions, both learned models vs the rule baseline, the evaluation
// machinery, and the paper's ~79% auto-delete accuracy anchor.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/classify/classifier.h"
#include "src/classify/corpus.h"
#include "src/classify/eval.h"
#include "src/classify/features.h"
#include "src/classify/boosted_stumps.h"
#include "src/classify/logistic.h"
#include "src/classify/naive_bayes.h"
#include "src/common/rng.h"
#include "src/common/units.h"

namespace sos {
namespace {

CorpusConfig TestCorpusConfig() {
  CorpusConfig config;
  config.num_files = 6000;
  config.seed = 77;
  return config;
}

// --- Features --------------------------------------------------------------

TEST(FeaturesTest, DimensionsAndOneHot) {
  FileMeta meta;
  meta.type = FileType::kPhoto;
  meta.path = "dcim/camera/img_1.jpg";
  meta.size_bytes = kKiB;
  const FeatureVector f = ExtractFeatures(meta, kUsPerYear);
  EXPECT_EQ(f.size(), kFeatureDim);
  // Exactly one type slot is hot.
  int hot = 0;
  for (size_t i = kNumericFeatures; i < kNumericFeatures + kNumFileTypes; ++i) {
    hot += f[i] > 0.0 ? 1 : 0;
  }
  EXPECT_EQ(hot, 1);
  EXPECT_GT(f[kNumericFeatures + static_cast<size_t>(FileType::kPhoto)], 0.0);
}

TEST(FeaturesTest, PathTokensHashDeterministically) {
  FileMeta a;
  a.path = "dcim/camera/img.jpg";
  FileMeta b = a;
  const FeatureVector fa = ExtractFeatures(a, 0);
  const FeatureVector fb = ExtractFeatures(b, 0);
  EXPECT_EQ(fa, fb);
}

TEST(FeaturesTest, AgeFeatureGrowsWithTime) {
  FileMeta meta;
  meta.created_us = 0;
  const FeatureVector young = ExtractFeatures(meta, kUsPerDay);
  const FeatureVector old = ExtractFeatures(meta, 100 * kUsPerDay);
  EXPECT_GT(old[1], young[1]);  // log_age is feature index 1
}

TEST(FeaturesTest, NamesAreStable) {
  EXPECT_STREQ(FeatureName(0), "log_size");
  EXPECT_STREQ(FeatureName(6), "personal");
  EXPECT_STREQ(FeatureName(kNumericFeatures), "system");
}

// --- Corpus ----------------------------------------------------------------

TEST(CorpusTest, DeterministicForSeed) {
  const auto a = GenerateCorpus(TestCorpusConfig());
  const auto b = GenerateCorpus(TestCorpusConfig());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i += 500) {
    EXPECT_EQ(a[i].path, b[i].path);
    EXPECT_EQ(a[i].size_bytes, b[i].size_bytes);
    EXPECT_EQ(a[i].true_priority, b[i].true_priority);
  }
}

TEST(CorpusTest, MediaDominatesBytes) {
  // Paper §4.2 / [66-68]: media files comprise over half of mobile data.
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const CorpusStats stats = ComputeCorpusStats(corpus);
  EXPECT_GT(static_cast<double>(stats.media_bytes) / static_cast<double>(stats.total_bytes),
            0.5);
}

TEST(CorpusTest, MostBytesAreExpendable) {
  // The premise that makes SOS worthwhile: most capacity can degrade.
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const CorpusStats stats = ComputeCorpusStats(corpus);
  EXPECT_GT(static_cast<double>(stats.expendable_bytes) /
                static_cast<double>(stats.total_bytes),
            0.5);
}

TEST(CorpusTest, SystemFilesAreCritical) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  uint64_t system_total = 0;
  uint64_t system_critical = 0;
  for (const auto& meta : corpus) {
    if (meta.type == FileType::kSystem) {
      ++system_total;
      system_critical += meta.true_priority == Priority::kCritical ? 1 : 0;
    }
  }
  ASSERT_GT(system_total, 0u);
  // Only label noise can make a system file expendable.
  EXPECT_GT(static_cast<double>(system_critical) / static_cast<double>(system_total), 0.85);
}

TEST(CorpusTest, SynthesizeFileHonorsType) {
  Rng rng(3);
  const FileMeta meta = SynthesizeFile(FileType::kVideo, kUsPerDay, 0.0, rng);
  EXPECT_EQ(meta.type, FileType::kVideo);
  EXPECT_EQ(meta.created_us, kUsPerDay);
  EXPECT_GT(meta.size_bytes, 512u);
  EXPECT_NE(meta.path.find(".mp4"), std::string::npos);
}

TEST(CorpusTest, TypeMixRoughlyMatchesProfile) {
  Rng rng(4);
  std::array<int, kNumFileTypes> counts{};
  for (int i = 0; i < 20000; ++i) {
    ++counts[static_cast<size_t>(SampleFileType(rng))];
  }
  // Photos ~32% of file count.
  EXPECT_NEAR(counts[static_cast<size_t>(FileType::kPhoto)] / 20000.0, 0.32, 0.03);
  EXPECT_NEAR(counts[static_cast<size_t>(FileType::kAppData)] / 20000.0, 0.20, 0.03);
}

// --- Metrics ---------------------------------------------------------------

TEST(MetricsTest, ConfusionMath) {
  ConfusionMatrix cm;
  cm.true_positive = 40;
  cm.false_positive = 10;
  cm.true_negative = 45;
  cm.false_negative = 5;
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.85);
  EXPECT_DOUBLE_EQ(cm.precision(), 0.8);
  EXPECT_NEAR(cm.recall(), 40.0 / 45.0, 1e-12);
  EXPECT_DOUBLE_EQ(cm.false_discovery_rate(), 0.2);
  EXPECT_GT(cm.f1(), 0.8);
}

TEST(MetricsTest, EmptyMatrixIsZero) {
  ConfusionMatrix cm;
  EXPECT_EQ(cm.accuracy(), 0.0);
  EXPECT_EQ(cm.precision(), 0.0);
  EXPECT_EQ(cm.recall(), 0.0);
  EXPECT_EQ(cm.f1(), 0.0);
}

TEST(MetricsTest, SplitIsDisjointAndComplete) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const CorpusSplit split = SplitCorpus(corpus, 5);
  EXPECT_EQ(split.train.size() + split.test.size(), corpus.size());
  EXPECT_NEAR(static_cast<double>(split.test.size()) / static_cast<double>(corpus.size()),
              0.2, 0.01);
}

// --- Models ----------------------------------------------------------------

struct TrainedModels {
  std::vector<FileMeta> corpus;
  CorpusSplit split;
  SimTimeUs now;
  NaiveBayesClassifier nb;
  LogisticClassifier logistic;
  RuleBasedClassifier rules;

  static TrainedModels Make() {
    const CorpusConfig config = TestCorpusConfig();
    std::vector<FileMeta> corpus = GenerateCorpus(config);
    CorpusSplit split = SplitCorpus(corpus, 5);
    const SimTimeUs now = config.device_age_us;
    NaiveBayesClassifier nb = NaiveBayesClassifier::Train(split.train, &ExpendableLabel, now);
    LogisticClassifier logistic =
        LogisticClassifier::Train(split.train, &ExpendableLabel, now);
    return TrainedModels{std::move(corpus), std::move(split), now, std::move(nb),
                         std::move(logistic), RuleBasedClassifier{}};
  }
};

TEST(ModelsTest, LearnedModelsBeatChance) {
  const auto m = TrainedModels::Make();
  const double nb_acc =
      EvaluateClassifier(m.nb, m.split.test, &ExpendableLabel, m.now).accuracy();
  const double lr_acc =
      EvaluateClassifier(m.logistic, m.split.test, &ExpendableLabel, m.now).accuracy();
  EXPECT_GT(nb_acc, 0.75);
  EXPECT_GT(lr_acc, 0.75);
}

TEST(ModelsTest, LearnedModelsBeatTypeRules) {
  // Paper §4.2: type-only classification is insufficient; the learned models
  // must beat it because they see the personal-significance signal.
  const auto m = TrainedModels::Make();
  const double rule_acc =
      EvaluateClassifier(m.rules, m.split.test, &ExpendableLabel, m.now).accuracy();
  const double lr_acc =
      EvaluateClassifier(m.logistic, m.split.test, &ExpendableLabel, m.now).accuracy();
  EXPECT_GT(lr_acc, rule_acc);
}

TEST(ModelsTest, ScoresAreProbabilities) {
  const auto m = TrainedModels::Make();
  for (size_t i = 0; i < m.split.test.size(); i += 7) {
    const double nb = m.nb.Score(*m.split.test[i], m.now);
    const double lr = m.logistic.Score(*m.split.test[i], m.now);
    EXPECT_GE(nb, 0.0);
    EXPECT_LE(nb, 1.0);
    EXPECT_GE(lr, 0.0);
    EXPECT_LE(lr, 1.0);
  }
}

TEST(ModelsTest, HigherThresholdIsMoreConservative) {
  // Raising the demotion threshold must not increase the number of files
  // declared expendable (monotone predictions).
  const auto m = TrainedModels::Make();
  uint64_t prev_positives = ~0ull;
  for (const auto& point :
       SweepThreshold(m.logistic, m.split.test, &ExpendableLabel, m.now, 9)) {
    const uint64_t positives = point.matrix.true_positive + point.matrix.false_positive;
    EXPECT_LE(positives, prev_positives);
    prev_positives = positives;
  }
}

TEST(ModelsTest, DeletionPredictorNearPaperAccuracy) {
  // Paper §4.3/[68]: deletion prediction at ~79% accuracy. The synthetic
  // corpus noise level is tuned so a learned model lands in that band
  // rather than at an unrealistic 99%.
  const auto m = TrainedModels::Make();
  const LogisticClassifier deleter =
      LogisticClassifier::Train(m.split.train, &DeletionLabel, m.now);
  const double acc =
      EvaluateClassifier(deleter, m.split.test, &DeletionLabel, m.now).accuracy();
  EXPECT_GT(acc, 0.70);
  EXPECT_LT(acc, 0.97);
}

TEST(ModelsTest, PersonalSignalProtectsPreciousMedia) {
  // Two identical photos, one with a strong personal signal: the model must
  // score the precious one as less expendable.
  const auto m = TrainedModels::Make();
  Rng rng(5);
  FileMeta plain = SynthesizeFile(FileType::kPhoto, kUsPerDay, 0.0, rng);
  FileMeta precious = plain;
  plain.personal_signal = 0.02;
  precious.personal_signal = 0.98;
  EXPECT_LT(m.logistic.Score(precious, m.now), m.logistic.Score(plain, m.now));
}

TEST(ModelsTest, TrainingIsDeterministic) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const auto pointers = AsPointers(corpus);
  const LogisticClassifier a = LogisticClassifier::Train(pointers, &ExpendableLabel, kUsPerYear);
  const LogisticClassifier b = LogisticClassifier::Train(pointers, &ExpendableLabel, kUsPerYear);
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.bias(), b.bias());
}

// LogisticClassifier::Train as it was when it standardized every sample in
// every epoch, kept verbatim apart from returning the weights and bias.
struct ReferenceLogistic {
  std::array<double, kFeatureDim> w{};
  double b = 0.0;
};

double ReferenceSigmoid(double z) {
  if (z > 30.0) {
    return 1.0;
  }
  if (z < -30.0) {
    return 0.0;
  }
  return 1.0 / (1.0 + std::exp(-z));
}

ReferenceLogistic TrainPerEpochStandardize(const std::vector<const FileMeta*>& corpus,
                                           LabelFn label_fn, SimTimeUs now_us,
                                           const LogisticConfig& config) {
  ReferenceLogistic model;
  std::array<double, kFeatureDim> feat_mean{};
  std::array<double, kFeatureDim> feat_std{};
  const auto standardize = [&](const FeatureVector& f) {
    std::array<double, kFeatureDim> out{};
    for (size_t j = 0; j < kFeatureDim; ++j) {
      out[j] = (f[j] - feat_mean[j]) / feat_std[j];
    }
    return out;
  };

  std::vector<FeatureVector> features;
  std::vector<double> labels;
  features.reserve(corpus.size());
  labels.reserve(corpus.size());
  for (const FileMeta* meta : corpus) {
    features.push_back(ExtractFeatures(*meta, now_us));
    labels.push_back(label_fn(*meta) ? 1.0 : 0.0);
  }

  const double n = std::max<double>(1.0, static_cast<double>(features.size()));
  for (const auto& f : features) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      feat_mean[j] += f[j];
    }
  }
  for (size_t j = 0; j < kFeatureDim; ++j) {
    feat_mean[j] /= n;
  }
  for (const auto& f : features) {
    for (size_t j = 0; j < kFeatureDim; ++j) {
      const double d = f[j] - feat_mean[j];
      feat_std[j] += d * d;
    }
  }
  for (size_t j = 0; j < kFeatureDim; ++j) {
    feat_std[j] = std::max(std::sqrt(feat_std[j] / n), 1e-6);
  }

  std::vector<size_t> order(features.size());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(DeriveSeed({config.seed, 0x6c6f67697374ull /* "logist" */}));
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr = config.learning_rate / std::sqrt(static_cast<double>(epoch) + 1.0);
    for (size_t idx : order) {
      const auto x = standardize(features[idx]);
      double z = model.b;
      for (size_t j = 0; j < kFeatureDim; ++j) {
        z += model.w[j] * x[j];
      }
      const double err = ReferenceSigmoid(z) - labels[idx];
      for (size_t j = 0; j < kFeatureDim; ++j) {
        model.w[j] -= lr * (err * x[j] + config.l2 * model.w[j]);
      }
      model.b -= lr * err;
    }
  }
  return model;
}

TEST(ModelsTest, TrainingStandardizesOnceWithBitIdenticalWeights) {
  const auto corpus = GenerateCorpus(TestCorpusConfig());
  const auto pointers = AsPointers(corpus);
  LogisticConfig short_run;
  short_run.epochs = 3;
  short_run.seed = 11;
  for (const LabelFn label : {&ExpendableLabel, &DeletionLabel}) {
    for (const LogisticConfig& config : {LogisticConfig{}, short_run}) {
      const LogisticClassifier model =
          LogisticClassifier::Train(pointers, label, kUsPerYear, config);
      const ReferenceLogistic reference =
          TrainPerEpochStandardize(pointers, label, kUsPerYear, config);
      for (size_t j = 0; j < kFeatureDim; ++j) {
        EXPECT_EQ(std::bit_cast<uint64_t>(model.weights()[j]),
                  std::bit_cast<uint64_t>(reference.w[j]))
            << "weight " << j << ", epochs " << config.epochs;
      }
      EXPECT_EQ(std::bit_cast<uint64_t>(model.bias()), std::bit_cast<uint64_t>(reference.b))
          << "epochs " << config.epochs;
    }
  }
}

TEST(ModelsTest, LogisticScoreBoundsContainScore) {
  const auto m = TrainedModels::Make();
  Rng rng(91);
  for (size_t i = 0; i < m.corpus.size(); i += 11) {
    FileMeta meta = m.corpus[i];
    // Vary the access history so recency and rates move independently.
    meta.read_count = static_cast<uint32_t>(rng.NextBounded(200));
    meta.write_count = static_cast<uint32_t>(rng.NextBounded(50));
    meta.last_accessed_us = meta.created_us + rng.NextBounded(kUsPerYear);
    // Windows start before creation, between creation and last access, or
    // later, and last from an hour to a hundred days.
    const SimTimeUs t0 = rng.NextBounded(meta.last_accessed_us + kUsPerYear);
    const SimTimeUs t1 = t0 + kUsPerHour + rng.NextBounded(100 * kUsPerDay);
    double lo = 0.0;
    double hi = 0.0;
    ASSERT_TRUE(m.logistic.ScoreBounds(meta, t0, t1, &lo, &hi));
    ASSERT_LE(lo, hi);
    constexpr int kInterior = 16;
    for (int k = 0; k <= kInterior + 1; ++k) {
      const SimTimeUs t =
          t0 + (t1 - t0) * static_cast<SimTimeUs>(k) / static_cast<SimTimeUs>(kInterior + 1);
      const double score = m.logistic.Score(meta, t);
      EXPECT_GE(score, lo) << "file " << i << " t " << t;
      EXPECT_LE(score, hi) << "file " << i << " t " << t;
    }
  }
}

TEST(ModelsTest, ModelsWithoutBoundsSayNo) {
  const auto m = TrainedModels::Make();
  double lo = 0.0;
  double hi = 0.0;
  EXPECT_FALSE(m.nb.ScoreBounds(m.corpus[0], 0, kUsPerDay, &lo, &hi));
  EXPECT_FALSE(m.rules.ScoreBounds(m.corpus[0], 0, kUsPerDay, &lo, &hi));
}

// The single-extraction call must give bit for bit what Score plus one
// ScoreBounds per window gives: the migration daemon's verdicts rest on it.
TEST(ModelsTest, LogisticScoreAndBoundsMatchSeparateCalls) {
  const auto m = TrainedModels::Make();
  Rng rng(92);
  for (size_t i = 0; i < m.corpus.size(); i += 11) {
    FileMeta meta = m.corpus[i];
    meta.read_count = static_cast<uint32_t>(rng.NextBounded(200));
    meta.write_count = static_cast<uint32_t>(rng.NextBounded(50));
    meta.last_accessed_us = meta.created_us + rng.NextBounded(kUsPerYear);
    const SimTimeUs now = rng.NextBounded(meta.last_accessed_us + kUsPerYear);
    const std::array<SimTimeUs, 5> ends = {now + 64 * kUsPerDay, now + 16 * kUsPerDay,
                                           now + kUsPerHour + rng.NextBounded(kUsPerYear),
                                           now + kUsPerDay, now};
    double score = -1.0;
    std::array<ScoreRange, 5> bounds{};
    ASSERT_TRUE(m.logistic.ScoreAndBounds(meta, now, ends, &score, bounds, {}));
    EXPECT_EQ(std::bit_cast<uint64_t>(score), std::bit_cast<uint64_t>(m.logistic.Score(meta, now)))
        << "file " << i;
    for (size_t k = 0; k < ends.size(); ++k) {
      double lo = -1.0;
      double hi = -1.0;
      ASSERT_TRUE(m.logistic.ScoreBounds(meta, now, ends[k], &lo, &hi));
      EXPECT_EQ(std::bit_cast<uint64_t>(bounds[k].lo), std::bit_cast<uint64_t>(lo))
          << "file " << i << " window " << k;
      EXPECT_EQ(std::bit_cast<uint64_t>(bounds[k].hi), std::bit_cast<uint64_t>(hi))
          << "file " << i << " window " << k;
    }
  }
}

// Implements Score and ScoreBounds only, forwarding both to `inner` (bounds
// only when `bounds` is set), and counts the calls ScoreAndBounds makes.
class ForwardingModel final : public BinaryClassifier {
 public:
  ForwardingModel(const BinaryClassifier* inner, bool bounds) : inner_(inner), bounds_(bounds) {}
  double Score(const FileMeta& meta, SimTimeUs now_us) const override {
    ++score_calls;
    return inner_->Score(meta, now_us);
  }
  bool ScoreBounds(const FileMeta& meta, SimTimeUs t0_us, SimTimeUs t1_us, double* lo,
                   double* hi) const override {
    ++bound_calls;
    return bounds_ && inner_->ScoreBounds(meta, t0_us, t1_us, lo, hi);
  }
  mutable int score_calls = 0;
  mutable int bound_calls = 0;

 private:
  const BinaryClassifier* inner_;
  bool bounds_;
};

TEST(ModelsTest, ScoreAndBoundsDefaultMakesTheSeparateCalls) {
  const auto m = TrainedModels::Make();
  const FileMeta& meta = m.corpus[3];
  const SimTimeUs now = m.now;
  const std::array<SimTimeUs, 3> ends = {now + 64 * kUsPerDay, now + 4 * kUsPerDay, now};
  std::array<ScoreRange, 3> bounds{};
  double score = -1.0;

  // A model that bounds its score: one Score, one ScoreBounds per window.
  const ForwardingModel bounding(&m.logistic, /*bounds=*/true);
  ASSERT_TRUE(bounding.ScoreAndBounds(meta, now, ends, &score, bounds, {}));
  EXPECT_EQ(bounding.score_calls, 1);
  EXPECT_EQ(bounding.bound_calls, 3);
  EXPECT_EQ(score, m.logistic.Score(meta, now));
  for (size_t k = 0; k < ends.size(); ++k) {
    double lo = -1.0;
    double hi = -1.0;
    ASSERT_TRUE(m.logistic.ScoreBounds(meta, now, ends[k], &lo, &hi));
    EXPECT_EQ(bounds[k].lo, lo);
    EXPECT_EQ(bounds[k].hi, hi);
  }

  // A model without bounds: the score, and "cannot bound" after one try.
  const ForwardingModel score_only(&m.logistic, /*bounds=*/false);
  EXPECT_FALSE(score_only.ScoreAndBounds(meta, now, ends, &score, bounds, {}));
  EXPECT_EQ(score_only.score_calls, 1);
  EXPECT_EQ(score_only.bound_calls, 1);
  EXPECT_EQ(score, m.logistic.Score(meta, now));
  for (const BinaryClassifier* model : {static_cast<const BinaryClassifier*>(&m.nb),
                                        static_cast<const BinaryClassifier*>(&m.rules)}) {
    EXPECT_FALSE(model->ScoreAndBounds(meta, now, ends, &score, bounds, {}));
    EXPECT_EQ(score, model->Score(meta, now));
  }
}

// Both ScoreAndBounds implementations bound ends in order and stop right
// after the end the stop test accepts: earlier bounds are the separate
// calls' values, later ones are never computed (sentinels survive).
TEST(ModelsTest, ScoreAndBoundsHonoursTheStopTest) {
  const auto m = TrainedModels::Make();
  const FileMeta& meta = m.corpus[5];
  const SimTimeUs now = m.now;
  const std::array<SimTimeUs, 4> ends = {now + 64 * kUsPerDay, now + 16 * kUsPerDay,
                                         now + 4 * kUsPerDay, now + kUsPerDay};
  const ScoreRange sentinel{-7.0, -7.0};
  const ForwardingModel bounding(&m.logistic, /*bounds=*/true);
  for (size_t stop_at = 0; stop_at <= ends.size(); ++stop_at) {  // ends.size(): never stops
    for (const BinaryClassifier* model : {static_cast<const BinaryClassifier*>(&m.logistic),
                                          static_cast<const BinaryClassifier*>(&bounding)}) {
      bounding.score_calls = 0;
      bounding.bound_calls = 0;
      std::array<ScoreRange, 4> bounds;
      bounds.fill(sentinel);
      size_t stop_calls = 0;
      const BinaryClassifier::BoundsStop stop = [&](size_t k, const ScoreRange& bound) {
        EXPECT_EQ(k, stop_calls);
        EXPECT_EQ(std::bit_cast<uint64_t>(bound.lo), std::bit_cast<uint64_t>(bounds[k].lo));
        ++stop_calls;
        return k == stop_at;
      };
      double score = -1.0;
      ASSERT_TRUE(model->ScoreAndBounds(meta, now, ends, &score, bounds, stop));
      const size_t bounded = std::min(stop_at + 1, ends.size());
      EXPECT_EQ(stop_calls, bounded) << "stop_at " << stop_at;
      if (model == &bounding) {
        EXPECT_EQ(bounding.score_calls, 1);
        EXPECT_EQ(bounding.bound_calls, static_cast<int>(bounded)) << "stop_at " << stop_at;
      }
      for (size_t k = 0; k < ends.size(); ++k) {
        double lo = sentinel.lo;
        double hi = sentinel.hi;
        if (k < bounded) {
          ASSERT_TRUE(m.logistic.ScoreBounds(meta, now, ends[k], &lo, &hi));
        }
        EXPECT_EQ(std::bit_cast<uint64_t>(bounds[k].lo), std::bit_cast<uint64_t>(lo))
            << "stop_at " << stop_at << " window " << k;
        EXPECT_EQ(std::bit_cast<uint64_t>(bounds[k].hi), std::bit_cast<uint64_t>(hi))
            << "stop_at " << stop_at << " window " << k;
      }
    }
  }
}

TEST(ModelsTest, BoostedStumpsCompetitive) {
  const auto m = TrainedModels::Make();
  const BoostedStumpsClassifier stumps =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  EXPECT_GT(stumps.num_stumps(), 10u);
  const double acc =
      EvaluateClassifier(stumps, m.split.test, &ExpendableLabel, m.now).accuracy();
  const double lr_acc =
      EvaluateClassifier(m.logistic, m.split.test, &ExpendableLabel, m.now).accuracy();
  // Within two points of the logistic model (usually ahead: it captures
  // threshold structure).
  EXPECT_GT(acc, lr_acc - 0.02);
  EXPECT_GT(acc, 0.75);
}

TEST(ModelsTest, BoostedStumpsScoresAreProbabilities) {
  const auto m = TrainedModels::Make();
  const BoostedStumpsClassifier stumps =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  for (size_t i = 0; i < m.split.test.size(); i += 13) {
    const double score = stumps.Score(*m.split.test[i], m.now);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0);
  }
}

TEST(ModelsTest, BoostedStumpsDeterministic) {
  const auto m = TrainedModels::Make();
  const BoostedStumpsClassifier a =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  const BoostedStumpsClassifier b =
      BoostedStumpsClassifier::Train(m.split.train, &ExpendableLabel, m.now);
  for (size_t i = 0; i < m.split.test.size(); i += 29) {
    EXPECT_DOUBLE_EQ(a.Score(*m.split.test[i], m.now), b.Score(*m.split.test[i], m.now));
  }
}

TEST(ModelsTest, BoostedStumpsEmptyCorpus) {
  const BoostedStumpsClassifier empty = BoostedStumpsClassifier::Train({}, &ExpendableLabel, 0);
  EXPECT_EQ(empty.num_stumps(), 0u);
  FileMeta meta;
  EXPECT_GE(empty.Score(meta, 0), 0.0);
}

TEST(ModelsTest, NaiveBayesFeatureIntrospection) {
  const auto m = TrainedModels::Make();
  Rng rng(6);
  const FileMeta photo = SynthesizeFile(FileType::kPhoto, kUsPerDay, 0.0, rng);
  const auto odds = m.nb.FeatureLogOdds(photo, m.now);
  // The photo one-hot must push toward expendable (positive log-odds).
  EXPECT_GT(odds[kNumericFeatures + static_cast<size_t>(FileType::kPhoto)], 0.0);
}

}  // namespace
}  // namespace sos
