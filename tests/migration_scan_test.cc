// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Differential test of the incremental migration scan. Two identical
// FS + SosDevice stacks replay one multi-year mobile workload. One daemon
// holds the LogisticClassifier itself, so it may skip files whose score
// provably stays on the no-action side; the other holds a wrapper that
// forwards only Score, so it scores every file on every pass -- the full-scan
// reference. Every pass must produce equal RunStats, and every file must end
// with equal durability.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/classify/corpus.h"
#include "src/classify/logistic.h"
#include "src/common/rng.h"
#include "src/host/workload.h"
#include "src/sos/daemons.h"
#include "src/sos/lifetime_sim.h"

namespace sos {
namespace {

// Forwards only Score: ScoreBounds keeps the base class's "cannot bound".
class ScoreOnly final : public BinaryClassifier {
 public:
  explicit ScoreOnly(const BinaryClassifier* inner) : inner_(inner) {}
  double Score(const FileMeta& meta, SimTimeUs now_us) const override {
    return inner_->Score(meta, now_us);
  }

 private:
  const BinaryClassifier* inner_;
};

// One host + device stack driven by workload events.
struct Stack {
  Stack(const LifetimeSimConfig& config, const BinaryClassifier* model)
      : device(DeviceConfig(config), &clock),
        placements(&device),
        fs(&device, &clock),
        daemon(&fs, &placements, model, config.migration),
        file_size_cap(config.file_size_cap) {}

  static SosDeviceConfig DeviceConfig(const LifetimeSimConfig& config) {
    SosDeviceConfig device_config = config.sos;
    device_config.nand = config.nand;
    return device_config;
  }

  // Applies one event; returns whether a create succeeded (other ops: true).
  bool Apply(const WorkloadEvent& event) {
    if (event.at > clock.now()) {
      clock.AdvanceTo(event.at);
    }
    switch (event.op) {
      case WorkloadOp::kCreate: {
        FileMeta meta = event.meta;
        meta.size_bytes = std::min(meta.size_bytes, file_size_cap);
        const auto handle =
            placements.For(PlacementSpec(Durability::kCritical, LifetimeHintFor(meta)));
        if (!handle.ok()) {
          return false;
        }
        const auto created = fs.CreateFile(meta, {}, handle.value());
        if (!created.ok()) {
          return false;
        }
        ref_to_id[event.file_ref] = created.value();
        return true;
      }
      case WorkloadOp::kRead:
        if (auto it = ref_to_id.find(event.file_ref); it != ref_to_id.end()) {
          IgnoreResult(fs.ReadFile(it->second));  // degraded reads are expected
        }
        return true;
      case WorkloadOp::kUpdate:
        if (auto it = ref_to_id.find(event.file_ref); it != ref_to_id.end()) {
          IgnoreResult(fs.OverwriteFile(it->second, {}));
        }
        return true;
      case WorkloadOp::kDelete:
        if (auto it = ref_to_id.find(event.file_ref); it != ref_to_id.end()) {
          IgnoreResult(fs.DeleteFile(it->second));
          ref_to_id.erase(it);
        }
        return true;
    }
    return true;
  }

  std::vector<std::pair<uint64_t, Durability>> Durabilities() const {
    std::vector<std::pair<uint64_t, Durability>> out;
    fs.ForEachFile([&](const ExtentFileSystem::FileView& file) {
      ASSERT_TRUE(file.durability.has_value());
      out.emplace_back(file.meta.file_id, *file.durability);
    });
    return out;
  }

  SimClock clock;
  SosDevice device;
  PlacementDirectory placements;
  ExtentFileSystem fs;
  MigrationDaemon daemon;
  uint64_t file_size_cap;
  // Lookup/erase only, never iterated.
  std::unordered_map<uint64_t, uint64_t> ref_to_id;
};

void ExpectSameStats(const MigrationDaemon::RunStats& incremental,
                     const MigrationDaemon::RunStats& reference, uint32_t day) {
  EXPECT_EQ(incremental.scanned, reference.scanned) << "day " << day;
  EXPECT_EQ(incremental.demoted, reference.demoted) << "day " << day;
  EXPECT_EQ(incremental.promoted, reference.promoted) << "day " << day;
  EXPECT_EQ(incremental.demote_failures, reference.demote_failures) << "day " << day;
}

class MigrationScanTest : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(MigrationScanTest, IncrementalScanMatchesFullScan) {
  const auto [seed, allow_promotion] = GetParam();
  constexpr uint32_t kDays = 2 * 365;
  constexpr uint32_t kRetrainDay = 400;

  LifetimeSimConfig config;
  config.seed = seed;
  config.file_size_cap = 32 * kKiB;
  config.migration.allow_promotion = allow_promotion;
  config.migration.type_score_bias[static_cast<size_t>(FileType::kPhoto)] = -0.15;
  config.migration.type_score_bias[static_cast<size_t>(FileType::kDownload)] = 0.2;
  config.migration.type_score_bias[static_cast<size_t>(FileType::kCache)] = 0.1;
  config.workload.photos_per_day = 1.0;
  config.workload.cache_files_per_day = 6.0;
  config.workload.deletes_per_day = 5.0;
  config.workload.app_updates_per_day = 50.0;
  config.workload.reads_per_day = 60.0;
  config.workload.seed = DeriveSeed({seed, 0x776cull});

  CorpusConfig corpus_config;
  corpus_config.num_files = 3000;
  corpus_config.seed = DeriveSeed({seed, 0x747261696eull});
  const std::vector<FileMeta> corpus = GenerateCorpus(corpus_config);
  LogisticClassifier model = LogisticClassifier::Train(AsPointers(corpus), &ExpendableLabel,
                                                       corpus_config.device_age_us);
  const ScoreOnly full_scan(&model);

  Stack incremental(config, &model);
  Stack reference(config, &full_scan);
  MobileWorkloadGenerator workload(config.workload);
  MigrationDaemon::RunStats totals;
  for (uint32_t day = 0; day < kDays; ++day) {
    const SimTimeUs day_start = static_cast<SimTimeUs>(day) * kUsPerDay;
    for (Stack* stack : {&incremental, &reference}) {
      if (day_start > stack->clock.now()) {
        stack->clock.AdvanceTo(day_start);
      }
    }
    for (const WorkloadEvent& event : workload.Day(day)) {
      const bool created = incremental.Apply(event);
      ASSERT_EQ(reference.Apply(event), created) << "day " << day;
      if (!created) {
        workload.DropRef(event.file_ref);
      }
    }
    if (day == kRetrainDay) {
      // In-place refit on the live population, as LifetimeSim's periodic
      // retraining does; both daemons see the new parameters.
      model = LogisticClassifier::Train(incremental.fs.ScanFiles(), &ExpendableLabel,
                                        incremental.clock.now());
      incremental.daemon.InvalidateVerdicts();
    }
    const auto got = incremental.daemon.RunOnce(incremental.clock.now());
    const auto want = reference.daemon.RunOnce(reference.clock.now());
    ExpectSameStats(got, want, day);
    if (::testing::Test::HasFailure()) {
      return;  // one divergence cascades; report only the first
    }
    totals.demoted += want.demoted;
    totals.promoted += want.promoted;
  }
  EXPECT_EQ(incremental.Durabilities(), reference.Durabilities());
  // The workload must exercise the verdicts it checks.
  EXPECT_GT(totals.demoted, 0u);
  if (allow_promotion) {
    EXPECT_GT(totals.promoted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MigrationScanTest,
    ::testing::Combine(::testing::Values(uint64_t{7}, uint64_t{11}, uint64_t{301}),
                       ::testing::Bool()));

// A quiet window is judged under one durability. A host that closes a
// handle and reopens its slot with another spec between passes changes a
// file's durability without changing its handle id; the daemon must rescore.
TEST(MigrationQuietWindowTest, SlotReopenedWithAnotherSpecIsRescored) {
  LifetimeSimConfig config;
  // Every document scores 0: never demoted, always promoted when degradable.
  config.migration.type_score_bias[static_cast<size_t>(FileType::kDocument)] = -1.0;
  CorpusConfig corpus_config;
  corpus_config.num_files = 500;
  const std::vector<FileMeta> corpus = GenerateCorpus(corpus_config);
  const LogisticClassifier model = LogisticClassifier::Train(
      AsPointers(corpus), &ExpendableLabel, corpus_config.device_age_us);
  Stack stack(config, &model);
  const PlacementHandle handle = stack.device.OpenPlacement({Durability::kCritical}).value();
  FileMeta meta;
  meta.path = "/sdcard/documents/report.pdf";
  meta.type = FileType::kDocument;
  meta.size_bytes = 4 * kKiB;
  ASSERT_TRUE(stack.fs.CreateFile(meta, {}, handle).ok());

  stack.clock.AdvanceTo(kUsPerDay);
  EXPECT_EQ(stack.daemon.RunOnce(stack.clock.now()).promoted, 0u);
  ASSERT_TRUE(stack.device.ClosePlacement(handle).ok());
  ASSERT_EQ(stack.device.OpenPlacement({Durability::kDegradable}).value(), handle);
  stack.clock.AdvanceTo(2 * kUsPerDay);
  EXPECT_EQ(stack.daemon.RunOnce(stack.clock.now()).promoted, 1u);
}

}  // namespace
}  // namespace sos
