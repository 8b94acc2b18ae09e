// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the extension modules: compression analysis (§5), the UFS LUN
// view (§4.3/[75]), user-preference biasing of the migration daemon (§4.4),
// and pseudo-SLC staging interplay with the rest of the stack.

#include <gtest/gtest.h>

#include "src/classify/corpus.h"
#include "src/classify/logistic.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/host/compression.h"
#include "src/media/quality.h"
#include "src/sos/daemons.h"
#include "src/sos/ufs.h"

namespace sos {
namespace {

// --- Compression (§5) --------------------------------------------------------

TEST(CompressionTest, LowEntropyCompressesWell) {
  FileMeta meta;
  meta.size_bytes = 1 << 20;
  meta.entropy_bits_per_byte = 4.0;  // text-like
  const CompressionEstimate est = EstimateFile(meta);
  EXPECT_GT(est.savings(), 0.4);
  EXPECT_LT(est.compressed_bytes, est.original_bytes);
}

TEST(CompressionTest, HighEntropyStoredRaw) {
  FileMeta meta;
  meta.size_bytes = 1 << 20;
  meta.entropy_bits_per_byte = 7.95;  // compressed media
  const CompressionEstimate est = EstimateFile(meta);
  EXPECT_DOUBLE_EQ(est.savings(), 0.0);
  EXPECT_EQ(est.compressed_bytes, est.original_bytes);
}

TEST(CompressionTest, EmptyFileIsNoOp) {
  FileMeta meta;
  meta.size_bytes = 0;
  EXPECT_DOUBLE_EQ(EstimateFile(meta).savings(), 0.0);
}

TEST(CompressionTest, PersonalCorpusSavesLittle) {
  // The §5 claim: media dominates personal bytes, so corpus-level savings
  // are small.
  const auto corpus = GenerateCorpus({.num_files = 8000, .seed = 9});
  const CorpusCompressionReport report = AnalyzeCorpus(corpus);
  EXPECT_LT(report.total.savings(), 0.15);
  // But the app-data slice individually compresses fine.
  const CompressionEstimate& appdata = report.by_type[static_cast<size_t>(FileType::kAppData)];
  EXPECT_GT(appdata.savings(), 0.2);
}

TEST(CompressionTest, MeasuredEntropyMatchesExpectations) {
  // Uniform random bytes -> ~8 bits/byte; constant bytes -> 0.
  Rng rng(3);
  std::vector<uint8_t> random(64 * kKiB);
  for (auto& b : random) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  EXPECT_GT(MeasuredEntropyBitsPerByte(random), 7.9);
  const std::vector<uint8_t> constant(4096, 0x55);
  EXPECT_DOUBLE_EQ(MeasuredEntropyBitsPerByte(constant), 0.0);
  EXPECT_DOUBLE_EQ(MeasuredEntropyBitsPerByte({}), 0.0);
  // The synthetic "photo" (gradient + noise) sits in between: structured
  // pixels, nontrivial but below media-codec entropy.
  const auto image = GenerateSyntheticImage(128, 128, 4);
  const double entropy = MeasuredEntropyBitsPerByte(image);
  EXPECT_GT(entropy, 3.0);
  EXPECT_LT(entropy, 8.0);
}

// --- UFS LUN view (§4.3, [75]) ------------------------------------------------

SosDeviceConfig UfsTestDevice() {
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.seed = 8;
  return config;
}

TEST(UfsViewTest, TwoLunsWithCorrectAttributes) {
  SimClock clock;
  SosDevice device(UfsTestDevice(), &clock);
  UfsView view(&device);
  const auto luns = view.Describe();
  ASSERT_EQ(luns.size(), 2u);
  EXPECT_TRUE(luns[0].high_reliability);
  EXPECT_FALSE(luns[0].dynamic_capacity);
  EXPECT_EQ(luns[0].backing_mode, CellTech::kQlc);
  EXPECT_FALSE(luns[1].high_reliability);
  EXPECT_TRUE(luns[1].dynamic_capacity);
  EXPECT_EQ(luns[1].backing_mode, CellTech::kPlc);
  EXPECT_GT(luns[0].capacity_bytes, 0u);
  EXPECT_GT(luns[1].capacity_bytes, luns[0].capacity_bytes);  // PLC is denser
  EXPECT_EQ(view.TotalBytes(), luns[0].capacity_bytes + luns[1].capacity_bytes);
}

TEST(UfsViewTest, AllocationTracksWrites) {
  SimClock clock;
  SosDevice device(UfsTestDevice(), &clock);
  UfsView view(&device);
  const auto before = view.Describe();
  const PlacementHandle degradable =
      device.OpenPlacement({Durability::kDegradable}).value();
  std::vector<uint8_t> page(512, 1);
  for (uint64_t lba = 0; lba < 10; ++lba) {
    ASSERT_TRUE(device.Write(lba, page, degradable).ok());
  }
  const auto after = view.Describe();
  EXPECT_EQ(before[1].allocated_bytes, 0u);
  EXPECT_EQ(after[1].allocated_bytes, 10u * 512u);
  EXPECT_EQ(after[0].allocated_bytes, 0u);
}

TEST(UfsViewTest, RenderMentionsBothLuns) {
  SimClock clock;
  SosDevice device(UfsTestDevice(), &clock);
  const std::string text = UfsView(&device).Render();
  EXPECT_NE(text.find("LUN 0"), std::string::npos);
  EXPECT_NE(text.find("LUN 1"), std::string::npos);
  EXPECT_NE(text.find("RELIABLE"), std::string::npos);
  EXPECT_NE(text.find("DYN-CAP"), std::string::npos);
}

// --- User preference bias (§4.4) ----------------------------------------------

TEST(PreferenceBiasTest, NegativeBiasProtectsAType) {
  SimClock clock;
  SosDevice device(UfsTestDevice(), &clock);
  ExtentFileSystem fs(&device, &clock);
  PlacementDirectory placements(&device);
  const auto corpus = GenerateCorpus({.num_files = 3000, .seed = 12});
  const LogisticClassifier model =
      LogisticClassifier::Train(AsPointers(corpus), &ExpendableLabel,
                                CorpusConfig{}.device_age_us);

  // A plain, zero-significance photo that the model would demote.
  Rng rng(4);
  FileMeta photo = SynthesizeFile(FileType::kPhoto, 0, 0.0, rng);
  photo.personal_signal = 0.0;
  photo.size_bytes = 512;
  auto id = fs.CreateFile(photo, std::vector<uint8_t>(512, 1),
                          placements.For({Durability::kCritical}).value());
  ASSERT_TRUE(id.ok());
  clock.Advance(7 * kUsPerDay);

  auto durability_of = [&](uint64_t file_id) {
    return device.DescribePlacement(fs.PlacementOf(file_id)).value().durability;
  };
  // Without bias: demoted.
  {
    MigrationDaemon daemon(&fs, &placements, &model, {});
    daemon.RunOnce(clock.now());
    EXPECT_EQ(durability_of(id.value()), Durability::kDegradable);
  }
  // User said "never risk photos": strong negative bias promotes it back
  // and prevents future demotion.
  {
    MigrationDaemonConfig config;
    config.type_score_bias[static_cast<size_t>(FileType::kPhoto)] = -1.0;
    MigrationDaemon daemon(&fs, &placements, &model, config);
    daemon.RunOnce(clock.now());
    EXPECT_EQ(durability_of(id.value()), Durability::kCritical);
    daemon.RunOnce(clock.now());
    EXPECT_EQ(durability_of(id.value()), Durability::kCritical);
  }
}

TEST(PreferenceBiasTest, PositiveBiasVolunteersAType) {
  SimClock clock;
  SosDevice device(UfsTestDevice(), &clock);
  ExtentFileSystem fs(&device, &clock);
  PlacementDirectory placements(&device);
  const auto corpus = GenerateCorpus({.num_files = 3000, .seed = 13});
  const LogisticClassifier model =
      LogisticClassifier::Train(AsPointers(corpus), &ExpendableLabel,
                                CorpusConfig{}.device_age_us);
  // A document the model keeps in SYS by default.
  Rng rng(5);
  FileMeta doc = SynthesizeFile(FileType::kDocument, 0, 0.0, rng);
  doc.size_bytes = 512;
  auto id = fs.CreateFile(doc, std::vector<uint8_t>(512, 2),
                          placements.For({Durability::kCritical}).value());
  ASSERT_TRUE(id.ok());
  clock.Advance(7 * kUsPerDay);

  MigrationDaemonConfig config;
  config.type_score_bias[static_cast<size_t>(FileType::kDocument)] = 1.0;
  MigrationDaemon daemon(&fs, &placements, &model, config);
  daemon.RunOnce(clock.now());
  EXPECT_EQ(device.DescribePlacement(fs.PlacementOf(id.value())).value().durability,
            Durability::kDegradable);
}

}  // namespace
}  // namespace sos
