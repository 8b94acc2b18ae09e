// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the SOS core: device partitioning, the three daemons, and the
// lifetime simulation driver.

#include <gtest/gtest.h>

#include "src/classify/corpus.h"
#include "src/classify/logistic.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/sos/daemons.h"
#include "src/sos/health.h"
#include "src/sos/lifetime_sim.h"
#include "src/sos/sos_device.h"

namespace sos {
namespace {

SosDeviceConfig SmallSos(bool payloads = true) {
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.tech = CellTech::kPlc;
  config.nand.seed = 21;
  config.nand.store_payloads = payloads;
  return config;
}

std::vector<uint8_t> Block(uint8_t fill) { return std::vector<uint8_t>(512, fill); }

// Opens a handle of the given durability directly on the device.
PlacementHandle OpenHandle(BlockDevice& device, Durability durability) {
  PlacementSpec spec;
  spec.durability = durability;
  auto handle = device.OpenPlacement(spec);
  EXPECT_TRUE(handle.ok());
  return handle.value();
}

// --- SosDevice -------------------------------------------------------------

TEST(SosDeviceTest, PoolLayout) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PoolSnapshot sys = device.SysSnapshot();
  const PoolSnapshot spare = device.SpareSnapshot();
  const PoolSnapshot rescue = device.RescueSnapshot();
  EXPECT_EQ(sys.mode, CellTech::kQlc);     // pseudo-QLC
  EXPECT_EQ(spare.mode, CellTech::kPlc);   // native PLC
  EXPECT_EQ(rescue.mode, CellTech::kTlc);  // resuscitation target
  EXPECT_EQ(sys.total_blocks, 16u);
  EXPECT_GE(spare.total_blocks, 16u);
  EXPECT_EQ(rescue.total_blocks, 0u);  // populated only by retirement
  // SYS loses capacity to parity; SPARE is denser per block.
  EXPECT_GT(spare.exported_pages, sys.exported_pages);
}

TEST(SosDeviceTest, DirectiveRoutesWrites) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  ASSERT_TRUE(device.Write(1, Block(1), critical).ok());
  ASSERT_TRUE(device.Write(2, Block(2), degradable).ok());
  EXPECT_EQ(device.ftl().PoolOf(1), device.sys_pool());
  EXPECT_EQ(device.ftl().PoolOf(2), device.spare_pool());
}

TEST(SosDeviceTest, SysReadsAreReliable) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  ASSERT_TRUE(device.Write(1, Block(0x5A), OpenHandle(device, Durability::kCritical)).ok());
  clock.Advance(YearsToUs(1.0));
  auto read = device.Read(1);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().degraded);
  EXPECT_EQ(read.value().data, Block(0x5A));
}

TEST(SosDeviceTest, ReclassifyMovesData) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  ASSERT_TRUE(device.Write(1, Block(7), critical).ok());
  ASSERT_TRUE(device.Reclassify(1, degradable).ok());
  EXPECT_EQ(device.ftl().PoolOf(1), device.spare_pool());
  ASSERT_TRUE(device.Reclassify(1, critical).ok());
  EXPECT_EQ(device.ftl().PoolOf(1), device.sys_pool());
  EXPECT_EQ(device.Reclassify(42, critical).code(), StatusCode::kNotFound);
}

TEST(SosDeviceTest, FreeFractionFallsWithWrites) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const double before = device.FreeFraction();
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  for (uint64_t lba = 0; lba < 50; ++lba) {
    ASSERT_TRUE(device.Write(lba, Block(1), critical).ok());
  }
  EXPECT_LT(device.FreeFraction(), before);
}

TEST(SosDeviceTest, BaselineDeviceBasics) {
  SimClock clock;
  NandConfig nand = SmallSos().nand;
  nand.tech = CellTech::kTlc;
  BaselineDevice device(nand, &clock, EccPreset::kBch, GcPolicy::kGreedy);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  ASSERT_TRUE(device.Write(1, Block(3), degradable).ok());  // spec inert
  auto read = device.Read(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, Block(3));
  EXPECT_TRUE(device.Reclassify(1, OpenHandle(device, Durability::kCritical)).ok());
  EXPECT_GT(device.capacity_blocks(), 0u);
}

TEST(SosDeviceTest, SplitCapacityBeatsTlcBaseline) {
  // E6 in miniature: same die, SOS split exports more bytes than the die
  // would as TLC. (The SOS die *is* PLC; a TLC die of the same cell count
  // exports 3/5 of the PLC page count.)
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const uint64_t sos_pages = device.ftl().ExportedPages();

  NandConfig tlc = SmallSos().nand;
  tlc.tech = CellTech::kTlc;
  SimClock clock2;
  BaselineDevice baseline(tlc, &clock2, EccPreset::kBch, GcPolicy::kGreedy);
  const uint64_t tlc_pages = baseline.ftl().ExportedPages();
  EXPECT_GT(static_cast<double>(sos_pages), static_cast<double>(tlc_pages) * 1.2);
}

TEST(SosDeviceTest, SlcStagingAbsorbsWritesAndFlushes) {
  SimClock clock;
  SosDeviceConfig config = SmallSos();
  config.nand.num_blocks = 64;
  config.enable_slc_staging = true;
  config.stage_share = 0.125;  // 8 of 64 blocks
  SosDevice device(config, &clock);
  ASSERT_TRUE(device.staging_enabled());
  EXPECT_EQ(device.StageSnapshot().mode, CellTech::kSlc);

  // A small burst lands entirely in the stage.
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  for (uint64_t lba = 0; lba < 8; ++lba) {
    ASSERT_TRUE(device.Write(lba, Block(static_cast<uint8_t>(lba)), critical).ok());
  }
  EXPECT_EQ(device.StageSnapshot().valid_pages, 8u);
  EXPECT_EQ(device.SysSnapshot().valid_pages, 0u);

  // Flushing moves it to pseudo-QLC; data survives.
  const auto flushed = device.FlushStage();
  ASSERT_TRUE(flushed.ok());
  EXPECT_GT(flushed.value(), 0u);
  EXPECT_GT(device.SysSnapshot().valid_pages, 0u);
  for (uint64_t lba = 0; lba < 8; ++lba) {
    auto read = device.Read(lba);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, Block(static_cast<uint8_t>(lba)));
  }
}

TEST(SosDeviceTest, StagingHighWaterTriggersAutoFlush) {
  SimClock clock;
  SosDeviceConfig config = SmallSos();
  config.nand.num_blocks = 64;
  config.nand.store_payloads = false;
  config.enable_slc_staging = true;
  config.stage_share = 0.125;
  SosDevice device(config, &clock);
  const uint64_t stage_capacity = device.StageSnapshot().exported_pages;
  ASSERT_GT(stage_capacity, 0u);
  // Write enough SYS data to cross the high-water mark several times over.
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  for (uint64_t lba = 0; lba < stage_capacity * 3; ++lba) {
    ASSERT_TRUE(device.Write(lba, {}, critical).ok()) << "lba " << lba;
  }
  // The stage never overflows: auto-flush kept it at or below high water
  // (modulo the burst between checks), and SYS received the flushed data.
  EXPECT_GT(device.SysSnapshot().valid_pages, 0u);
  EXPECT_GT(device.ftl().stats().migrations(), 0u);
  EXPECT_TRUE(device.ftl().CheckInvariants().ok());
}

TEST(SosDeviceTest, StagingSpeedsUpSysWrites) {
  // The point of the stage: SLC program latency instead of pseudo-QLC.
  auto mean_write_latency = [](bool staging) {
    SimClock clock;
    SosDeviceConfig config = SmallSos();
    config.nand.num_blocks = 64;
    config.nand.wordlines_per_block = 16;  // SLC pages are scarce (1 bit/cell)
    config.nand.store_payloads = false;
    config.enable_slc_staging = staging;
    config.stage_share = 0.125;
    SosDevice device(config, &clock);
    const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
    const SimTimeUs start = clock.now();
    const int writes = 20;  // fits under the flush high-water mark
    for (uint64_t lba = 0; lba < writes; ++lba) {
      EXPECT_TRUE(device.Write(lba, {}, critical).ok());
    }
    return static_cast<double>(clock.now() - start) / writes;
  };
  EXPECT_LT(mean_write_latency(true), mean_write_latency(false) / 5.0);
}

TEST(HealthTest, ReportReflectsDeviceState) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  const uint64_t initial = device.capacity_blocks();
  const PlacementHandle critical = OpenHandle(device, Durability::kCritical);
  const PlacementHandle degradable = OpenHandle(device, Durability::kDegradable);
  for (uint64_t lba = 0; lba < 30; ++lba) {
    ASSERT_TRUE(device.Write(lba, Block(1), lba % 2 == 0 ? critical : degradable).ok());
  }
  clock.Advance(YearsToUs(1.0));
  const DeviceHealthReport report = CollectHealth(device, 1.0, initial);
  ASSERT_EQ(report.pools.size(), 3u);  // SYS, SPARE, RESCUE (no stage)
  uint64_t valid_total = 0;
  for (const PoolHealth& pool : report.pools) {
    valid_total += pool.valid_pages;
    EXPECT_GE(pool.worst_predicted_rber, 0.0);
    EXPECT_LE(pool.est_media_quality, 1.0);
  }
  EXPECT_EQ(valid_total, 30u);
  EXPECT_DOUBLE_EQ(report.capacity_retained, 1.0);
  const std::string rendered = RenderHealth(report);
  EXPECT_NE(rendered.find("SYS"), std::string::npos);
  EXPECT_NE(rendered.find("SPARE"), std::string::npos);
  EXPECT_NE(rendered.find("capacity retained"), std::string::npos);
}

TEST(HealthTest, TaintCensusCounts) {
  SimClock clock;
  SosDevice device(SmallSos(), &clock);
  ASSERT_TRUE(device.Write(1, Block(1), OpenHandle(device, Durability::kDegradable)).ok());
  clock.Advance(YearsToUs(10.0));  // heavy degradation on ECC-less PLC
  ASSERT_TRUE(device.ftl().Refresh(1).ok());  // bakes in corruption -> taint
  const DeviceHealthReport report = CollectHealth(device, 10.0, 0);
  uint64_t tainted = 0;
  for (const PoolHealth& pool : report.pools) {
    tainted += pool.tainted_pages;
  }
  EXPECT_EQ(tainted, 1u);
}

// --- Daemons ---------------------------------------------------------------

struct DaemonFixture {
  SimClock clock;
  SosDevice device;
  ExtentFileSystem fs;
  PlacementDirectory placements;
  PlacementHandle critical;
  PlacementHandle degradable;
  std::vector<FileMeta> corpus;
  LogisticClassifier priority;
  LogisticClassifier deletion;

  explicit DaemonFixture(SosDeviceConfig config = SmallSos())
      : device(config, &clock),
        fs(&device, &clock),
        placements(&device),
        critical(placements.For({Durability::kCritical}).value()),
        degradable(placements.For({Durability::kDegradable}).value()),
        corpus(GenerateCorpus({.num_files = 4000, .seed = 99})),
        priority(LogisticClassifier::Train(AsPointers(corpus), &ExpendableLabel,
                                           CorpusConfig{}.device_age_us)),
        deletion(LogisticClassifier::Train(AsPointers(corpus), &DeletionLabel,
                                           CorpusConfig{}.device_age_us)) {}

  // Creates a file from the corpus sample `i`, scaled to a small size.
  uint64_t AddFile(size_t i, uint64_t size = kKiB) {
    FileMeta meta = corpus[i];
    meta.size_bytes = size;
    auto id = fs.CreateFile(meta, std::vector<uint8_t>(size, static_cast<uint8_t>(i)),
                            critical);
    EXPECT_TRUE(id.ok());
    return id.value();
  }

  // The file's declared durability, for placement assertions.
  Durability DurabilityOf(uint64_t id) {
    auto spec = device.DescribePlacement(fs.PlacementOf(id));
    EXPECT_TRUE(spec.ok());
    return spec.value().durability;
  }
};

TEST(MigrationDaemonTest, DemotesExpendableKeepsCritical) {
  DaemonFixture f;
  // Add a precious photo and a junk cache file, both in SYS.
  FileMeta precious;
  precious.type = FileType::kPhoto;
  precious.path = "dcim/camera/wedding.jpg";
  precious.size_bytes = kKiB;
  precious.personal_signal = 0.99;
  FileMeta junk;
  junk.type = FileType::kCache;
  junk.path = "data/cache/app1.tmp";
  junk.size_bytes = kKiB;
  auto precious_id = f.fs.CreateFile(precious, Block(1), f.critical);
  auto junk_id = f.fs.CreateFile(junk, Block(2), f.critical);
  ASSERT_TRUE(precious_id.ok());
  ASSERT_TRUE(junk_id.ok());

  f.clock.Advance(7 * kUsPerDay);  // past min demotion age
  MigrationDaemon daemon(&f.fs, &f.placements, &f.priority, {});
  const auto stats = daemon.RunOnce(f.clock.now());
  EXPECT_EQ(stats.scanned, 2u);
  EXPECT_EQ(f.DurabilityOf(junk_id.value()), Durability::kDegradable);
  EXPECT_EQ(f.DurabilityOf(precious_id.value()), Durability::kCritical);
}

TEST(MigrationDaemonTest, RespectsMinAge) {
  DaemonFixture f;
  FileMeta junk;
  junk.type = FileType::kCache;
  junk.path = "data/cache/fresh.tmp";
  junk.size_bytes = 512;
  junk.created_us = f.clock.now();
  auto id = f.fs.CreateFile(junk, Block(1), f.critical);
  ASSERT_TRUE(id.ok());
  MigrationDaemon daemon(&f.fs, &f.placements, &f.priority, {});
  daemon.RunOnce(f.clock.now());  // file is 0 days old
  EXPECT_EQ(f.DurabilityOf(id.value()), Durability::kCritical);
}

TEST(MigrationDaemonTest, HigherThresholdDemotesLess) {
  auto demoted_at = [](double threshold) {
    DaemonFixture f;
    for (size_t i = 0; i < 60; ++i) {
      f.AddFile(i, 512);
    }
    f.clock.Advance(7 * kUsPerDay);
    MigrationDaemonConfig config;
    config.demote_threshold = threshold;
    MigrationDaemon daemon(&f.fs, &f.placements, &f.priority, config);
    return daemon.RunOnce(f.clock.now()).demoted;
  };
  EXPECT_GE(demoted_at(0.5), demoted_at(0.9));
}

TEST(AutoDeleteTest, InactiveWhenSpaceAvailable) {
  DaemonFixture f;
  f.AddFile(0);
  AutoDeleteManager manager(&f.fs, &f.deletion, {});
  const auto stats = manager.RunOnce(f.clock.now());
  EXPECT_EQ(stats.activations, 0u);
  EXPECT_EQ(stats.files_deleted, 0u);
}

TEST(AutoDeleteTest, FreesSpaceUnderPressure) {
  DaemonFixture f;
  // Fill the FS almost to capacity with SPARE-placed cache junk.
  std::vector<uint64_t> ids;
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    FileMeta junk = SynthesizeFile(FileType::kCache, f.clock.now(), 0.0, rng);
    junk.size_bytes = 2048;
    auto id = f.fs.CreateFile(junk, {}, f.degradable);
    if (!id.ok()) {
      break;
    }
    ids.push_back(id.value());
  }
  ASSERT_GT(ids.size(), 10u);
  AutoDeleteConfig config;
  config.low_water_free = 0.03;
  config.high_water_free = 0.10;
  AutoDeleteManager manager(&f.fs, &f.deletion, config);
  const auto stats = manager.RunOnce(f.clock.now());
  EXPECT_EQ(stats.activations, 1u);
  EXPECT_GT(stats.files_deleted, 0u);
  const FsStats fs_stats = f.fs.Stats();
  const double free_fraction =
      static_cast<double>(fs_stats.capacity_blocks - fs_stats.used_blocks) /
      static_cast<double>(fs_stats.capacity_blocks);
  EXPECT_GE(free_fraction, 0.10);
}

TEST(AutoDeleteTest, NeverDeletesSysFiles) {
  DaemonFixture f;
  // Fill with SYS files only: auto-delete has no candidates.
  int created = 0;
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    FileMeta meta = SynthesizeFile(FileType::kDocument, f.clock.now(), 0.0, rng);
    meta.size_bytes = 2048;
    if (!f.fs.CreateFile(meta, {}, f.critical).ok()) {
      break;
    }
    ++created;
  }
  AutoDeleteManager manager(&f.fs, &f.deletion, {});
  const auto stats = manager.RunOnce(f.clock.now());
  EXPECT_EQ(stats.files_deleted, 0u);
  EXPECT_EQ(f.fs.Stats().files, static_cast<uint64_t>(created));
}

TEST(DegradationMonitorTest, RefreshesAgedSparePages) {
  DaemonFixture f;
  FileMeta media;
  media.type = FileType::kVideo;
  media.path = "dcim/camera/old.mp4";
  media.size_bytes = 4096;
  auto id = f.fs.CreateFile(media, std::vector<uint8_t>(4096, 0xEE), f.critical);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(f.fs.ReclassifyFile(id.value(), f.degradable).ok());
  f.clock.Advance(YearsToUs(2.5));  // deep retention on ECC-less PLC
  DegradationMonitorConfig config;
  config.cloud_repair = false;
  DegradationMonitor monitor(&f.fs, &f.device, config);
  const auto stats = monitor.RunOnce(f.clock.now());
  EXPECT_GT(stats.pages_scanned, 0u);
  EXPECT_GT(stats.pages_refreshed, 0u);
  // Refreshed pages predict lower RBER now.
  for (uint64_t lba : f.device.ftl().LbasInPool(f.device.spare_pool())) {
    EXPECT_LT(f.device.ftl().PredictLbaRber(lba, 0.0).value(),
              f.device.config().spare_retire_rber);
  }
}

TEST(DegradationMonitorTest, CloudRepairRestoresContent) {
  DaemonFixture f;
  InMemoryCloud cloud;
  const std::vector<uint8_t> pristine(4096, 0xAB);
  FileMeta media;
  media.type = FileType::kPhoto;
  media.path = "dcim/camera/p.jpg";
  media.size_bytes = pristine.size();
  auto id = f.fs.CreateFile(media, pristine, f.critical);
  ASSERT_TRUE(id.ok());
  cloud.Store(id.value(), pristine);
  ASSERT_TRUE(f.fs.ReclassifyFile(id.value(), f.degradable).ok());
  f.clock.Advance(YearsToUs(2.5));

  DegradationMonitor monitor(&f.fs, &f.device, {}, &cloud);
  const auto stats = monitor.RunOnce(f.clock.now());
  EXPECT_GE(stats.files_repaired, 1u);
  // The stored copy is pristine again; the read itself may pick up a fresh
  // flip or two on the ECC-less pool, but the multi-year corruption is gone.
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  uint64_t diff_bits = 0;
  const std::vector<uint8_t>& got = read.value().data;
  ASSERT_EQ(got.size(), pristine.size());
  for (size_t i = 0; i < got.size(); ++i) {
    diff_bits += static_cast<uint64_t>(__builtin_popcount(
        static_cast<unsigned>(got[i] ^ pristine[i])));
  }
  EXPECT_LT(diff_bits, 16u);
}

// --- Lifetime simulation ---------------------------------------------------

LifetimeSimConfig QuickSim(DeviceKind kind, uint32_t days = 120) {
  LifetimeSimConfig config;
  config.kind = kind;
  config.days = days;
  config.seed = 5;
  config.nand.num_blocks = 128;
  config.training_files = 2000;
  // Keep the test fast and the device ~half full at the end (a 3-year phone
  // is typically not at capacity).
  config.workload.photos_per_day = 3.0;
  config.workload.reads_per_day = 40.0;
  config.workload.cache_files_per_day = 8.0;
  // Enough in-place churn that GC cycles blocks and wear becomes visible.
  config.workload.app_updates_per_day = 80.0;
  config.file_size_cap = 32 * kKiB;
  config.sample_period_days = 30;
  return config;
}

TEST(LifetimeSimTest, SosRunsAndWears) {
  LifetimeSim sim(QuickSim(DeviceKind::kSos));
  const LifetimeResult result = sim.Run();
  EXPECT_GT(result.host_bytes_written(), 0u);
  EXPECT_GT(result.final_max_wear_ratio(), 0.0);
  EXPECT_GT(result.files_alive(), 0u);
  EXPECT_GT(result.migration().demoted, 0u);  // the daemon did its job
  EXPECT_FALSE(result.samples().empty());
  EXPECT_EQ(result.create_failures(), 0u);
  EXPECT_GT(result.final_spare_quality(), 0.8);
  EXPECT_GT(result.projected_lifetime_years(), 1.0);
}

TEST(LifetimeSimTest, BaselinesRun) {
  for (DeviceKind kind :
       {DeviceKind::kTlcBaseline, DeviceKind::kQlcBaseline, DeviceKind::kPlcNaive}) {
    LifetimeSim sim(QuickSim(kind, 60));
    const LifetimeResult result = sim.Run();
    EXPECT_GT(result.host_bytes_written(), 0u) << DeviceKindName(kind);
    EXPECT_EQ(result.final_spare_quality(), 1.0) << "baselines have no SPARE";
    EXPECT_EQ(result.migration().demoted, 0u);
  }
}

TEST(LifetimeSimTest, DeterministicForSeed) {
  auto run = [] {
    LifetimeSim sim(QuickSim(DeviceKind::kSos, 60));
    return sim.Run();
  };
  const LifetimeResult a = run();
  const LifetimeResult b = run();
  EXPECT_EQ(a.host_bytes_written(), b.host_bytes_written());
  EXPECT_EQ(a.ftl().nand_writes(), b.ftl().nand_writes());
  EXPECT_EQ(a.final_max_wear_ratio(), b.final_max_wear_ratio());
  EXPECT_EQ(a.migration().demoted, b.migration().demoted);
}

TEST(LifetimeSimTest, SamplesAreOrderedAndMonotoneInWear) {
  LifetimeSim sim(QuickSim(DeviceKind::kSos));
  const LifetimeResult result = sim.Run();
  ASSERT_GE(result.samples().size(), 2u);
  for (size_t i = 1; i < result.samples().size(); ++i) {
    EXPECT_GT(result.samples()[i].day, result.samples()[i - 1].day);
    EXPECT_GE(result.samples()[i].mean_pec, result.samples()[i - 1].mean_pec);
  }
}

#if GTEST_HAS_DEATH_TEST && !defined(NDEBUG)
// Run() hands its trace to the result, so it is once per instance; a second
// call is API misuse and aborts, like FlagSet's declaration-time misuse
// (flagset_test's death tests), instead of returning an empty trace.
TEST(LifetimeSimDeathTest, SecondRunAborts) {
  LifetimeSim sim(QuickSim(DeviceKind::kSos, 2));
  [[maybe_unused]] const LifetimeResult first = sim.Run();
  EXPECT_DEATH({ [[maybe_unused]] const LifetimeResult second = sim.Run(); },
               "once per instance");
}
#endif

TEST(LifetimeSimTest, PeriodicRetrainingRuns) {
  LifetimeSimConfig config = QuickSim(DeviceKind::kSos, 120);
  config.retrain_period_days = 30;
  LifetimeSim sim(config);
  const LifetimeResult result = sim.Run();
  EXPECT_GE(result.retrainings(), 2u);
  // The retrained models keep the pipeline functional.
  EXPECT_GT(result.migration().demoted, 0u);
  EXPECT_EQ(result.create_failures(), 0u);
}

TEST(LifetimeSimTest, NameCoverage) {
  EXPECT_STRNE(DeviceKindName(DeviceKind::kSos), "???");
  EXPECT_STRNE(DeviceKindName(DeviceKind::kTlcBaseline), "???");
  EXPECT_STRNE(DeviceKindName(DeviceKind::kQlcBaseline), "???");
  EXPECT_STRNE(DeviceKindName(DeviceKind::kPlcNaive), "???");
}

}  // namespace
}  // namespace sos
