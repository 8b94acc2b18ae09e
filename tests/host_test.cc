// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Tests for the host layer: extent file system over a real SosDevice, and
// the mobile workload generator + trace format.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/flash/fault_hook.h"
#include "src/host/file_system.h"
#include "src/host/workload.h"
#include "src/sos/sos_device.h"

namespace sos {
namespace {

SosDeviceConfig SmallDevice() {
  SosDeviceConfig config;
  config.nand.num_blocks = 32;
  config.nand.wordlines_per_block = 4;
  config.nand.page_size_bytes = 512;
  config.nand.tech = CellTech::kPlc;
  config.nand.seed = 3;
  config.nand.store_payloads = true;
  // FS-mechanics tests want deterministic clean reads; the paper-default
  // ECC-less SPARE pool flips the odd fresh bit, so use weak BCH here.
  config.spare_ecc = EccPreset::kWeakBch;
  return config;
}

std::vector<uint8_t> Content(size_t n, uint8_t seed) {
  std::vector<uint8_t> data(n);
  for (size_t i = 0; i < n; ++i) {
    data[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return data;
}

FileMeta PhotoMeta(uint64_t size) {
  FileMeta meta;
  meta.type = FileType::kPhoto;
  meta.path = "dcim/camera/img_1.jpg";
  meta.size_bytes = size;
  return meta;
}

struct FsFixture {
  SimClock clock;
  SosDevice device;
  ExtentFileSystem fs;
  PlacementDirectory placements;
  PlacementHandle critical;
  PlacementHandle degradable;

  FsFixture()
      : device(SmallDevice(), &clock),
        fs(&device, &clock),
        placements(&device),
        critical(placements.For({Durability::kCritical}).value()),
        degradable(placements.For({Durability::kDegradable}).value()) {}
};

// --- File system -----------------------------------------------------------

TEST(FileSystemTest, CreateReadRoundtrip) {
  FsFixture f;
  const auto content = Content(1500, 1);
  auto id = f.fs.CreateFile(PhotoMeta(1500), content, f.critical);
  ASSERT_TRUE(id.ok());
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, content);
  EXPECT_TRUE(read.value().crc_ok);
  EXPECT_FALSE(read.value().degraded);
}

TEST(FileSystemTest, ReadUpdatesAccessStats) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(512), Content(512, 2), f.critical);
  ASSERT_TRUE(id.ok());
  const uint32_t reads_before = f.fs.Lookup(id.value())->read_count;
  ASSERT_TRUE(f.fs.ReadFile(id.value()).ok());
  EXPECT_EQ(f.fs.Lookup(id.value())->read_count, reads_before + 1);
}

TEST(FileSystemTest, MissingFileFails) {
  FsFixture f;
  EXPECT_EQ(f.fs.ReadFile(999).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.DeleteFile(999).code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.OverwriteFile(999, {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(f.fs.Lookup(999), nullptr);
}

TEST(FileSystemTest, OverwriteInPlace) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(kKiB), Content(kKiB, 3), f.critical);
  ASSERT_TRUE(id.ok());
  const auto updated = Content(900, 9);
  ASSERT_TRUE(f.fs.OverwriteFile(id.value(), updated).ok());
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().data, updated);
  EXPECT_TRUE(read.value().crc_ok);
}

TEST(FileSystemTest, OverwriteTooLargeRejected) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(512), Content(512, 3), f.critical);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(f.fs.OverwriteFile(id.value(), Content(4096, 1)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FileSystemTest, DeleteFreesSpace) {
  FsFixture f;
  const uint64_t free_before = f.fs.FreeBlocks();
  auto id = f.fs.CreateFile(PhotoMeta(4096), Content(4096, 4), f.critical);
  ASSERT_TRUE(id.ok());
  EXPECT_LT(f.fs.FreeBlocks(), free_before);
  ASSERT_TRUE(f.fs.DeleteFile(id.value()).ok());
  EXPECT_EQ(f.fs.FreeBlocks(), free_before);
  EXPECT_EQ(f.fs.Stats().files, 0u);
}

TEST(FileSystemTest, TrimmedBlocksAreReused) {
  FsFixture f;
  auto id1 = f.fs.CreateFile(PhotoMeta(2048), Content(2048, 5), f.critical);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(f.fs.DeleteFile(id1.value()).ok());
  auto id2 = f.fs.CreateFile(PhotoMeta(2048), Content(2048, 6), f.critical);
  ASSERT_TRUE(id2.ok());
  auto read = f.fs.ReadFile(id2.value());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().crc_ok);
}

TEST(FileSystemTest, OutOfSpace) {
  FsFixture f;
  const uint32_t bs = f.device.block_size();
  const uint64_t capacity_bytes = f.device.capacity_blocks() * bs;
  auto big = f.fs.CreateFile(PhotoMeta(capacity_bytes * 2), {}, f.critical);
  EXPECT_EQ(big.status().code(), StatusCode::kOutOfSpace);
}

TEST(FileSystemTest, FillThenFail) {
  FsFixture f;
  Status last = Status::Ok();
  int created = 0;
  for (int i = 0; i < 10000; ++i) {
    auto id = f.fs.CreateFile(PhotoMeta(4096), {}, f.critical);
    if (!id.ok()) {
      last = id.status();
      break;
    }
    ++created;
  }
  EXPECT_EQ(last.code(), StatusCode::kOutOfSpace);
  EXPECT_GT(created, 10);
  // FS-level accounting refused before the device physically died.
  EXPECT_FALSE(f.fs.Stats().overcommitted);
}

TEST(FileSystemTest, ReclassifyMovesPools) {
  FsFixture f;
  auto id = f.fs.CreateFile(PhotoMeta(2048), Content(2048, 7), f.critical);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(f.fs.PlacementOf(id.value()), f.critical);
  const auto sys_before = f.device.SysSnapshot().valid_pages;
  ASSERT_TRUE(f.fs.ReclassifyFile(id.value(), f.degradable).ok());
  EXPECT_EQ(f.fs.PlacementOf(id.value()), f.degradable);
  EXPECT_LT(f.device.SysSnapshot().valid_pages, sys_before);
  EXPECT_GT(f.device.SpareSnapshot().valid_pages, 0u);
  // Content survives the migration.
  auto read = f.fs.ReadFile(id.value());
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read.value().crc_ok);
}

TEST(FileSystemTest, ScanFilesSeesAll) {
  FsFixture f;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(f.fs.CreateFile(PhotoMeta(512), Content(512, 1), f.critical).ok());
  }
  EXPECT_EQ(f.fs.ScanFiles().size(), 5u);
  std::vector<uint64_t> ids;
  f.fs.ForEachFile([&](const ExtentFileSystem::FileView& file) {
    ids.push_back(file.meta.file_id);
    EXPECT_EQ(file.placement, f.critical);
    EXPECT_EQ(file.durability, Durability::kCritical);
    EXPECT_EQ(file.extents.size(), 1u);
  });
  EXPECT_EQ(ids, (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

// Creates and deletes interleave so that freed table slots are reused out of
// id order. Walks stay in ascending id order, deleted ids stay gone, and
// every live file keeps its own metadata and content.
TEST(FileSystemTest, SlotReuseKeepsIdOrderAndForgetsDeletedIds) {
  FsFixture f;
  std::map<uint64_t, uint8_t> live;  // id -> content seed
  std::vector<uint64_t> deleted;
  Rng rng(11);
  for (int step = 0; step < 200; ++step) {
    if (live.size() < 3 || (live.size() < 12 && rng.NextBounded(2) == 0)) {
      const uint8_t seed = static_cast<uint8_t>(step);
      FileMeta meta = PhotoMeta(512);
      meta.path = "dcim/img_" + std::to_string(step) + ".jpg";
      auto id = f.fs.CreateFile(meta, Content(512, seed), f.critical);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      live[id.value()] = seed;
    } else {
      auto victim = live.begin();
      std::advance(victim, rng.NextBounded(live.size()));
      ASSERT_TRUE(f.fs.DeleteFile(victim->first).ok());
      deleted.push_back(victim->first);
      live.erase(victim);
    }

    std::vector<uint64_t> want;
    for (const auto& [id, seed] : live) {
      want.push_back(id);
    }
    std::vector<uint64_t> walked;
    f.fs.ForEachFile(
        [&](const ExtentFileSystem::FileView& file) { walked.push_back(file.meta.file_id); });
    ASSERT_EQ(walked, want);
    std::vector<uint64_t> scanned;
    for (const FileMeta* meta : f.fs.ScanFiles()) {
      scanned.push_back(meta->file_id);
    }
    ASSERT_EQ(scanned, want);
    ASSERT_EQ(f.fs.Stats().files, live.size());
  }

  ASSERT_GT(deleted.size(), 50u);
  for (const uint64_t id : deleted) {
    EXPECT_EQ(f.fs.Lookup(id), nullptr);
    EXPECT_EQ(f.fs.ReadFile(id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(f.fs.OverwriteFile(id, {}).code(), StatusCode::kNotFound);
    EXPECT_EQ(f.fs.ReclassifyFile(id, f.degradable).code(), StatusCode::kNotFound);
    EXPECT_EQ(f.fs.DeleteFile(id).code(), StatusCode::kNotFound);
  }
  for (const auto& [id, seed] : live) {
    const FileMeta* meta = f.fs.Lookup(id);
    ASSERT_NE(meta, nullptr);
    EXPECT_EQ(meta->file_id, id);
    EXPECT_EQ(meta->path, "dcim/img_" + std::to_string(seed) + ".jpg");
    auto read = f.fs.ReadFile(id);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value().data, Content(512, seed));
  }
}

TEST(FileSystemTest, ForEachFileSeesHandlesOpenedMidWalk) {
  // Two files hold a handle that gets closed. The walk reports the first as
  // having no durability; a handle opened in the callback reuses the slot,
  // so the second file's (now aliased) handle describes as the new spec.
  FsFixture f;
  const PlacementHandle stale = f.device.OpenPlacement({Durability::kCritical}).value();
  const uint64_t a = f.fs.CreateFile(PhotoMeta(512), Content(512, 1), stale).value();
  const uint64_t b = f.fs.CreateFile(PhotoMeta(512), Content(512, 2), stale).value();
  ASSERT_TRUE(f.device.ClosePlacement(stale).ok());
  std::vector<std::optional<Durability>> seen;
  f.fs.ForEachFile([&](const ExtentFileSystem::FileView& file) {
    seen.push_back(file.durability);
    if (file.meta.file_id == a) {
      EXPECT_EQ(f.device.OpenPlacement({Durability::kDegradable}).value(), stale);
    }
  });
  ASSERT_EQ(b, a + 1);
  EXPECT_EQ(seen, (std::vector<std::optional<Durability>>{std::nullopt, Durability::kDegradable}));
}

// --- Degraded reads at the device boundary ----------------------------------

// SPARE (approximate storage, paper-default no ECC): aged data is served
// degraded-but-flagged. A read that returns different bytes than were
// written MUST carry degraded=true -- silent corruption is the one outcome
// the SPARE contract forbids.
TEST(SosDeviceDegradedReadTest, SpareServesAgedDataDegradedButFlagged) {
  SosDeviceConfig config = SmallDevice();
  config.spare_ecc = EccPreset::kNone;  // the real paper configuration
  SimClock clock;
  SosDevice device(config, &clock);
  const uint32_t page = device.block_size();
  const PlacementHandle degradable = device.OpenPlacement({Durability::kDegradable}).value();
  constexpr uint64_t kLbas = 10;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    ASSERT_TRUE(device.Write(lba, Content(page, static_cast<uint8_t>(lba)), degradable).ok());
  }
  clock.Advance(YearsToUs(3.0));
  uint64_t degraded = 0;
  for (uint64_t lba = 0; lba < kLbas; ++lba) {
    SCOPED_TRACE("lba " + std::to_string(lba));
    auto read = device.Read(lba);
    ASSERT_TRUE(read.ok());  // approximate storage never refuses a read
    const bool wrong = read.value().data != Content(page, static_cast<uint8_t>(lba));
    if (wrong) {
      EXPECT_TRUE(read.value().degraded) << "silently corrupted SPARE read";
    }
    degraded += read.value().degraded ? 1u : 0u;
  }
  EXPECT_GT(degraded, 0u) << "aging produced no corruption; tune the test";
}

// Injects device-read failures: the first `fail_count` reads fail with
// `code`, everything else proceeds. Deterministic stand-in for a flaky bus
// (kUnavailable) or a dead die (kWornOut).
class FailingReadHook final : public NandFaultHook {
 public:
  FailingReadHook(uint64_t fail_count, StatusCode code) : remaining_(fail_count), code_(code) {}
  NandFaultAction OnNandOp(NandOpKind op, uint32_t, uint32_t) override {
    if (op == NandOpKind::kRead && remaining_ > 0) {
      --remaining_;
      return NandFaultAction::Fail(code_, "injected read fault");
    }
    return NandFaultAction::None();
  }

 private:
  uint64_t remaining_;
  StatusCode code_;
};

// SYS (strict fidelity): a host read either recovers the exact bytes or
// fails loudly -- in neither case do wrong bytes cross the host boundary.
// A transient device fault is absorbed by the FTL's deterministic retry;
// a permanent one surfaces as an error, not as corruption.
TEST(SosDeviceDegradedReadTest, SysRecoversExactlyOrErrorsLoudly) {
  SimClock clock;
  SosDevice device(SmallDevice(), &clock);
  const uint32_t page = device.block_size();
  ASSERT_TRUE(
      device.Write(3, Content(page, 3), device.OpenPlacement({Durability::kCritical}).value())
          .ok());

  // Transient: the single failed device read is retried and served exactly.
  FailingReadHook flaky(1, StatusCode::kUnavailable);
  device.ftl().nand().SetFaultHook(&flaky);
  auto read = device.Read(3);
  device.ftl().nand().SetFaultHook(nullptr);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().degraded);
  EXPECT_EQ(read.value().data, Content(page, 3));

  // Permanent (worn-out die): every attempt fails; the host sees a loud
  // error and the strict pool records no degraded delivery.
  FailingReadHook dead(~0ull, StatusCode::kWornOut);
  device.ftl().nand().SetFaultHook(&dead);
  auto dead_read = device.Read(3);
  device.ftl().nand().SetFaultHook(nullptr);
  ASSERT_FALSE(dead_read.ok());
  EXPECT_EQ(dead_read.status().code(), StatusCode::kWornOut);
  EXPECT_EQ(device.ftl().stats().degraded_reads(), 0u);

  // The device itself is healthy again once the fault clears.
  auto healthy = device.Read(3);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().data, Content(page, 3));
}

// --- Workload generator ----------------------------------------------------

TEST(WorkloadTest, DeterministicForSeed) {
  MobileWorkloadConfig config;
  config.seed = 11;
  MobileWorkloadGenerator a(config);
  MobileWorkloadGenerator b(config);
  for (uint64_t day = 0; day < 5; ++day) {
    const auto ea = a.Day(day);
    const auto eb = b.Day(day);
    ASSERT_EQ(ea.size(), eb.size()) << "day " << day;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_EQ(ea[i].at, eb[i].at);
      EXPECT_EQ(static_cast<int>(ea[i].op), static_cast<int>(eb[i].op));
      EXPECT_EQ(ea[i].file_ref, eb[i].file_ref);
    }
  }
}

TEST(WorkloadTest, EventsSortedWithinDay) {
  MobileWorkloadConfig config;
  config.seed = 12;
  MobileWorkloadGenerator gen(config);
  for (uint64_t day = 0; day < 10; ++day) {
    const auto events = gen.Day(day);
    const SimTimeUs day_start = day * kUsPerDay;
    SimTimeUs prev = day_start;
    for (const auto& ev : events) {
      EXPECT_GE(ev.at, prev);
      EXPECT_LT(ev.at, day_start + kUsPerDay);
      prev = ev.at;
    }
  }
}

// SortByTime must give std::sort's order of whole events, ties included:
// the replay order, and so every golden, rests on it. Refs are unique, so
// they identify which of two tied events went first.
TEST(WorkloadTest, SortByTimeMatchesStdSortWithTies) {
  const auto by_time = [](const WorkloadEvent& a, const WorkloadEvent& b) { return a.at < b.at; };
  auto expect_same_order = [&](std::vector<WorkloadEvent> events, const std::string& what) {
    std::vector<WorkloadEvent> want = events;
    std::sort(want.begin(), want.end(), by_time);
    SortByTime(events);
    ASSERT_EQ(events.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(events[i].file_ref, want[i].file_ref) << what << " position " << i;
      EXPECT_EQ(events[i].at, want[i].at) << what << " position " << i;
      EXPECT_EQ(events[i].op, want[i].op) << what << " position " << i;
      EXPECT_EQ(events[i].meta.path, want[i].meta.path) << what << " position " << i;
    }
  };
  // Random days whose times collide often.
  Rng rng(515);
  for (const size_t size : std::vector<size_t>{0, 1, 2, 3, 16, 17, 18, 33, 100, 517, 4000}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<WorkloadEvent> events(size);
      const uint64_t spread = 1 + rng.NextBounded(size / 2 + 2);
      for (size_t i = 0; i < size; ++i) {
        events[i].at = kUsPerDay + rng.NextBounded(spread);
        events[i].op = static_cast<WorkloadOp>(rng.NextBounded(4));
        events[i].file_ref = i;
        events[i].meta.path = "f" + std::to_string(i);
      }
      expect_same_order(std::move(events),
                        "size " + std::to_string(size) + " trial " + std::to_string(trial));
    }
  }
  // Generator days, shuffled and cut to whole hours so ties are common.
  MobileWorkloadConfig mobile;
  mobile.seed = 14;
  MobileWorkloadGenerator gen(mobile);
  for (uint64_t day = 0; day < 10; ++day) {
    std::vector<WorkloadEvent> events = gen.Day(day);
    for (size_t i = 0; i < events.size(); ++i) {
      events[i].at -= events[i].at % kUsPerHour;
      events[i].file_ref = i;
    }
    rng.Shuffle(events);
    expect_same_order(std::move(events), "mobile day " + std::to_string(day));
  }
}

TEST(WorkloadTest, ReadsReferenceLiveFiles) {
  MobileWorkloadConfig config;
  config.seed = 13;
  MobileWorkloadGenerator gen(config);
  std::set<uint64_t> live;
  for (uint64_t day = 0; day < 20; ++day) {
    for (const auto& ev : gen.Day(day)) {
      switch (ev.op) {
        case WorkloadOp::kCreate:
          EXPECT_TRUE(live.insert(ev.file_ref).second);
          break;
        case WorkloadOp::kRead:
        case WorkloadOp::kUpdate:
          EXPECT_TRUE(live.contains(ev.file_ref)) << "day " << day;
          break;
        case WorkloadOp::kDelete:
          EXPECT_EQ(live.erase(ev.file_ref), 1u);
          break;
      }
    }
  }
  EXPECT_EQ(gen.live_files(), live.size());
}

TEST(WorkloadTest, MediaHeavyMix) {
  MobileWorkloadConfig config;
  config.seed = 14;
  MobileWorkloadGenerator gen(config);
  uint64_t media_bytes = 0;
  uint64_t total_bytes = 0;
  for (uint64_t day = 0; day < 60; ++day) {
    for (const auto& ev : gen.Day(day)) {
      if (ev.op != WorkloadOp::kCreate) {
        continue;
      }
      total_bytes += ev.meta.size_bytes;
      if (ev.meta.type == FileType::kPhoto || ev.meta.type == FileType::kVideo ||
          ev.meta.type == FileType::kAudio) {
        media_bytes += ev.meta.size_bytes;
      }
    }
  }
  ASSERT_GT(total_bytes, 0u);
  // Paper [66-68]: media dominates personal storage bytes.
  EXPECT_GT(static_cast<double>(media_bytes) / static_cast<double>(total_bytes), 0.5);
}

TEST(WorkloadTest, IntensityScalesWrites) {
  MobileWorkloadConfig light;
  light.seed = 15;
  MobileWorkloadConfig heavy = light;
  heavy.intensity = 4.0;
  MobileWorkloadGenerator gl(light);
  MobileWorkloadGenerator gh(heavy);
  uint64_t creates_light = 0;
  uint64_t creates_heavy = 0;
  for (uint64_t day = 0; day < 30; ++day) {
    for (const auto& ev : gl.Day(day)) {
      creates_light += ev.op == WorkloadOp::kCreate ? 1 : 0;
    }
    for (const auto& ev : gh.Day(day)) {
      creates_heavy += ev.op == WorkloadOp::kCreate ? 1 : 0;
    }
  }
  EXPECT_GT(creates_heavy, creates_light * 2);
}

TEST(WorkloadTest, DropRefRemovesFromLiveSet) {
  MobileWorkloadConfig config;
  config.seed = 16;
  MobileWorkloadGenerator gen(config);
  const auto events = gen.Day(0);
  const size_t live_before = gen.live_files();
  ASSERT_GT(live_before, 0u);
  for (const auto& ev : events) {
    if (ev.op == WorkloadOp::kCreate) {
      gen.DropRef(ev.file_ref);
      break;
    }
  }
  EXPECT_EQ(gen.live_files(), live_before - 1);
}

TEST(WorkloadTest, TraceRoundtrip) {
  MobileWorkloadConfig config;
  config.seed = 17;
  MobileWorkloadGenerator gen(config);
  std::vector<WorkloadEvent> events;
  for (uint64_t day = 0; day < 3; ++day) {
    auto day_events = gen.Day(day);
    events.insert(events.end(), day_events.begin(), day_events.end());
  }
  const std::string text = SerializeTrace(events);
  const auto parsed = ParseTrace(text);
  ASSERT_EQ(parsed.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].at, events[i].at);
    EXPECT_EQ(static_cast<int>(parsed[i].op), static_cast<int>(events[i].op));
    EXPECT_EQ(parsed[i].file_ref, events[i].file_ref);
    if (events[i].op == WorkloadOp::kCreate) {
      EXPECT_EQ(parsed[i].meta.type, events[i].meta.type);
      EXPECT_EQ(parsed[i].meta.size_bytes, events[i].meta.size_bytes);
      EXPECT_EQ(parsed[i].meta.path, events[i].meta.path);
      EXPECT_EQ(parsed[i].meta.true_priority, events[i].meta.true_priority);
    }
  }
}

TEST(WorkloadTest, ParseSkipsMalformedLines) {
  const auto events = ParseTrace("garbage line\nR 100 1\nX 1 2\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].file_ref, 1u);
}

}  // namespace
}  // namespace sos
