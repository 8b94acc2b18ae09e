// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Quickstart: the whole SOS stack in one file.
//
// Builds a small Sustainability-Oriented Storage device (paper Figure 2),
// mounts the extent file system on it, trains the file classifier on a
// synthetic corpus, stores a precious photo / a junk video / app state,
// lets the migration daemon sort them between the reliable (SYS) and
// approximate (SPARE) partitions, then fast-forwards two years to show
// selective degradation: the junk video degrades slightly, the precious
// photo and the app database stay bit-perfect.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart

#include <cstdio>

#include "src/classify/corpus.h"
#include "src/common/table.h"
#include "src/classify/logistic.h"
#include "src/host/file_system.h"
#include "src/media/quality.h"
#include "src/sos/daemons.h"
#include "src/sos/sos_device.h"
#include "src/sos/health.h"
#include "src/sos/ufs.h"

using namespace sos;

int main() {
  // --- 1. A PLC die managed as an SOS device -------------------------------
  SosDeviceConfig device_config;
  device_config.nand.num_blocks = 64;
  device_config.nand.wordlines_per_block = 16;
  device_config.nand.page_size_bytes = 4096;
  device_config.nand.tech = CellTech::kPlc;  // densest cells, least endurance
  device_config.nand.store_payloads = true;  // keep real bytes: we want to *see* degradation
  SimClock clock;
  SosDevice device(device_config, &clock);

  std::printf("SOS device: %s capacity from a PLC die\n",
              FormatBytes(device.capacity_blocks() * device.block_size()).c_str());
  std::printf("  SYS pool   : %u blocks of pseudo-QLC, LDPC + parity stripes\n",
              device.SysSnapshot().total_blocks);
  std::printf("  SPARE pool : %u blocks of native PLC, no ECC (approximate)\n\n",
              device.SpareSnapshot().total_blocks);

  // --- 2. Host file system + trained classifier ----------------------------
  ExtentFileSystem fs(&device, &clock);

  CorpusConfig corpus_config;
  corpus_config.num_files = 4000;
  const std::vector<FileMeta> corpus = GenerateCorpus(corpus_config);
  const LogisticClassifier classifier = LogisticClassifier::Train(
      AsPointers(corpus), &ExpendableLabel, corpus_config.device_age_us);
  std::printf("Classifier trained on %zu synthetic files.\n\n", corpus.size());

  // --- 3. Three files with very different fates ----------------------------
  const auto photo_content = GenerateSyntheticImage(128, 128, /*seed=*/1);  // 16 KiB
  FileMeta photo;
  photo.type = FileType::kPhoto;
  photo.path = "dcim/camera/wedding_2024.jpg";
  photo.size_bytes = photo_content.size();
  photo.personal_signal = 0.95;  // content inspection found faces/favorites

  const VideoConfig video_config;
  const auto video_content = GenerateSyntheticVideo(video_config, /*frames=*/48, /*seed=*/2);
  FileMeta video;
  video.type = FileType::kVideo;
  video.path = "dcim/camera/meme_download.mp4";
  video.size_bytes = video_content.size();
  video.personal_signal = 0.02;  // nothing personal about it

  std::vector<uint8_t> db_content(8192, 0x42);
  FileMeta database;
  database.type = FileType::kAppData;
  database.path = "data/app/com.bank/state.db";
  database.size_bytes = db_content.size();

  // New data always lands on the reliable partition first (§4.4): declare
  // it critical through a placement handle and let the daemon demote later.
  PlacementDirectory placements(&device);
  const PlacementHandle critical = placements.For({Durability::kCritical}).value();
  const uint64_t photo_id = fs.CreateFile(photo, photo_content, critical).value();
  const uint64_t video_id = fs.CreateFile(video, video_content, critical).value();
  const uint64_t db_id = fs.CreateFile(database, db_content, critical).value();

  // --- 4. The nightly classification review (§4.4) -------------------------
  clock.Advance(7 * kUsPerDay);  // let the files age past the demotion guard
  MigrationDaemon daemon(&fs, &placements, &classifier, MigrationDaemonConfig{});
  const auto run = daemon.RunOnce(clock.now());
  std::printf("Migration daemon: scanned %llu files, demoted %llu to SPARE.\n",
              static_cast<unsigned long long>(run.scanned),
              static_cast<unsigned long long>(run.demoted));
  auto placement = [&](uint64_t id) {
    return DurabilityName(device.DescribePlacement(fs.PlacementOf(id)).value().durability);
  };
  std::printf("  %-32s -> %s\n", photo.path.c_str(), placement(photo_id));
  std::printf("  %-32s -> %s\n", video.path.c_str(), placement(video_id));
  std::printf("  %-32s -> %s\n\n", database.path.c_str(), placement(db_id));

  // --- 5. Two years pass (§4.2: slight degradation of SPARE data) ----------
  clock.Advance(YearsToUs(2.0));

  auto photo_read = fs.ReadFile(photo_id).value();
  auto video_read = fs.ReadFile(video_id).value();
  auto db_read = fs.ReadFile(db_id).value();

  const VideoQualityModel video_model(video_config);
  std::printf("After 2 years of retention:\n");
  std::printf("  wedding photo : %-8s PSNR %.1f dB (stored on %s)\n",
              photo_read.crc_ok ? "intact," : "DEGRADED,",
              ImageQualityModel::PsnrDb(photo_content, photo_read.data),
              placement(photo_id));
  std::printf("  meme video    : %-8s quality %.3f, %llu residual bit errors (on %s)\n",
              video_read.crc_ok ? "intact," : "degraded,",
              video_model.ScoreCorrupted(video_content, video_read.data),
              static_cast<unsigned long long>(video_read.residual_bit_errors),
              placement(video_id));
  std::printf("  bank database : %-8s CRC %s (stored on %s)\n\n",
              db_read.crc_ok ? "intact," : "DEGRADED,", db_read.crc_ok ? "ok" : "FAILED",
              placement(db_id));
  std::printf("(In deployment the monthly degradation monitor refreshes SPARE pages before\n");
  std::printf(" they cross the quality floor -- see bench_fig2_pipeline and §4.3.)\n\n");

  // --- 6. How the device looks through a UFS lens (§4.3, [75]) -------------
  std::printf("UFS unit-descriptor view of the device:\n%s\n",
              UfsView(&device).Render().c_str());
  std::printf("%s\n",
              RenderHealth(CollectHealth(device, clock.now_years(),
                                         device.capacity_blocks()))
                  .c_str());

  // --- 7. The sustainability ledger -----------------------------------------
  std::printf("Why bother: the same cells as TLC would have exported %.0f%% less capacity,\n",
              (1.0 - 3.0 / 4.44) * 100.0);
  std::printf("i.e. this device needs ~1/3 less silicon (and embodied carbon) per byte.\n");
  std::printf("Run the bench/ binaries to reproduce every number in the paper.\n");
  return 0;
}
