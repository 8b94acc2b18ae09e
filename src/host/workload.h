// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Synthetic mobile workload generator and trace format.
//
// Reproduces the usage pattern the paper's wear-gap argument rests on
// (§2.3.2, [38]): personal devices are read-dominant, write bursts come from
// camera capture, app updates and cache churn, and even "heavy" users
// consume only a few percent of their flash's rated wear before the device
// is discarded. The generator emits day-granularity event batches; a driver
// (tests, the SOS lifetime simulation) applies them to a file system.
//
// Events reference files through generator-scoped refs so traces are
// self-contained and replayable; the driver owns the ref -> fs-file-id map.

#ifndef SOS_SRC_HOST_WORKLOAD_H_
#define SOS_SRC_HOST_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/classify/corpus.h"
#include "src/classify/file_meta.h"
#include "src/common/rng.h"

namespace sos {

enum class WorkloadOp : uint8_t {
  kCreate,  // new file (meta populated)
  kRead,    // whole-file read
  kUpdate,  // in-place overwrite (app state, caches)
  kDelete,  // user/file-manager deletion
};

struct WorkloadEvent {
  SimTimeUs at = 0;
  WorkloadOp op = WorkloadOp::kRead;
  uint64_t file_ref = 0;  // generator-scoped file reference
  FileMeta meta;          // populated for kCreate only
};

// Puts `events` in exactly the order std::sort with `a.at < b.at` gives,
// ties included, but sorts 16-byte {at, index} keys and then permutes the
// events in place, moving each about once. libstdc++'s sort moves elements
// as a function of comparison outcomes only, and the keys compare as their
// events do.
void SortByTime(std::vector<WorkloadEvent>& events);

// Driver-facing generator interface: day-batched event streams over
// generator-scoped refs. Implementations: the mobile generator below and the
// flash-cache generator (src/host/cache_workload.h).
class WorkloadGenerator {
 public:
  virtual ~WorkloadGenerator() = default;

  // Generates the events of simulation day `day_index` (0-based), spread
  // over that day's 24 hours in time order.
  virtual std::vector<WorkloadEvent> Day(uint64_t day_index) = 0;

  // Tells the generator a create was rejected (device full): the ref is
  // removed from the live set so later events do not reference it.
  virtual void DropRef(uint64_t file_ref) = 0;

  // Number of live (created, not deleted) files the generator tracks.
  virtual size_t live_files() const = 0;
};

struct MobileWorkloadConfig {
  uint64_t seed = 1;
  // Daily/weekly activity rates (means; actual counts are randomized).
  double photos_per_day = 8.0;
  double videos_per_week = 4.0;
  double audio_per_week = 5.0;
  double documents_per_week = 2.0;
  double downloads_per_week = 3.0;
  double app_installs_per_week = 2.0;   // new appdata/system files
  double cache_files_per_day = 40.0;    // small new cache files
  double app_updates_per_day = 60.0;    // in-place overwrites of app state
  double reads_per_day = 250.0;         // whole-file reads, recency-skewed
  double deletes_per_day = 3.0;         // cleanup of delete-prone files
  double label_noise = 0.08;            // passed to SynthesizeFile
  // Write-amplification knob for stress scenarios (multiplies all write
  // activity; 1.0 = typical user).
  double intensity = 1.0;
};

class MobileWorkloadGenerator final : public WorkloadGenerator {
 public:
  explicit MobileWorkloadGenerator(const MobileWorkloadConfig& config);

  std::vector<WorkloadEvent> Day(uint64_t day_index) override;
  void DropRef(uint64_t file_ref) override;
  size_t live_files() const override { return live_.size(); }

 private:
  struct LiveFile {
    uint64_t ref;
    FileType type;
    SimTimeUs created_at;
    bool delete_prone;
  };

  void EmitCreate(std::vector<WorkloadEvent>& events, FileType type, SimTimeUs at);
  // Samples a live file, biased toward recently created ones.
  const LiveFile* SampleLive();
  // Samples a live delete-prone file; nullptr if none.
  const LiveFile* SampleDeletable();

  MobileWorkloadConfig config_;
  Rng rng_;
  std::vector<LiveFile> live_;
  uint64_t next_ref_ = 1;
};

// Line-oriented trace serialization (one event per line), for record/replay
// tests and for inspecting workloads offline. Create events serialize the
// subset of FileMeta the driver needs (type, size, labels, signals).
std::string SerializeTrace(const std::vector<WorkloadEvent>& events);
std::vector<WorkloadEvent> ParseTrace(const std::string& text);

}  // namespace sos

#endif  // SOS_SRC_HOST_WORKLOAD_H_
