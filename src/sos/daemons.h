// Copyright (c) 2026 The SOS Authors. MIT License.
//
// The SOS host daemons (paper §4.2-4.5).
//
// MigrationDaemon   -- the periodic privileged scanner of §4.4: classifies
//                      every file and demotes low-priority data from the
//                      SYS partition to SPARE (and optionally promotes data
//                      the model now considers critical). The decision
//                      threshold encodes "erring on the side of caution".
// DegradationMonitor-- the scrubber of §4.3: predicts near-future RBER for
//                      approximate-pool pages, preemptively refreshes pages
//                      on dangerously degraded blocks, and (when a cloud
//                      backup exists) repairs files whose local copy has
//                      visibly degraded. SOS does not *rely* on the cloud;
//                      without one, at-risk files are only counted.
// AutoDeleteManager -- the §4.5 fallback: when free space drops below the
//                      low-water mark (3% in the paper), deletes the
//                      SPARE-resident files a deletion predictor ranks most
//                      likely to be deleted by the user anyway, until the
//                      high-water mark is restored.

#ifndef SOS_SRC_SOS_DAEMONS_H_
#define SOS_SRC_SOS_DAEMONS_H_

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/classify/classifier.h"
#include "src/host/file_system.h"
#include "src/obs/trace.h"
#include "src/sos/sos_device.h"

namespace sos {

// ---------------------------------------------------------------------------
// Migration daemon.
// ---------------------------------------------------------------------------

struct MigrationDaemonConfig {
  // Demote to SPARE when P(expendable) >= this. Higher = more conservative
  // (fewer precious files at risk, less density benefit realized).
  double demote_threshold = 0.6;
  // Promote back to SYS when P(expendable) <= this (preferences drift, §4.4).
  double promote_threshold = 0.2;
  bool allow_promotion = true;
  // Never demote files younger than this (fresh data is still hot and its
  // access features unsettled).
  SimTimeUs min_age_us = kUsPerDay;
  // User preference bias per file type, added to the classifier score before
  // thresholding (paper §4.4: "prompting users for general preferences on
  // device setup"). Negative values protect a type ("never risk my photos"),
  // positive values volunteer it ("my downloads are disposable").
  std::array<double, kNumFileTypes> type_score_bias{};
};

class MigrationDaemon {
 public:
  struct RunStats {
    uint64_t scanned = 0;
    uint64_t demoted = 0;
    uint64_t promoted = 0;
    uint64_t demote_failures = 0;  // e.g. SPARE out of space
  };

  // `fs`, `placements` and `model` must outlive the daemon. `placements`
  // mints the demotion/promotion handles (degradable vs critical, with the
  // file's lifetime hint) against the device under reclassification.
  MigrationDaemon(ExtentFileSystem* fs, PlacementDirectory* placements,
                  const BinaryClassifier* model, const MigrationDaemonConfig& config);

  // One periodic review pass at simulated time `now`, which must not
  // decrease from one pass to the next. Every verdict equals a full scan's;
  // files whose score provably cannot cross a threshold are counted in
  // `scanned` without being scored again (see QuietFile).
  RunStats RunOnce(SimTimeUs now);

  // Forgets every quiet window. Call whenever the model's parameters change
  // in place (periodic retraining): the windows were bounded under the old
  // parameters.
  void InvalidateVerdicts() { quiet_.clear(); }

  const RunStats& lifetime_stats() const { return lifetime_; }

 private:
  // A file that was scored and left alone, and whose score the model bounds
  // on its no-action side until `quiet_until` as long as nothing the score
  // or the verdict reads changes. A pass that finds these fields unchanged
  // skips the file until then.
  struct QuietFile {
    uint64_t id = 0;
    uint32_t read_count = 0;
    uint32_t write_count = 0;
    SimTimeUs last_accessed_us = 0;
    SimTimeUs quiet_until = 0;
    uint32_t handle = PlacementHandle::kInvalidId;
    Durability durability = Durability::kCritical;
  };

  // Whether the raw score bounds `bound` keep a file of `type`, held under
  // `durability`, on its no-action side.
  bool Quiet(FileType type, Durability durability, const ScoreRange& bound) const;

  ExtentFileSystem* fs_;
  PlacementDirectory* placements_;
  const BinaryClassifier* model_;
  MigrationDaemonConfig config_;
  RunStats lifetime_;
  // Quiet windows of live files, sorted by id: rebuilt by each in-order
  // walk, so deleted files drop out.
  std::vector<QuietFile> quiet_;
  SimTimeUs last_run_us_ = 0;
};

// ---------------------------------------------------------------------------
// Degradation monitor (scrubber).
// ---------------------------------------------------------------------------

// Pristine-copy oracle standing in for the user's cloud backup (§4.3). The
// lifetime simulation stores file content here at create time.
class CloudBackup {
 public:
  virtual ~CloudBackup() = default;
  virtual bool Has(uint64_t file_id) const = 0;
  virtual std::vector<uint8_t> Fetch(uint64_t file_id) const = 0;
  virtual void Store(uint64_t file_id, std::span<const uint8_t> content) = 0;
  virtual void Forget(uint64_t file_id) = 0;
};

class InMemoryCloud final : public CloudBackup {
 public:
  bool Has(uint64_t file_id) const override { return store_.contains(file_id); }
  std::vector<uint8_t> Fetch(uint64_t file_id) const override { return store_.at(file_id); }
  void Store(uint64_t file_id, std::span<const uint8_t> content) override {
    store_[file_id].assign(content.begin(), content.end());
  }
  void Forget(uint64_t file_id) override { store_.erase(file_id); }

 private:
  std::unordered_map<uint64_t, std::vector<uint8_t>> store_;
};

struct DegradationMonitorConfig {
  // Prediction horizon: refresh pages that would cross the threshold within
  // one scrub period.
  double lookahead_years = 0.25;
  // Refresh a page when its predicted RBER exceeds this fraction of the
  // pool's quality budget (the SPARE retirement bound). 0.15 of the 2e-3
  // default budget is ~3e-4 raw BER -- the point where video quality dips
  // below ~0.8 and the paper's "dangerously degraded" rescue should fire.
  double refresh_fraction = 0.15;
  // Attempt cloud repair of a file when a read of it comes back degraded
  // with CRC mismatch.
  bool cloud_repair = true;
};

class DegradationMonitor {
 public:
  struct RunStats {
    uint64_t pages_scanned = 0;
    uint64_t pages_refreshed = 0;
    uint64_t files_repaired = 0;
    uint64_t files_at_risk = 0;  // degraded, no cloud copy available
  };

  // `fs` and `device` must outlive the monitor; `cloud` may be null.
  DegradationMonitor(ExtentFileSystem* fs, SosDevice* device,
                     const DegradationMonitorConfig& config, CloudBackup* cloud = nullptr);

  RunStats RunOnce(SimTimeUs now);

  const RunStats& lifetime_stats() const { return lifetime_; }

 private:
  // Device-level scrub of one approximate pool.
  void ScrubPool(uint32_t pool_id, RunStats& stats);

  ExtentFileSystem* fs_;
  SosDevice* device_;
  DegradationMonitorConfig config_;
  CloudBackup* cloud_;
  RunStats lifetime_;
};

// ---------------------------------------------------------------------------
// Auto-delete fallback.
// ---------------------------------------------------------------------------

struct AutoDeleteConfig {
  double low_water_free = 0.03;   // activate below 3% free (paper §4.5)
  double high_water_free = 0.06;  // delete until this much is free
  // Only delete files the predictor scores at least this likely-to-delete.
  double min_delete_score = 0.3;
};

class AutoDeleteManager {
 public:
  struct RunStats {
    uint64_t activations = 0;
    uint64_t files_deleted = 0;
    uint64_t bytes_freed = 0;
    uint64_t exhausted = 0;  // ran out of candidates before high water
  };

  AutoDeleteManager(ExtentFileSystem* fs, const BinaryClassifier* deletion_model,
                    const AutoDeleteConfig& config);

  RunStats RunOnce(SimTimeUs now);

  const RunStats& lifetime_stats() const { return lifetime_; }

  // Optional event trace of activations and per-file trims. `sink` must
  // outlive the manager; null disables tracing.
  void SetTraceSink(obs::TraceSink* sink) { trace_ = sink; }

 private:
  double FreeFraction() const;

  ExtentFileSystem* fs_;
  const BinaryClassifier* deletion_model_;
  AutoDeleteConfig config_;
  RunStats lifetime_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace sos

#endif  // SOS_SRC_SOS_DAEMONS_H_
