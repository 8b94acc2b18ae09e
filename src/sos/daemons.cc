// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/sos/daemons.h"

#include "src/flash/error_model.h"

#include <algorithm>
#include <cassert>

namespace sos {

// ---------------------------------------------------------------------------
// MigrationDaemon.
// ---------------------------------------------------------------------------

MigrationDaemon::MigrationDaemon(ExtentFileSystem* fs, PlacementDirectory* placements,
                                 const BinaryClassifier* model,
                                 const MigrationDaemonConfig& config)
    : fs_(fs), placements_(placements), model_(model), config_(config) {
  assert(fs_ != nullptr && placements_ != nullptr && model_ != nullptr);
}

namespace {

// Quiet-window horizons, longest first. A longer window skips more passes;
// a shorter one still holds for files whose score drifts towards a threshold.
constexpr std::array<uint32_t, 4> kQuietHorizonsDays = {64, 16, 4, 1};

// Distance a score bound must keep from a threshold. Far above the rounding
// error of the bound, far below any score difference a threshold resolves.
constexpr double kQuietMargin = 1e-9;

}  // namespace

bool MigrationDaemon::Quiet(FileType type, Durability durability,
                            const ScoreRange& bound) const {
  // The biased, clamped score is monotone in the raw score, so the bounds
  // carry over. The age gate on demotion is ignored: staying below the
  // demote threshold is enough.
  const double bias = config_.type_score_bias[static_cast<size_t>(type)];
  return durability == Durability::kCritical
             ? std::clamp(bound.hi + bias, 0.0, 1.0) + kQuietMargin < config_.demote_threshold
             : !config_.allow_promotion ||
                   std::clamp(bound.lo + bias, 0.0, 1.0) - kQuietMargin >
                       config_.promote_threshold;
}

MigrationDaemon::RunStats MigrationDaemon::RunOnce(SimTimeUs now) {
  assert(now >= last_run_us_);  // quiet windows only look forward in time
  last_run_us_ = now;
  RunStats stats;
  // Re-declares a file's placement with a fresh handle of the opposite
  // durability, keeping the file's lifetime hint. The directory memoizes
  // handles per spec, so repeat verdicts reuse one slot.
  auto reclassify = [&](const FileMeta& meta, Durability durability) -> bool {
    PlacementSpec spec;
    spec.durability = durability;
    spec.lifetime = LifetimeHintFor(meta);
    auto handle = placements_->For(spec);
    if (!handle.ok()) {
      return false;
    }
    return fs_->ReclassifyFile(meta.file_id, handle.value()).ok();
  };
  std::array<SimTimeUs, kQuietHorizonsDays.size()> ends{};
  for (size_t k = 0; k < ends.size(); ++k) {
    ends[k] = now + DaysToUs(kQuietHorizonsDays[k]);
  }
  std::array<ScoreRange, kQuietHorizonsDays.size()> bounds{};
  // Stop test of ScoreAndBounds: bound the ends longest first and stop at
  // the first one whose window keeps the file being scored quiet.
  FileType scored_type = FileType::kSystem;
  Durability scored_durability = Durability::kCritical;
  size_t quiet_end = ends.size();
  const BinaryClassifier::BoundsStop stop_when_quiet = [&](size_t k, const ScoreRange& bound) {
    if (!Quiet(scored_type, scored_durability, bound)) {
      return false;
    }
    quiet_end = k;
    return true;
  };
  std::vector<QuietFile> kept;
  kept.reserve(quiet_.size());
  auto cached = quiet_.cbegin();
  fs_->ForEachFile([&](const ExtentFileSystem::FileView& file) {
    const FileMeta& meta = file.meta;
    ++stats.scanned;
    if (!file.durability.has_value()) {
      return;  // handle closed out from under the file: nothing safe to do
    }
    const Durability durability = *file.durability;
    while (cached != quiet_.cend() && cached->id < meta.file_id) {
      ++cached;
    }
    // The durability compare catches a handle slot closed and reopened with
    // another spec between passes.
    if (cached != quiet_.cend() && cached->id == meta.file_id &&
        cached->read_count == meta.read_count && cached->write_count == meta.write_count &&
        cached->last_accessed_us == meta.last_accessed_us &&
        cached->handle == file.placement.id() && cached->durability == durability &&
        now <= cached->quiet_until) {
      kept.push_back(*cached);
      return;
    }
    double raw_score = 0.0;
    scored_type = meta.type;
    scored_durability = durability;
    quiet_end = ends.size();
    const bool bounded =
        model_->ScoreAndBounds(meta, now, ends, &raw_score, bounds, stop_when_quiet);
    const double score = std::clamp(
        raw_score + config_.type_score_bias[static_cast<size_t>(meta.type)], 0.0, 1.0);
    if (durability == Durability::kCritical && score >= config_.demote_threshold &&
        now >= meta.created_us + config_.min_age_us) {
      if (reclassify(meta, Durability::kDegradable)) {
        ++stats.demoted;
      } else {
        ++stats.demote_failures;
      }
    } else if (config_.allow_promotion && durability == Durability::kDegradable &&
               score <= config_.promote_threshold) {
      if (reclassify(meta, Durability::kCritical)) {
        ++stats.promoted;
      }
    } else if (bounded && quiet_end < ends.size()) {
      kept.push_back({meta.file_id, meta.read_count, meta.write_count, meta.last_accessed_us,
                      ends[quiet_end], file.placement.id(), durability});
    }
  });
  quiet_ = std::move(kept);
  lifetime_.scanned += stats.scanned;
  lifetime_.demoted += stats.demoted;
  lifetime_.promoted += stats.promoted;
  lifetime_.demote_failures += stats.demote_failures;
  return stats;
}

// ---------------------------------------------------------------------------
// DegradationMonitor.
// ---------------------------------------------------------------------------

DegradationMonitor::DegradationMonitor(ExtentFileSystem* fs, SosDevice* device,
                                       const DegradationMonitorConfig& config, CloudBackup* cloud)
    : fs_(fs), device_(device), config_(config), cloud_(cloud) {
  assert(fs_ != nullptr && device_ != nullptr);
}

void DegradationMonitor::ScrubPool(uint32_t pool_id, RunStats& stats) {
  Ftl& ftl = device_->ftl();
  const double budget = device_->config().spare_retire_rber;
  const double refresh_at = budget * config_.refresh_fraction;

  // Futility guard: refreshing rewrites data onto another block of the same
  // pool, which resets *retention* but not *wear*. Once the pool is worn
  // enough that even a freshly-programmed page would sit above the refresh
  // threshold, scrubbing would only burn more endurance chasing an
  // unreachable target (a refresh death spiral). Leave such pools to
  // retirement and the cloud-repair path.
  {
    const PoolSnapshot snap = ftl.Snapshot(pool_id);
    PageErrorState fresh;
    fresh.mode = snap.mode;
    fresh.endurance_pec =
        static_cast<double>(GetCellTechInfo(snap.mode).rated_endurance_pec);
    fresh.pec_at_program = static_cast<uint32_t>(snap.mean_pec);
    fresh.retention_years = 0.0;
    if (ErrorModel::Rber(fresh) > refresh_at) {
      return;
    }
  }

  for (uint64_t lba : ftl.LbasInPool(pool_id)) {
    ++stats.pages_scanned;
    auto predicted = ftl.PredictLbaRber(lba, config_.lookahead_years);
    if (!predicted.ok()) {
      continue;  // trimmed mid-scan
    }
    if (predicted.value() > refresh_at) {
      if (ftl.Refresh(lba).ok()) {
        ++stats.pages_refreshed;
      }
    }
  }
}

DegradationMonitor::RunStats DegradationMonitor::RunOnce(SimTimeUs /*now*/) {
  RunStats stats;
  ScrubPool(device_->spare_pool(), stats);
  ScrubPool(device_->rescue_pool(), stats);

  // File-level repair: the device's taint tracking identifies files whose
  // *stored* bytes absorbed unrecoverable corruption during a relocation
  // (FtlReadResult::tainted); those are the repair candidates. With a cloud
  // copy the local data is restored; without one the file is counted as at
  // risk ("SOS does not inherently rely on such redundant copies", §4.3).
  if (config_.cloud_repair) {
    Ftl& ftl = device_->ftl();
    fs_->ForEachFile([&](const ExtentFileSystem::FileView& file) {
      if (file.durability != Durability::kDegradable) {
        return;  // only degradable data may rot; critical files stay exact
      }
      bool tainted = false;
      for (const Extent& extent : file.extents) {
        for (uint32_t i = 0; i < extent.blocks && !tainted; ++i) {
          tainted = ftl.IsTainted(extent.lba + i);
        }
        if (tainted) {
          break;
        }
      }
      if (!tainted) {
        return;
      }
      const uint64_t id = file.meta.file_id;
      if (cloud_ != nullptr && cloud_->Has(id)) {
        const std::vector<uint8_t> pristine = cloud_->Fetch(id);
        if (fs_->OverwriteFile(id, pristine).ok()) {
          ++stats.files_repaired;
        }
      } else {
        ++stats.files_at_risk;
      }
    });
  }

  lifetime_.pages_scanned += stats.pages_scanned;
  lifetime_.pages_refreshed += stats.pages_refreshed;
  lifetime_.files_repaired += stats.files_repaired;
  lifetime_.files_at_risk += stats.files_at_risk;
  return stats;
}

// ---------------------------------------------------------------------------
// AutoDeleteManager.
// ---------------------------------------------------------------------------

AutoDeleteManager::AutoDeleteManager(ExtentFileSystem* fs, const BinaryClassifier* deletion_model,
                                     const AutoDeleteConfig& config)
    : fs_(fs), deletion_model_(deletion_model), config_(config) {
  assert(fs_ != nullptr && deletion_model_ != nullptr);
}

double AutoDeleteManager::FreeFraction() const {
  const FsStats stats = fs_->Stats();
  if (stats.capacity_blocks == 0) {
    return 0.0;
  }
  const uint64_t free_blocks =
      stats.capacity_blocks > stats.used_blocks ? stats.capacity_blocks - stats.used_blocks : 0;
  return static_cast<double>(free_blocks) / static_cast<double>(stats.capacity_blocks);
}

AutoDeleteManager::RunStats AutoDeleteManager::RunOnce(SimTimeUs now) {
  RunStats stats;
  const double free_before = FreeFraction();
  if (free_before >= config_.low_water_free) {
    return stats;
  }
  ++stats.activations;
  if (trace_ != nullptr) {
    trace_->Emit(now, "sos.autodelete.activated", [&](obs::TraceEvent& event) {
      event.WithF64("free_fraction", free_before);
    });
  }

  // Rank SPARE-resident files by predicted deletion likelihood. SYS files
  // are never auto-deleted (they are, by classification, critical).
  struct Candidate {
    uint64_t id;
    double score;
    uint64_t bytes;
  };
  std::vector<Candidate> candidates;
  fs_->ForEachFile([&](const ExtentFileSystem::FileView& file) {
    if (file.durability == Durability::kDegradable) {
      const FileMeta& meta = file.meta;
      candidates.push_back({meta.file_id, deletion_model_->Score(meta, now), meta.size_bytes});
    }
  });
  std::sort(candidates.begin(), candidates.end(), [](const Candidate& a, const Candidate& b) {
    return a.score > b.score;
  });

  // First pass deletes only confident predictions; if that cannot restore
  // the high-water mark, SOS "temporarily transforms its data degradation
  // scheme to automatically delete data" (§4.5) -- the score gate is dropped
  // and the remaining SPARE files go in predicted-deletion order.
  for (const bool gated : {true, false}) {
    for (const Candidate& c : candidates) {
      if (FreeFraction() >= config_.high_water_free) {
        break;
      }
      if (gated && c.score < config_.min_delete_score) {
        break;  // candidates are sorted; the rest score lower
      }
      if (!gated && c.score >= config_.min_delete_score) {
        continue;  // already handled by the gated pass
      }
      if (fs_->DeleteFile(c.id).ok()) {
        ++stats.files_deleted;
        stats.bytes_freed += c.bytes;
        if (trace_ != nullptr) {
          trace_->Emit(now, "sos.autodelete.trim", [&](obs::TraceEvent& event) {
            event.WithU64("file_id", c.id).WithF64("score", c.score).WithU64("bytes", c.bytes);
          });
        }
      }
    }
    if (FreeFraction() >= config_.high_water_free) {
      break;
    }
  }
  if (FreeFraction() < config_.high_water_free) {
    ++stats.exhausted;
  }

  lifetime_.activations += stats.activations;
  lifetime_.files_deleted += stats.files_deleted;
  lifetime_.bytes_freed += stats.bytes_freed;
  lifetime_.exhausted += stats.exhausted;
  return stats;
}

}  // namespace sos
