// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/host/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace sos {
namespace {

bool IsDeleteProneType(FileType type) {
  return type == FileType::kCache || type == FileType::kDownload;
}

// Poisson-ish count for a day with mean `rate` (exponential gaps would be
// overkill; a rounded gaussian around the mean captures day-to-day variance).
uint64_t DailyCount(Rng& rng, double rate) {
  if (rate <= 0.0) {
    return 0;
  }
  const double draw = rng.NextGaussian(rate, std::sqrt(rate));
  return draw <= 0.0 ? 0 : static_cast<uint64_t>(draw + 0.5);
}

}  // namespace

void SortByTime(std::vector<WorkloadEvent>& events) {
  struct Key {
    SimTimeUs at;
    size_t index;
  };
  std::vector<Key> keys;
  keys.reserve(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    keys.push_back({events[i].at, i});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) { return a.at < b.at; });
  // Slot i takes events[keys[i].index]: walk each cycle of the permutation
  // once, marking a slot done by pointing its key at itself.
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].index == i) {
      continue;
    }
    WorkloadEvent held = std::move(events[i]);
    size_t j = i;
    while (keys[j].index != i) {
      const size_t from = keys[j].index;
      events[j] = std::move(events[from]);
      keys[j].index = j;
      j = from;
    }
    events[j] = std::move(held);
    keys[j].index = j;
  }
}

MobileWorkloadGenerator::MobileWorkloadGenerator(const MobileWorkloadConfig& config)
    : config_(config), rng_(DeriveSeed({config.seed, 0x776f726b6c6f6164ull /* "workload" */})) {}

void MobileWorkloadGenerator::EmitCreate(std::vector<WorkloadEvent>& events, FileType type,
                                         SimTimeUs at) {
  WorkloadEvent ev;
  ev.at = at;
  ev.op = WorkloadOp::kCreate;
  ev.file_ref = next_ref_++;
  ev.meta = SynthesizeFile(type, at, config_.label_noise, rng_);
  ev.meta.file_id = ev.file_ref;
  live_.push_back({ev.file_ref, type, at, IsDeleteProneType(type) || ev.meta.will_be_deleted});
  events.push_back(std::move(ev));
}

const MobileWorkloadGenerator::LiveFile* MobileWorkloadGenerator::SampleLive() {
  if (live_.empty()) {
    return nullptr;
  }
  // Recency bias: 70% of accesses hit the newest 20% of files (hot camera
  // roll, active apps), the rest spread uniformly over the archive.
  if (rng_.NextBool(0.7)) {
    const size_t hot = std::max<size_t>(1, live_.size() / 5);
    return &live_[live_.size() - 1 - rng_.NextBounded(hot)];
  }
  return &live_[rng_.NextBounded(live_.size())];
}

const MobileWorkloadGenerator::LiveFile* MobileWorkloadGenerator::SampleDeletable() {
  // A few probes suffice; delete-prone files are common in steady state.
  for (int probe = 0; probe < 8; ++probe) {
    if (live_.empty()) {
      return nullptr;
    }
    const LiveFile* candidate = &live_[rng_.NextBounded(live_.size())];
    if (candidate->delete_prone) {
      return candidate;
    }
  }
  return nullptr;
}

void MobileWorkloadGenerator::DropRef(uint64_t file_ref) {
  auto it = std::find_if(live_.begin(), live_.end(),
                         [file_ref](const LiveFile& f) { return f.ref == file_ref; });
  if (it != live_.end()) {
    *it = live_.back();
    live_.pop_back();
  }
}

std::vector<WorkloadEvent> MobileWorkloadGenerator::Day(uint64_t day_index) {
  std::vector<WorkloadEvent> events;
  const SimTimeUs day_start = day_index * kUsPerDay;
  // Causality within a day: creates/reads/updates happen in the first 23
  // hours (reads of a file created today are timestamped after its create),
  // deletes occupy the final hour. Sorting by time then never yields a
  // reference to a file that does not exist yet or was already deleted.
  const SimTimeUs active_window = 23 * kUsPerHour;
  auto at_random_time = [&] { return day_start + rng_.NextBounded(active_window); };
  auto at_random_time_after = [&](SimTimeUs t0) {
    const SimTimeUs window_end = day_start + active_window;
    return t0 >= window_end ? t0 : t0 + rng_.NextBounded(window_end - t0);
  };
  auto at_delete_time = [&] {
    return day_start + active_window + rng_.NextBounded(kUsPerDay - active_window);
  };
  const double w = config_.intensity;

  // Creates.
  struct CreateRate {
    FileType type;
    double per_day;
  };
  const CreateRate create_rates[] = {
      {FileType::kPhoto, config_.photos_per_day * w},
      {FileType::kVideo, config_.videos_per_week / 7.0 * w},
      {FileType::kAudio, config_.audio_per_week / 7.0 * w},
      {FileType::kDocument, config_.documents_per_week / 7.0 * w},
      {FileType::kDownload, config_.downloads_per_week / 7.0 * w},
      {FileType::kAppData, config_.app_installs_per_week / 7.0 * w},
      {FileType::kCache, config_.cache_files_per_day * w},
  };
  for (const auto& rate : create_rates) {
    const uint64_t count = DailyCount(rng_, rate.per_day);
    for (uint64_t i = 0; i < count; ++i) {
      EmitCreate(events, rate.type, at_random_time());
    }
  }

  // Reads (ordered after the target's create when it was created today).
  for (uint64_t i = DailyCount(rng_, config_.reads_per_day); i > 0; --i) {
    if (const LiveFile* f = SampleLive()) {
      events.push_back(
          {at_random_time_after(std::max(f->created_at, day_start)), WorkloadOp::kRead, f->ref, {}});
    }
  }

  // In-place updates (app state, caches): target writable types.
  for (uint64_t i = DailyCount(rng_, config_.app_updates_per_day * w); i > 0; --i) {
    for (int probe = 0; probe < 8; ++probe) {
      const LiveFile* f = SampleLive();
      if (f != nullptr &&
          (f->type == FileType::kAppData || f->type == FileType::kCache)) {
        events.push_back({at_random_time_after(std::max(f->created_at, day_start)),
                          WorkloadOp::kUpdate, f->ref, {}});
        break;
      }
    }
  }

  // Deletes.
  for (uint64_t i = DailyCount(rng_, config_.deletes_per_day * w); i > 0; --i) {
    if (const LiveFile* f = SampleDeletable()) {
      const uint64_t ref = f->ref;
      events.push_back({at_delete_time(), WorkloadOp::kDelete, ref, {}});
      DropRef(ref);
    }
  }

  SortByTime(events);
  return events;
}

// ---------------------------------------------------------------------------
// Trace serialization.
// ---------------------------------------------------------------------------

std::string SerializeTrace(const std::vector<WorkloadEvent>& events) {
  std::string out;
  char line[512];
  for (const auto& ev : events) {
    switch (ev.op) {
      case WorkloadOp::kCreate:
        std::snprintf(line, sizeof(line),
                      "C %llu %llu %d %llu %.4f %.4f %d %d %s\n",
                      static_cast<unsigned long long>(ev.at),
                      static_cast<unsigned long long>(ev.file_ref),
                      static_cast<int>(ev.meta.type),
                      static_cast<unsigned long long>(ev.meta.size_bytes),
                      ev.meta.entropy_bits_per_byte, ev.meta.personal_signal,
                      ev.meta.true_priority == Priority::kExpendable ? 1 : 0,
                      ev.meta.will_be_deleted ? 1 : 0, ev.meta.path.c_str());
        break;
      case WorkloadOp::kRead:
        std::snprintf(line, sizeof(line), "R %llu %llu\n",
                      static_cast<unsigned long long>(ev.at),
                      static_cast<unsigned long long>(ev.file_ref));
        break;
      case WorkloadOp::kUpdate:
        std::snprintf(line, sizeof(line), "U %llu %llu\n",
                      static_cast<unsigned long long>(ev.at),
                      static_cast<unsigned long long>(ev.file_ref));
        break;
      case WorkloadOp::kDelete:
        std::snprintf(line, sizeof(line), "D %llu %llu\n",
                      static_cast<unsigned long long>(ev.at),
                      static_cast<unsigned long long>(ev.file_ref));
        break;
    }
    out += line;
  }
  return out;
}

std::vector<WorkloadEvent> ParseTrace(const std::string& text) {
  std::vector<WorkloadEvent> events;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    WorkloadEvent ev;
    std::istringstream ls(line);
    char op = 0;
    unsigned long long at = 0;
    unsigned long long ref = 0;
    ls >> op >> at >> ref;
    ev.at = at;
    ev.file_ref = ref;
    switch (op) {
      case 'C': {
        ev.op = WorkloadOp::kCreate;
        int type = 0;
        unsigned long long size = 0;
        int expendable = 0;
        int deleted = 0;
        ls >> type >> size >> ev.meta.entropy_bits_per_byte >> ev.meta.personal_signal >>
            expendable >> deleted >> ev.meta.path;
        ev.meta.type = static_cast<FileType>(type);
        ev.meta.size_bytes = size;
        ev.meta.file_id = ref;
        ev.meta.created_us = ev.at;
        ev.meta.last_modified_us = ev.at;
        ev.meta.last_accessed_us = ev.at;
        ev.meta.true_priority = expendable != 0 ? Priority::kExpendable : Priority::kCritical;
        ev.meta.will_be_deleted = deleted != 0;
        break;
      }
      case 'R':
        ev.op = WorkloadOp::kRead;
        break;
      case 'U':
        ev.op = WorkloadOp::kUpdate;
        break;
      case 'D':
        ev.op = WorkloadOp::kDelete;
        break;
      default:
        continue;  // skip malformed lines
    }
    events.push_back(std::move(ev));
  }
  return events;
}

}  // namespace sos
