// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/host/cache_workload.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace sos {
namespace {

// Same day-to-day variance model as the mobile generator: a rounded
// gaussian around the mean rate.
uint64_t DailyCount(Rng& rng, double rate) {
  if (rate <= 0.0) {
    return 0;
  }
  const double draw = rng.NextGaussian(rate, std::sqrt(rate));
  return draw <= 0.0 ? 0 : static_cast<uint64_t>(draw + 0.5);
}

}  // namespace

FlashCacheWorkloadGenerator::FlashCacheWorkloadGenerator(const FlashCacheWorkloadConfig& config)
    : config_(config), rng_(DeriveSeed({config.seed, 0x6361636865ull /* "cache" */})) {}

uint64_t FlashCacheWorkloadGenerator::SampleSize() {
  double total = 0.0;
  for (const auto& c : config_.sizes) {
    total += c.weight;
  }
  double draw = rng_.NextDouble() * total;
  for (const auto& c : config_.sizes) {
    draw -= c.weight;
    if (draw <= 0.0) {
      return c.bytes;
    }
  }
  return config_.sizes.empty() ? 4 * kKiB : config_.sizes.back().bytes;
}

uint32_t FlashCacheWorkloadGenerator::SampleTtlDays() {
  double total = 0.0;
  for (const auto& c : config_.ttls) {
    total += c.weight;
  }
  double draw = rng_.NextDouble() * total;
  for (const auto& c : config_.ttls) {
    draw -= c.weight;
    if (draw <= 0.0) {
      return c.days;
    }
  }
  return config_.ttls.empty() ? 1 : config_.ttls.back().days;
}

const FlashCacheWorkloadGenerator::LiveObject* FlashCacheWorkloadGenerator::SampleLive() {
  if (live_.empty()) {
    return nullptr;
  }
  // Cache gets are sharply recency-skewed: most hits land on the newest
  // admissions, the tail spreads over everything still unexpired.
  if (rng_.NextBool(0.8)) {
    const size_t hot = std::max<size_t>(1, live_.size() / 5);
    return &live_[live_.size() - 1 - rng_.NextBounded(hot)];
  }
  return &live_[rng_.NextBounded(live_.size())];
}

void FlashCacheWorkloadGenerator::DropRef(uint64_t file_ref) {
  auto it = std::find_if(live_.begin(), live_.end(),
                         [file_ref](const LiveObject& o) { return o.ref == file_ref; });
  if (it != live_.end()) {
    *it = live_.back();
    live_.pop_back();
    return;
  }
  auto idx = std::find(index_refs_.begin(), index_refs_.end(), file_ref);
  if (idx != index_refs_.end()) {
    index_refs_.erase(idx);
  }
}

std::vector<WorkloadEvent> FlashCacheWorkloadGenerator::Day(uint64_t day_index) {
  std::vector<WorkloadEvent> events;
  const SimTimeUs day_start = day_index * kUsPerDay;
  // Same intra-day causality contract as the mobile generator: admissions,
  // gets and index updates fill the first 23 hours; TTL expiries occupy the
  // final hour, so a time-sorted replay never references a dead object.
  const SimTimeUs active_window = 23 * kUsPerHour;
  auto at_random_time = [&] { return day_start + rng_.NextBounded(active_window); };
  auto at_random_time_after = [&](SimTimeUs t0) {
    const SimTimeUs window_end = day_start + active_window;
    return t0 >= window_end ? t0 : t0 + rng_.NextBounded(window_end - t0);
  };
  auto at_expire_time = [&] {
    return day_start + active_window + rng_.NextBounded(kUsPerDay - active_window);
  };

  // Day zero: create the cache's index files (critical, no TTL).
  if (day_index == 0) {
    for (uint32_t i = 0; i < config_.index_files; ++i) {
      WorkloadEvent ev;
      ev.at = day_start + i;  // deterministic, before any object traffic
      ev.op = WorkloadOp::kCreate;
      ev.file_ref = next_ref_++;
      ev.meta.file_id = ev.file_ref;
      ev.meta.path = "cache/index_" + std::to_string(i);
      ev.meta.type = FileType::kSystem;
      ev.meta.size_bytes = config_.index_file_bytes;
      ev.meta.created_us = ev.at;
      ev.meta.last_modified_us = ev.at;
      ev.meta.last_accessed_us = ev.at;
      ev.meta.entropy_bits_per_byte = 6.0;
      ev.meta.true_priority = Priority::kCritical;
      ev.meta.will_be_deleted = false;
      index_refs_.push_back(ev.file_ref);
      events.push_back(std::move(ev));
    }
  }

  // TTL expiries scheduled before new admissions so today's admissions are
  // never expired today (minimum TTL is one day).
  for (size_t i = 0; i < live_.size();) {
    if (live_[i].expires_day <= day_index) {
      events.push_back({at_expire_time(), WorkloadOp::kDelete, live_[i].ref, {}});
      live_[i] = live_.back();
      live_.pop_back();
    } else {
      ++i;
    }
  }

  // Admissions: each set request passes the admission coin or is dropped
  // before it costs a flash write.
  for (uint64_t i = DailyCount(rng_, config_.objects_per_day); i > 0; --i) {
    if (!rng_.NextBool(config_.admission_ratio)) {
      continue;
    }
    WorkloadEvent ev;
    ev.at = at_random_time();
    ev.op = WorkloadOp::kCreate;
    ev.file_ref = next_ref_++;
    const uint32_t ttl_days = SampleTtlDays();
    ev.meta.file_id = ev.file_ref;
    ev.meta.path = "cache/obj_" + std::to_string(ev.file_ref);
    ev.meta.type = FileType::kCache;
    ev.meta.size_bytes = SampleSize();
    ev.meta.created_us = ev.at;
    ev.meta.last_modified_us = ev.at;
    ev.meta.last_accessed_us = ev.at;
    ev.meta.entropy_bits_per_byte = 8.0;
    ev.meta.true_priority = Priority::kExpendable;
    ev.meta.will_be_deleted = true;
    ev.meta.expected_lifetime_us = static_cast<uint64_t>(ttl_days) * kUsPerDay;
    live_.push_back({ev.file_ref, day_index + ttl_days, ev.at});
    events.push_back(std::move(ev));
  }

  // Gets over unexpired objects.
  for (uint64_t i = DailyCount(rng_, config_.lookups_per_day); i > 0; --i) {
    if (const LiveObject* o = SampleLive()) {
      events.push_back({at_random_time_after(std::max(o->created_at, day_start)),
                        WorkloadOp::kRead, o->ref, {}});
    }
  }

  // Index churn: hot in-place overwrites of the critical metadata files.
  if (!index_refs_.empty()) {
    for (uint64_t i = DailyCount(rng_, config_.index_updates_per_day); i > 0; --i) {
      const uint64_t ref = index_refs_[rng_.NextBounded(index_refs_.size())];
      events.push_back({at_random_time(), WorkloadOp::kUpdate, ref, {}});
    }
  }

  SortByTime(events);
  return events;
}

}  // namespace sos
