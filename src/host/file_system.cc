// Copyright (c) 2026 The SOS Authors. MIT License.

#include "src/host/file_system.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "src/ecc/parity.h"

namespace sos {

ExtentFileSystem::ExtentFileSystem(BlockDevice* device, SimClock* clock)
    : device_(device), clock_(clock) {
  assert(device_ != nullptr && clock_ != nullptr);
  capacity_blocks_ = device_->capacity_blocks();
  device_->SetCapacityListener(
      [this](uint64_t new_capacity) { OnCapacityChange(new_capacity); });
}

std::vector<ExtentFileSystem::IdSlot>::const_iterator ExtentFileSystem::EntryOf(
    uint64_t file_id) const {
  auto it = std::lower_bound(by_id_.begin(), by_id_.end(), file_id,
                             [](const IdSlot& e, uint64_t id) { return e.id < id; });
  return it != by_id_.end() && it->id == file_id ? it : by_id_.end();
}

void ExtentFileSystem::OnCapacityChange(uint64_t new_capacity_blocks) {
  capacity_blocks_ = std::min(capacity_blocks_, new_capacity_blocks);
}

Result<std::vector<Extent>> ExtentFileSystem::Allocate(uint64_t blocks_needed) {
  if (used_blocks_ + blocks_needed > capacity_blocks_) {
    return Status(StatusCode::kOutOfSpace, "file system full");
  }
  std::vector<Extent> extents;
  uint64_t remaining = blocks_needed;
  // Reuse trimmed LBAs first, then extend the frontier.
  while (remaining > 0 && !free_lbas_.empty()) {
    const uint64_t lba = free_lbas_.back();
    free_lbas_.pop_back();
    if (!extents.empty() && extents.back().lba + extents.back().blocks == lba) {
      ++extents.back().blocks;  // merge contiguous
    } else {
      extents.push_back({lba, 1});
    }
    --remaining;
  }
  if (remaining > 0) {
    if (next_unused_lba_ + remaining > capacity_blocks_) {
      // Frontier exhausted even though the budget allowed it (can happen
      // after a shrink); roll back.
      for (const auto& e : extents) {
        for (uint32_t i = 0; i < e.blocks; ++i) {
          free_lbas_.push_back(e.lba + i);
        }
      }
      return Status(StatusCode::kOutOfSpace, "LBA frontier exhausted after capacity shrink");
    }
    extents.push_back({next_unused_lba_, static_cast<uint32_t>(remaining)});
    next_unused_lba_ += remaining;
  }
  used_blocks_ += blocks_needed;
  return extents;
}

void ExtentFileSystem::Release(const std::vector<Extent>& extents) {
  for (const auto& e : extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      free_lbas_.push_back(e.lba + i);
    }
    used_blocks_ -= e.blocks;
  }
}

Result<uint64_t> ExtentFileSystem::CreateFile(FileMeta meta, std::span<const uint8_t> content,
                                              PlacementHandle placement) {
  const uint32_t bs = device_->block_size();
  const uint64_t bytes = std::max<uint64_t>(meta.size_bytes, content.size());
  const uint64_t blocks_needed = std::max<uint64_t>(1, (bytes + bs - 1) / bs);

  auto alloc = Allocate(blocks_needed);
  if (!alloc.ok()) {
    return alloc.status();
  }

  FsFile file;
  file.meta = std::move(meta);
  file.meta.file_id = next_file_id_++;
  file.extents = alloc.value();
  file.placement = placement;
  file.content_crc = Crc32(content);
  file.content_bytes = content.size();
  file.synthetic = content.empty();

  // Write content block by block; blocks past the content are zero-filled.
  uint64_t offset = 0;
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      std::span<const uint8_t> chunk;
      if (offset < content.size()) {
        chunk = content.subspan(offset, std::min<uint64_t>(bs, content.size() - offset));
      }
      if (Status s = device_->Write(e.lba + i, chunk, placement); !s.ok()) {
        Release(file.extents);
        return s;
      }
      ++writes_issued_;
      offset += bs;
    }
  }

  const uint64_t id = file.meta.file_id;
  uint64_t slot = slab_.size();
  if (free_slots_.empty()) {
    slab_.push_back(std::move(file));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(file);
  }
  by_id_.push_back({id, slot});
  return id;
}

Result<FileReadResult> ExtentFileSystem::ReadFile(uint64_t file_id) {
  const auto it = EntryOf(file_id);
  if (it == by_id_.end()) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  FsFile& file = slab_[it->slot];
  FileReadResult result;
  result.data.reserve(file.content_bytes);
  const uint32_t bs = device_->block_size();
  // Synthetic files read their full allocation (the device traffic is what
  // the simulation models); content-bearing files read their content span.
  uint64_t remaining = file.content_bytes;
  if (file.synthetic) {
    remaining = 0;
    for (const auto& e : file.extents) {
      remaining += static_cast<uint64_t>(e.blocks) * bs;
    }
  }
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks && remaining > 0; ++i) {
      auto read = device_->Read(e.lba + i);
      if (!read.ok()) {
        return read.status();
      }
      ++reads_issued_;
      result.residual_bit_errors += read.value().residual_bit_errors;
      result.degraded = result.degraded || read.value().degraded;
      const uint64_t take = std::min<uint64_t>(remaining, bs);
      if (!file.synthetic) {
        const auto& data = read.value().data;
        if (!data.empty()) {
          result.data.insert(
              result.data.end(), data.begin(),
              data.begin() + static_cast<ptrdiff_t>(std::min<uint64_t>(take, data.size())));
        }
      }
      remaining -= take;
    }
  }
  result.crc_ok = file.synthetic
                      ? (!result.degraded && result.residual_bit_errors == 0)
                      : (result.data.size() == file.content_bytes &&
                         Crc32(result.data) == file.content_crc);
  file.meta.last_accessed_us = clock_->now();
  ++file.meta.read_count;
  return result;
}

Status ExtentFileSystem::OverwriteFile(uint64_t file_id, std::span<const uint8_t> content) {
  const auto it = EntryOf(file_id);
  if (it == by_id_.end()) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  FsFile& file = slab_[it->slot];
  const uint32_t bs = device_->block_size();
  uint64_t allocated_bytes = 0;
  for (const auto& e : file.extents) {
    allocated_bytes += static_cast<uint64_t>(e.blocks) * bs;
  }
  if (content.size() > allocated_bytes) {
    return Status(StatusCode::kInvalidArgument, "overwrite larger than allocation");
  }
  // An empty overwrite of a synthetic file rewrites the full allocation.
  const uint64_t rewrite_bytes =
      content.empty() && file.synthetic ? allocated_bytes : content.size();
  uint64_t offset = 0;
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks && offset < rewrite_bytes; ++i) {
      std::span<const uint8_t> chunk;
      if (offset < content.size()) {
        chunk = content.subspan(offset, std::min<uint64_t>(bs, content.size() - offset));
      }
      if (Status s = device_->Write(e.lba + i, chunk, file.placement); !s.ok()) {
        return s;
      }
      ++writes_issued_;
      offset += bs;
    }
  }
  file.content_crc = Crc32(content);
  file.content_bytes = content.size();
  file.synthetic = content.empty() && file.synthetic;
  file.meta.last_modified_us = clock_->now();
  ++file.meta.write_count;
  return Status::Ok();
}

Status ExtentFileSystem::DeleteFile(uint64_t file_id) {
  const auto it = EntryOf(file_id);
  if (it == by_id_.end()) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  FsFile& file = slab_[it->slot];
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      IgnoreResult(device_->Trim(e.lba + i));  // trim failures are advisory
    }
  }
  Release(file.extents);
  file = FsFile{};
  free_slots_.push_back(it->slot);
  by_id_.erase(it);
  return Status::Ok();
}

Status ExtentFileSystem::ReclassifyFile(uint64_t file_id, PlacementHandle placement) {
  const auto it = EntryOf(file_id);
  if (it == by_id_.end()) {
    return Status(StatusCode::kNotFound, "no such file");
  }
  FsFile& file = slab_[it->slot];
  if (file.placement == placement) {
    return Status::Ok();
  }
  for (const auto& e : file.extents) {
    for (uint32_t i = 0; i < e.blocks; ++i) {
      if (Status s = device_->Reclassify(e.lba + i, placement); !s.ok()) {
        return s;
      }
    }
  }
  file.placement = placement;
  return Status::Ok();
}

const FileMeta* ExtentFileSystem::Lookup(uint64_t file_id) const {
  const auto it = EntryOf(file_id);
  return it == by_id_.end() ? nullptr : &slab_[it->slot].meta;
}

PlacementHandle ExtentFileSystem::PlacementOf(uint64_t file_id) const {
  const auto it = EntryOf(file_id);
  assert(it != by_id_.end());
  return slab_[it->slot].placement;
}

std::vector<const FileMeta*> ExtentFileSystem::ScanFiles() const {
  std::vector<const FileMeta*> metas;
  metas.reserve(by_id_.size());
  for (const IdSlot& e : by_id_) {
    metas.push_back(&slab_[e.slot].meta);
  }
  return metas;
}

void ExtentFileSystem::ForEachFile(const std::function<void(const FileView&)>& fn) const {
  // Handle -> durability for this walk. Exact because during the walk only
  // `fn` touches handles and it never closes one, so a handle that described
  // as open keeps its spec until the walk ends. Failed describes are not
  // memoized: `fn` may open that slot mid-walk.
  std::array<std::optional<Durability>, kMaxPlacementHandles> memo{};
  for (const IdSlot& e : by_id_) {
    const FsFile& file = slab_[e.slot];
    const uint32_t slot = file.placement.id();  // kInvalidId for no handle
    std::optional<Durability> durability = slot < memo.size() ? memo[slot] : std::nullopt;
    if (!durability.has_value()) {
      if (auto spec = device_->DescribePlacement(file.placement); spec.ok()) {
        durability = spec.value().durability;
        if (slot < memo.size()) {
          memo[slot] = durability;
        }
      }
    }
    fn(FileView{file.meta, file.placement, durability, file.extents});
  }
}

FsStats ExtentFileSystem::Stats() const {
  FsStats stats;
  stats.files = by_id_.size();
  stats.used_blocks = used_blocks_;
  stats.capacity_blocks = capacity_blocks_;
  stats.writes_issued = writes_issued_;
  stats.reads_issued = reads_issued_;
  stats.overcommitted = used_blocks_ > capacity_blocks_;
  return stats;
}

uint64_t ExtentFileSystem::FreeBlocks() const {
  return capacity_blocks_ > used_blocks_ ? capacity_blocks_ - used_blocks_ : 0;
}

}  // namespace sos
