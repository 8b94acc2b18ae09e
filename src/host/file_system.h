// Copyright (c) 2026 The SOS Authors. MIT License.
//
// Extent-based file system over a BlockDevice.
//
// A deliberately small FS -- flat namespace keyed by file id, block-granular
// extents, no journaling -- because what SOS needs from the host FS is
// exactly three things (paper §4.2-4.3):
//   1. per-file placement: every write carries the file's PlacementHandle,
//   2. re-classification: re-declare a whole file's placement (demotion to
//      approximate storage, promotion back),
//   3. capacity variance: tolerate the device shrinking underneath it.
// File content integrity is tracked with a CRC32 of the written content, so
// reads can report whether degradation touched the file.

#ifndef SOS_SRC_HOST_FILE_SYSTEM_H_
#define SOS_SRC_HOST_FILE_SYSTEM_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "src/classify/file_meta.h"
#include "src/common/sim_clock.h"
#include "src/common/status.h"
#include "src/host/block_device.h"

namespace sos {

struct Extent {
  uint64_t lba = 0;
  uint32_t blocks = 0;
};

struct FileReadResult {
  std::vector<uint8_t> data;          // possibly degraded content
  uint64_t residual_bit_errors = 0;   // total across the file's blocks
  bool degraded = false;              // any block returned degraded
  bool crc_ok = true;                 // matches the CRC at write time
};

struct FsStats {
  uint64_t files = 0;
  uint64_t used_blocks = 0;
  uint64_t capacity_blocks = 0;   // current device capacity
  uint64_t writes_issued = 0;
  uint64_t reads_issued = 0;
  // True when a capacity shrink left the FS overcommitted (used > capacity);
  // the host must delete data to recover (SOS auto-delete hooks in here).
  bool overcommitted = false;
};

class ExtentFileSystem {
 public:
  // `device` and `clock` must outlive the file system.
  ExtentFileSystem(BlockDevice* device, SimClock* clock);

  // Creates a file and writes `content` under the open placement handle
  // `placement` (the caller keeps it open for the file's lifetime --
  // PlacementDirectory memoizes this). Empty content marks the file
  // *synthetic*: it occupies meta.size_bytes of logical space and all device
  // traffic (writes, reads, rewrites) touches every allocated block, but no
  // bytes are retained -- the mode used by large metadata-only simulations.
  // Fails with kOutOfSpace when full. Returns the file id.
  [[nodiscard]] Result<uint64_t> CreateFile(FileMeta meta, std::span<const uint8_t> content,
                              PlacementHandle placement);

  // Reads the whole file, updating access statistics.
  [[nodiscard]] Result<FileReadResult> ReadFile(uint64_t file_id);

  // Overwrites content in place (same extents, same placement). Content must
  // not exceed the original allocation. Empty content on a synthetic file
  // rewrites every allocated block (an in-place update at full size).
  [[nodiscard]] Status OverwriteFile(uint64_t file_id, std::span<const uint8_t> content);

  // Deletes the file and trims its blocks.
  [[nodiscard]] Status DeleteFile(uint64_t file_id);

  // Re-declares the file's placement; the device migrates each of its
  // blocks. A no-op when the file already holds this handle.
  [[nodiscard]] Status ReclassifyFile(uint64_t file_id, PlacementHandle placement);

  // --- Introspection -------------------------------------------------------
  //
  // The pointers Lookup and ScanFiles return, and the references in a
  // FileView, stay valid until the next CreateFile or DeleteFile (a create
  // may move every file in the table).

  // The file's metadata, or nullptr for an id that is not live.
  const FileMeta* Lookup(uint64_t file_id) const;
  PlacementHandle PlacementOf(uint64_t file_id) const;
  FsStats Stats() const;
  uint64_t FreeBlocks() const;

  // All file metadata in id order (the training set of periodic retraining).
  std::vector<const FileMeta*> ScanFiles() const;

  // One live file as ForEachFile presents it.
  struct FileView {
    const FileMeta& meta;
    PlacementHandle placement;
    // Durability of the spec behind `placement`; empty when the handle was
    // closed out from under the file.
    std::optional<Durability> durability;
    // The file's allocated extents (device-level daemons map them to LBAs).
    std::span<const Extent> extents;
  };

  // Visits every live file once, in ascending id order. Each open handle is
  // described at most once per walk. `fn` may reclassify or overwrite the
  // visited file and may open placement handles, but must not create or
  // delete files or close handles.
  void ForEachFile(const std::function<void(const FileView&)>& fn) const;

 private:
  struct FsFile {
    FileMeta meta;
    std::vector<Extent> extents;
    PlacementHandle placement;  // open handle the file was last written under
    uint32_t content_crc = 0;
    uint64_t content_bytes = 0;  // bytes actually written (for CRC check)
    bool synthetic = false;      // sized-but-empty content (metadata-only sims)
  };

  // One live file's place in the slab. `by_id_` holds one per live file,
  // sorted by id.
  struct IdSlot {
    uint64_t id = 0;
    uint64_t slot = 0;
  };

  // The file's entry in `by_id_`, or by_id_.end() when it is not live.
  std::vector<IdSlot>::const_iterator EntryOf(uint64_t file_id) const;

  [[nodiscard]] Result<std::vector<Extent>> Allocate(uint64_t blocks_needed);
  void Release(const std::vector<Extent>& extents);
  void OnCapacityChange(uint64_t new_capacity_blocks);

  BlockDevice* device_;
  SimClock* clock_;
  // The file table: files live in slab slots, and a deleted file's slot is
  // reused by the next create. Ids only grow, so a create appends to
  // `by_id_` and a walk of `by_id_` visits files in id order.
  std::vector<FsFile> slab_;
  std::vector<uint64_t> free_slots_;  // LIFO
  std::vector<IdSlot> by_id_;
  std::vector<uint64_t> free_lbas_;  // LIFO free list
  uint64_t next_unused_lba_ = 0;     // bump allocator frontier
  uint64_t capacity_blocks_ = 0;     // tracks device shrink
  uint64_t used_blocks_ = 0;
  uint64_t next_file_id_ = 1;
  uint64_t writes_issued_ = 0;
  uint64_t reads_issued_ = 0;
};

}  // namespace sos

#endif  // SOS_SRC_HOST_FILE_SYSTEM_H_
