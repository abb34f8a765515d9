// SlotMap: the flat id -> record store under the eviction policies.
//
// Records live in one contiguous slab and are named by a uint32_t handle
// (their slab index); a FlatTable maps each FileId to its handle, and freed
// handles are reused from a stack, so the slab never holds holes for long.
// A policy links its records by handle (heap positions, list links), which
// costs no hash probe and no allocation per link, unlike node-based
// containers that allocate one heap node per entry.
//
// `Slot` must have a `FileId id` member; SlotMap sets it in FindOrAdd and
// reads it in Release. Handles stay valid until released; references into
// the slab do not survive a FindOrAdd (the slab may grow).
#ifndef SRC_CACHE_SLOT_MAP_H_
#define SRC_CACHE_SLOT_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/file_id.h"
#include "src/common/flat_table.h"

namespace past {

// No record: what Find returns for an absent id, and the policies' null link.
inline constexpr uint32_t kNoHandle = UINT32_MAX;

template <typename Slot>
class SlotMap {
 public:
  // The handle of `id`, or kNoHandle.
  uint32_t Find(const FileId& id) const {
    const uint32_t* handle = index_.Find(id);
    return handle == nullptr ? kNoHandle : *handle;
  }

  // The handle of `id`, adding a default record for it when absent (one
  // probe either way). `.second` is true when the record is new.
  std::pair<uint32_t, bool> FindOrAdd(const FileId& id) {
    auto [handle, inserted] = index_.TryEmplace(id, 0);
    if (!inserted) {
      return {*handle, false};
    }
    if (free_.empty()) {
      *handle = static_cast<uint32_t>(slab_.size());
      slab_.emplace_back();
    } else {
      *handle = free_.back();
      free_.pop_back();
      slab_[*handle] = Slot();
    }
    slab_[*handle].id = id;
    return {*handle, true};
  }

  // Drops the record and its index entry; `handle` may be reused by the
  // next FindOrAdd.
  void Release(uint32_t handle) {
    index_.Erase(slab_[handle].id);
    free_.push_back(handle);
  }

  Slot& operator[](uint32_t handle) { return slab_[handle]; }
  const Slot& operator[](uint32_t handle) const { return slab_[handle]; }

 private:
  FlatTable<FileId, uint32_t, FileIdHash> index_;
  std::vector<Slot> slab_;
  std::vector<uint32_t> free_;
};

}  // namespace past

#endif  // SRC_CACHE_SLOT_MAP_H_
