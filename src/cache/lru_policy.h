// Least-Recently-Used eviction, the comparison baseline in Figure 8.
//
// Data structure: a SlotMap holds one {id, prev, next} record per file, and
// the records form a doubly linked recency list through uint32_t handles
// (most recent at the head). Every operation is one index probe plus O(1)
// link updates; none allocates except when the slab or index grows.
#ifndef SRC_CACHE_LRU_POLICY_H_
#define SRC_CACHE_LRU_POLICY_H_

#include "src/cache/eviction_policy.h"
#include "src/cache/slot_map.h"

namespace past {

class LruPolicy : public EvictionPolicy {
 public:
  void OnInsert(const FileId& id, uint64_t size) override;
  void OnHit(const FileId& id, uint64_t size) override;
  void OnRemove(const FileId& id) override;
  std::optional<FileId> EvictVictim() override;
  std::string name() const override { return "LRU"; }

 private:
  struct Slot {
    FileId id;
    uint32_t prev = kNoHandle;  // toward the head (more recent)
    uint32_t next = kNoHandle;  // toward the tail (less recent)
  };

  void Touch(const FileId& id);
  void Unlink(uint32_t handle);
  void PushFront(uint32_t handle);

  SlotMap<Slot> slots_;
  uint32_t head_ = kNoHandle;  // most recent
  uint32_t tail_ = kNoHandle;  // least recent: the next victim
};

}  // namespace past

#endif  // SRC_CACHE_LRU_POLICY_H_
