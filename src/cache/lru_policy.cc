#include "src/cache/lru_policy.h"

namespace past {

void LruPolicy::Unlink(uint32_t handle) {
  Slot& slot = slots_[handle];
  (slot.prev == kNoHandle ? head_ : slots_[slot.prev].next) = slot.next;
  (slot.next == kNoHandle ? tail_ : slots_[slot.next].prev) = slot.prev;
}

void LruPolicy::PushFront(uint32_t handle) {
  Slot& slot = slots_[handle];
  slot.prev = kNoHandle;
  slot.next = head_;
  (head_ == kNoHandle ? tail_ : slots_[head_].prev) = handle;
  head_ = handle;
}

void LruPolicy::Touch(const FileId& id) {
  auto [handle, added] = slots_.FindOrAdd(id);
  if (!added) {
    Unlink(handle);
  }
  PushFront(handle);
}

void LruPolicy::OnInsert(const FileId& id, uint64_t size) {
  (void)size;
  Touch(id);
}

void LruPolicy::OnHit(const FileId& id, uint64_t size) {
  (void)size;
  Touch(id);
}

void LruPolicy::OnRemove(const FileId& id) {
  uint32_t handle = slots_.Find(id);
  if (handle == kNoHandle) {
    return;
  }
  Unlink(handle);
  slots_.Release(handle);
}

std::optional<FileId> LruPolicy::EvictVictim() {
  if (tail_ == kNoHandle) {
    return std::nullopt;
  }
  const uint32_t handle = tail_;
  FileId victim = slots_[handle].id;
  Unlink(handle);
  slots_.Release(handle);
  return victim;
}

}  // namespace past
