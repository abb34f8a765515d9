#include "src/cache/gds_policy.h"

#include <algorithm>

namespace past {

namespace {
constexpr size_t kArity = 4;
}  // namespace

void GdsPolicy::SiftUp(size_t pos) {
  const uint32_t handle = heap_[pos];
  while (pos > 0) {
    size_t parent = (pos - 1) / kArity;
    if (!Before(handle, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, handle);
}

void GdsPolicy::SiftDown(size_t pos) {
  const uint32_t handle = heap_[pos];
  const size_t n = heap_.size();
  for (;;) {
    size_t first = pos * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t best = first;
    for (size_t c = first + 1; c < std::min(first + kArity, n); ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!Before(heap_[best], handle)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, handle);
}

void GdsPolicy::HeapErase(size_t pos) {
  const uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;
  }
  const uint32_t removed = heap_[pos];
  Place(pos, last);
  if (Before(last, removed)) {
    SiftUp(pos);
  } else {
    SiftDown(pos);
  }
}

void GdsPolicy::Enqueue(const FileId& id, uint64_t size) {
  double h = inflation_ + cost_ / std::max<double>(1.0, static_cast<double>(size));
  auto [handle, added] = slots_.FindOrAdd(id);
  if (added) {
    slots_[handle].h = h;
    heap_.push_back(handle);
    SiftUp(heap_.size() - 1);
    return;
  }
  // A re-weight normally rises (L only grows), but a caller may pass a new
  // size; sift whichever way the weight moved.
  double old = slots_[handle].h;
  slots_[handle].h = h;
  if (h < old) {
    SiftUp(slots_[handle].heap_pos);
  } else {
    SiftDown(slots_[handle].heap_pos);
  }
}

void GdsPolicy::OnInsert(const FileId& id, uint64_t size) { Enqueue(id, size); }

void GdsPolicy::OnHit(const FileId& id, uint64_t size) { Enqueue(id, size); }

void GdsPolicy::OnRemove(const FileId& id) {
  uint32_t handle = slots_.Find(id);
  if (handle == kNoHandle) {
    return;
  }
  HeapErase(slots_[handle].heap_pos);
  slots_.Release(handle);
}

std::optional<FileId> GdsPolicy::EvictVictim() {
  if (heap_.empty()) {
    return std::nullopt;
  }
  const uint32_t handle = heap_.front();
  FileId victim = slots_[handle].id;
  inflation_ = slots_[handle].h;  // L := H_victim
  HeapErase(0);
  slots_.Release(handle);
  return victim;
}

}  // namespace past
