#include "src/pastry/neighborhood_set.h"

#include <algorithm>

namespace past {

NeighborhoodSet::NeighborhoodSet(const NodeId& owner, int capacity, const NodeDirectory* dir)
    : owner_(owner), dir_(dir), capacity_(capacity) {
  if (capacity_ > kInlineCapacity) {
    spill_ = std::make_unique<std::vector<uint32_t>>(static_cast<size_t>(capacity_),
                                                     kInvalidNodeIndex);
  }
}

bool NeighborhoodSet::Consider(const NodeId& id) {
  if (id == owner_ || Contains(id)) {
    return false;
  }
  // Without a proximity metric every node is equidistant (insertion order).
  double d = DistanceTo(id);
  uint32_t* a = data();
  int lo = 0;
  int hi = count_;
  while (lo < hi) {
    int mid = (lo + hi) / 2;
    if (DistanceTo(dir_->resolve(dir_->ctx, a[mid])) < d) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  int pos = lo;
  if (count_ >= capacity_ && pos == count_) {
    return false;
  }
  uint32_t interned = dir_->intern(dir_->ctx, id);
  if (count_ == capacity_) {
    // Insert at pos and evict the farthest member in one shift.
    for (int i = count_ - 1; i > pos; --i) {
      a[i] = a[i - 1];
    }
    a[pos] = interned;
  } else {
    for (int i = count_; i > pos; --i) {
      a[i] = a[i - 1];
    }
    a[pos] = interned;
    ++count_;
  }
  return true;
}

bool NeighborhoodSet::Remove(const NodeId& id) {
  uint32_t* a = data();
  for (int i = 0; i < count_; ++i) {
    if (dir_->resolve(dir_->ctx, a[i]) == id) {
      for (int j = i; j + 1 < count_; ++j) {
        a[j] = a[j + 1];
      }
      --count_;
      return true;
    }
  }
  return false;
}

bool NeighborhoodSet::Contains(const NodeId& id) const {
  const uint32_t* a = data();
  for (int i = 0; i < count_; ++i) {
    if (dir_->resolve(dir_->ctx, a[i]) == id) {
      return true;
    }
  }
  return false;
}

bool NeighborhoodSet::ContainsIndex(uint32_t index) const {
  const uint32_t* a = data();
  return std::find(a, a + count_, index) != a + count_;
}

std::vector<NodeId> NeighborhoodSet::members() const {
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(count_));
  for (int i = 0; i < count_; ++i) {
    out.push_back(dir_->resolve(dir_->ctx, data()[i]));
  }
  return out;
}

}  // namespace past
