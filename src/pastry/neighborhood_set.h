// Pastry neighborhood set: the M nodes closest to the owner according to the
// proximity metric (paper section 2.1). Not used in routing; it seeds
// locality-aware state during node addition.
//
// Members are stored as interned directory indices in a fixed inline array
// (M = 32 in the paper's evaluation) — 4 bytes per member instead of a
// 16-byte id in a heap vector. Ids and distances are resolved through the
// NodeDirectory on the cold paths that need them.
#ifndef SRC_PASTRY_NEIGHBORHOOD_SET_H_
#define SRC_PASTRY_NEIGHBORHOOD_SET_H_

#include <memory>
#include <vector>

#include "src/common/node_id.h"
#include "src/pastry/directory.h"

namespace past {

class NeighborhoodSet {
 public:
  static constexpr int kInlineCapacity = 32;

  // `dir` must be non-null: it owns the id <-> index mapping and the
  // proximity metric (dir->distance may be null: all nodes equidistant,
  // giving insertion order).
  NeighborhoodSet(const NodeId& owner, int capacity, const NodeDirectory* dir);

  // Considers `id`; keeps the `capacity` proximally closest nodes.
  bool Consider(const NodeId& id);
  bool Remove(const NodeId& id);
  bool Contains(const NodeId& id) const;
  // Contains() by interned index: no id resolution per member.
  bool ContainsIndex(uint32_t index) const;

  size_t size() const { return static_cast<size_t>(count_); }

  // Member i by increasing proximity distance.
  const NodeId& member(size_t i) const { return dir_->resolve(dir_->ctx, data()[i]); }
  uint32_t member_index(size_t i) const { return data()[i]; }

  // Materialized member ids (cold paths: joins, dumps, tests).
  std::vector<NodeId> members() const;

 private:
  double DistanceTo(const NodeId& n) const {
    return dir_->distance != nullptr ? dir_->distance(dir_->ctx, owner_, n) : 0.0;
  }
  uint32_t* data() { return spill_ ? spill_->data() : inline_idx_; }
  const uint32_t* data() const { return spill_ ? spill_->data() : inline_idx_; }

  NodeId owner_;
  const NodeDirectory* dir_;
  int capacity_;
  int count_ = 0;
  uint32_t inline_idx_[kInlineCapacity];
  std::unique_ptr<std::vector<uint32_t>> spill_;  // capacity_ > kInlineCapacity
};

}  // namespace past

#endif  // SRC_PASTRY_NEIGHBORHOOD_SET_H_
