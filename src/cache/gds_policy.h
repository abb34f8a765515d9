// GreedyDual-Size eviction (paper section 4; Cao & Irani, USITS'97).
//
// Each cached file d carries a weight H_d = L + c(d)/s(d), where c(d) is the
// retrieval cost (1 in PAST, maximizing hit rate), s(d) the file size, and L
// an inflation value. The victim is the file with minimal H; on eviction L
// rises to the victim's H. This "inflation" formulation is arithmetically
// identical to the paper's description (subtracting H_victim from all
// remaining weights) but runs in O(log n) per operation.
//
// Data structure: a SlotMap holds one {H, id, heap position} record per file,
// and a 4-ary min-heap of uint32_t record handles orders them by (H, id). The
// fileId tie-break makes the order strict, so the victim is always unique and
// independent of insertion history. A sift moves handles and writes each
// moved record's heap position directly, with no hash probe per level.
// Costs, for n tracked files: OnInsert, OnRemove and EvictVictim are one
// index probe plus O(log4 n) sift steps; OnHit is one probe plus a sift
// down only (L never falls, so a hit at the file's own size never lowers H);
// no operation allocates except when the slab, heap or index grows.
#ifndef SRC_CACHE_GDS_POLICY_H_
#define SRC_CACHE_GDS_POLICY_H_

#include <vector>

#include "src/cache/eviction_policy.h"
#include "src/cache/slot_map.h"

namespace past {

class GdsPolicy : public EvictionPolicy {
 public:
  // `cost` is c(d), identical for all files (PAST sets it to 1).
  explicit GdsPolicy(double cost = 1.0) : cost_(cost) {}

  void OnInsert(const FileId& id, uint64_t size) override;
  void OnHit(const FileId& id, uint64_t size) override;
  void OnRemove(const FileId& id) override;
  std::optional<FileId> EvictVictim() override;
  std::string name() const override { return "GD-S"; }

  double inflation() const { return inflation_; }

 private:
  struct Slot {
    double h = 0.0;  // H_d
    FileId id;
    uint32_t heap_pos = 0;
  };

  void Enqueue(const FileId& id, uint64_t size);
  // True when record `a` is evicted before record `b`: (H, id) order.
  bool Before(uint32_t a, uint32_t b) const {
    const Slot& x = slots_[a];
    const Slot& y = slots_[b];
    return x.h < y.h || (x.h == y.h && x.id < y.id);
  }
  void Place(size_t pos, uint32_t handle) {
    heap_[pos] = handle;
    slots_[handle].heap_pos = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);
  // Takes the handle at heap position `pos` out of the heap.
  void HeapErase(size_t pos);

  double cost_;
  double inflation_ = 0.0;  // L
  SlotMap<Slot> slots_;
  std::vector<uint32_t> heap_;  // 4-ary min-heap of record handles
};

}  // namespace past

#endif  // SRC_CACHE_GDS_POLICY_H_
