#include "checks.h"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace perfbench {

using past::FileId;
using past::NodeId;
using past::uint128;

namespace {

uint128 Circular(uint128 a, uint128 b) {
  uint128 forward = a - b;
  uint128 backward = b - a;
  return forward < backward ? forward : backward;
}

// True when `a` is closer to `key` than `b` (ties: smaller id).
bool Closer(const NodeId& a, const NodeId& b, const NodeId& key) {
  uint128 da = Circular(a.value(), key.value());
  uint128 db = Circular(b.value(), key.value());
  return da != db ? da < db : a.value() < b.value();
}

}  // namespace

std::vector<NodeId> KClosest(const std::vector<NodeId>& sorted_ids, const NodeId& key, size_t k) {
  std::vector<NodeId> out;
  size_t n = sorted_ids.size();
  k = std::min(k, n);
  if (k == 0) {
    return out;
  }
  size_t pos = static_cast<size_t>(
      std::lower_bound(sorted_ids.begin(), sorted_ids.end(), key,
                       [](const NodeId& a, const NodeId& b) { return a.value() < b.value(); }) -
      sorted_ids.begin());
  // Two cursors walking away from the key's insertion point, wrapping.
  size_t right = pos % n;
  size_t left = (pos + n - 1) % n;
  while (out.size() < k) {
    if (out.size() + 1 == n || left == right) {
      out.push_back(sorted_ids[right]);  // the last node left on the ring
      break;
    }
    if (Closer(sorted_ids[left], sorted_ids[right], key)) {
      out.push_back(sorted_ids[left]);
      left = (left + n - 1) % n;
    } else {
      out.push_back(sorted_ids[right]);
      right = (right + 1) % n;
    }
  }
  return out;
}

void CheckPlacement(past::PastNetwork& network, const std::vector<StoredFile>& files, size_t k,
                    Report& report) {
  std::vector<NodeId> live;
  for (const NodeId& id : network.StorageNodeIds()) {
    if (network.overlay().IsAlive(id)) {
      live.push_back(id);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const NodeId& a, const NodeId& b) { return a.value() < b.value(); });

  // Replica census over every live store.
  std::unordered_map<FileId, uint32_t, past::FileIdHash> replicas;
  uint64_t used = 0;
  uint64_t capacity = 0;
  uint64_t entries = 0;
  for (const NodeId& id : live) {
    const past::PastNode* node = network.storage_node(id);
    if (!report.Check(node != nullptr, "live node " + id.ToHex() + " has no store")) {
      continue;
    }
    used += node->store().used();
    capacity += node->store().capacity();
    for (const auto& [file, entry] : node->store().replicas()) {
      (void)entry;
      ++replicas[file];
      ++entries;
    }
  }

  uint64_t stored_bytes = 0;
  size_t missing_holders = 0;
  size_t wrong_counts = 0;
  std::string first_missing;
  std::string first_wrong_count;
  for (const StoredFile& f : files) {
    stored_bytes += f.size;
    auto it = replicas.find(f.id);
    uint32_t count = it == replicas.end() ? 0 : it->second;
    if (count != k && wrong_counts++ == 0) {
      first_wrong_count = f.id.ToHex() + " has " + std::to_string(count);
    }
    for (const NodeId& t : KClosest(live, f.id.ToRoutingKey(), k)) {
      const past::PastNode* node = network.storage_node(t);
      bool ok = node != nullptr && node->store().HasReplica(f.id);
      if (!ok && node != nullptr) {
        const past::DiversionPointer* ptr = node->store().GetPointer(f.id);
        const past::PastNode* holder =
            ptr == nullptr ? nullptr : network.storage_node(ptr->holder);
        ok = holder != nullptr && network.overlay().IsAlive(ptr->holder) &&
             holder->store().HasReplica(f.id);
      }
      if (!ok && missing_holders++ == 0) {
        first_missing = "first: " + f.id.ToHex() + " at node " + t.ToHex();
      }
    }
  }
  report.Check(missing_holders == 0,
               std::to_string(missing_holders) +
                   " k-closest slots hold neither a replica nor a live pointer (" +
                   first_missing + ")");
  report.Check(wrong_counts == 0, std::to_string(wrong_counts) +
                                      " files do not have exactly k replicas (first: " +
                                      first_wrong_count + ")");
  report.Check(entries == k * files.size(),
               "replica entries " + std::to_string(entries) + " != k x files " +
                   std::to_string(k * files.size()));
  report.Check(used == k * stored_bytes, "bytes held " + std::to_string(used) +
                                             " != k x stored sizes " +
                                             std::to_string(k * stored_bytes));
  report.Check(used <= capacity, "utilisation above 1");
}

bool DropOneReplica(past::PastNetwork& network, const FileId& file) {
  for (const NodeId& id : network.StorageNodeIds()) {
    past::PastNode* node = network.storage_node(id);
    if (node != nullptr && node->store().HasReplica(file)) {
      return node->store().TestOnlyCorruptDropReplica(file);
    }
  }
  return false;
}

}  // namespace perfbench
