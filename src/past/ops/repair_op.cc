// Replica maintenance (paper section 3.5): PastNetwork::RestoreInvariants
// and PastNetwork::RepairFile.
//
// Discovery (which nodes still hold replicas, which pointers are stale) is
// scan-based — the keep-alive exchange already carries that information for
// free in the paper's design. State-changing steps go over the fabric:
// replica re-creation is a kRepairStore pushed from a surviving holder,
// replacement diversion pointers are installed by a kRepairPointer from the
// root. At the receiving node they are the same placement-kernel steps an
// insert takes (AddReplica, AddPointer), under the repair admission test
// WouldAcceptPrimary. A lost repair message leaves the invariant unrestored
// for this round; the next membership event or sweep retries.
//
// Unlike the client ops (async_op.h), repair stays settle-driven: each
// exchange is sent, the transport is settled, and the outcome inspected
// before the next step. Repair runs inside membership callbacks and must
// finish there, at the virtual time its trigger fired, so it interleaves
// with in-flight client ops as one unit — the timing the simulation golden
// banks pin.
#include <algorithm>
#include <optional>
#include <unordered_set>
#include <utility>

#include "src/past/past_network.h"

namespace past {
namespace {

// One settle-driven exchange: sends `msg`, runs `at_destination` once if a
// copy arrives (duplicates are absorbed), and drains the transport before
// returning whether it did. Settle() returns only after every copy of `msg`
// was delivered or dropped, so the flag never outlives this frame.
template <typename Fn>
bool SendSettled(Transport& transport, const Message& msg, Fn&& at_destination) {
  bool delivered = false;
  transport.Send(msg, [&delivered, &at_destination](const Delivery&) {
    if (delivered) {
      return;
    }
    delivered = true;
    at_destination();
  });
  transport.Settle();
  return delivered;
}

}  // namespace

void PastNetwork::RestoreInvariants(const std::vector<NodeId>& region) {
  std::unordered_set<FileId, FileIdHash> files;
  for (const NodeId& id : region) {
    const PastNode* pn = storage_node(id);
    if (pn == nullptr) {
      continue;
    }
    for (const auto& [f, entry] : pn->store().replicas()) {
      (void)entry;
      files.insert(f);
    }
    for (const auto& [f, ptr] : pn->store().pointers()) {
      (void)ptr;
      files.insert(f);
    }
  }
  for (const FileId& f : files) {
    RepairFile(f);
  }
}

void PastNetwork::RepairFile(const FileId& file_id) {
  NodeId key = file_id.ToRoutingKey();
  NodeId root = pastry_.ClosestLive(key);
  const PastryNode* root_node = pastry_.node(root);
  if (root_node == nullptr) {
    return;
  }
  std::vector<NodeId> k_closest = KClosestFromLeafSet(root, key, config_.k);

  // Discover live replica holders in the neighborhood: the k closest, the
  // root's wider leaf set (nodes that recently ceased to be among the k
  // closest may still hold replicas), and pointer targets.
  std::vector<NodeId> holders;
  auto add_holder = [&](const NodeId& n) {
    if (!pastry_.IsAlive(n)) {
      return;
    }
    const PastNode* pn = storage_node(n);
    if (pn != nullptr && pn->store().HasReplica(file_id) &&
        std::find(holders.begin(), holders.end(), n) == holders.end()) {
      holders.push_back(n);
    }
  };
  for (const NodeId& n : k_closest) {
    add_holder(n);
  }
  for (const NodeId& n : root_node->leaf_set().All()) {
    add_holder(n);
  }
  for (const NodeId& n : k_closest) {
    const PastNode* pn = storage_node(n);
    if (pn != nullptr) {
      const DiversionPointer* ptr = pn->store().GetPointer(file_id);
      if (ptr != nullptr) {
        add_holder(ptr->holder);
      }
    }
  }

  if (holders.empty()) {
    // All k replicas (and any diverted copies) vanished inside one recovery
    // period — the file is lost. Drop dangling pointers.
    ins_.files_lost->Inc();
    obs::OpTrace lost;
    lost.kind = obs::TraceOpKind::kMaintenance;
    lost.file_id = file_id.ToHex();
    lost.status = "file_lost";
    EmitTrace(std::move(lost));
    for (const NodeId& n : k_closest) {
      PastNode* pn = storage_node(n);
      if (pn != nullptr) {
        pn->store().RemovePointer(file_id);
      }
    }
    return;
  }

  const NodeStore& sample_store = storage_node(holders.front())->store();
  const uint64_t size = sample_store.GetReplica(file_id)->size;
  FileCertificateRef certificate = sample_store.GetCertificate(file_id);
  FileContentRef content = sample_store.GetContent(file_id);
  // The holder that pushes replica data to repair targets.
  const NodeId source = holders.front();

  // Pushes the replica from `source` to `t`; true if `t` admitted and
  // stored it (false on decline or a dropped message). A primary copy must
  // pass WouldAcceptPrimary, a diverted one WouldAcceptDiverted.
  auto push_replica = [&](const NodeId& t, ReplicaKind kind) {
    bool stored = false;
    SendSettled(*transport_,
                Direct(MessageType::kRepairStore, source, t, file_id, size, MessageCost::kNone),
                [&] {
                  PastNode* pn = storage_node(t);
                  bool admitted = pn != nullptr && (kind == ReplicaKind::kPrimary
                                                        ? pn->WouldAcceptPrimary(size)
                                                        : pn->WouldAcceptDiverted(size));
                  stored = admitted && AddReplica(*pn, file_id, kind, size, certificate,
                                                  content) == AddResult::kAdded;
                  if (stored) {
                    ins_.replicas_recreated->Inc();
                  }
                });
    return stored;
  };

  // Instructs `t` to install a diversion pointer at `target`; true if it
  // was installed.
  auto install_pointer = [&](const NodeId& t, const NodeId& target) {
    bool installed = false;
    SendSettled(*transport_,
                Direct(MessageType::kRepairPointer, root, t, file_id, 0, MessageCost::kNone),
                [&] {
                  PastNode* pn = storage_node(t);
                  installed = pn != nullptr &&
                              AddPointer(*pn, file_id, target, PointerRole::kDiverter, size);
                });
    return installed;
  };

  // Pass 1: every one of the k closest must hold the replica or a valid
  // pointer to a live holder.
  for (const NodeId& t : k_closest) {
    PastNode* pn = storage_node(t);
    if (pn == nullptr || pn->store().HasReplica(file_id) || LivePointer(pn, file_id) != nullptr) {
      continue;
    }
    pn->store().RemovePointer(file_id);  // stale: its holder is gone
    // Prefer acquiring a real replica; otherwise install a pointer to an
    // existing holder (semantically identical to replica diversion, paper
    // section 3.5: the joining node installs a pointer and migrates later).
    if (push_replica(t, ReplicaKind::kPrimary)) {
      if (std::find(holders.begin(), holders.end(), t) == holders.end()) {
        holders.push_back(t);
      }
      continue;
    }
    // Point at a holder outside the k closest if possible (that holder plays
    // the diverted-replica role), else at any holder.
    NodeId target = holders.front();
    for (const NodeId& h : holders) {
      if (std::find(k_closest.begin(), k_closest.end(), h) == k_closest.end()) {
        target = h;
        break;
      }
    }
    if (install_pointer(t, target)) {
      ins_.maintenance_pointers->Inc();
    }
  }

  // Pass 2: restore the replication level to k when space allows. First try
  // k-closest members without a replica, then diversion into their leaf sets.
  uint32_t live = static_cast<uint32_t>(holders.size());
  if (live >= config_.k) {
    return;
  }
  for (const NodeId& t : k_closest) {
    if (live >= config_.k) {
      break;
    }
    PastNode* pn = storage_node(t);
    if (pn == nullptr || pn->store().HasReplica(file_id)) {
      continue;
    }
    if (push_replica(t, ReplicaKind::kPrimary)) {
      PastNode* stored_node = storage_node(t);
      if (stored_node != nullptr) {
        stored_node->store().RemovePointer(file_id);
      }
      ++live;
      holders.push_back(t);
    }
  }
  for (const NodeId& t : k_closest) {
    if (live >= config_.k) {
      break;
    }
    PastNode* pn = storage_node(t);
    if (pn == nullptr || pn->store().HasReplica(file_id)) {
      continue;
    }
    std::optional<NodeId> target = ChooseDiversionTarget(t, k_closest, file_id, size);
    // Diverted re-creation: push the data to the leaf-set member, then have
    // the k-closest node point at it.
    if (!target || !push_replica(*target, ReplicaKind::kDiverted)) {
      continue;
    }
    install_pointer(t, *target);
    ++live;
    holders.push_back(*target);
  }
}

}  // namespace past
