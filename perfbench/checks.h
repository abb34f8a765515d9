// Correctness checks shared by the workloads. Each recomputes its expected
// value independently of the library: the k closest nodes come from the
// benchmark's own sorted copy of the live nodeIds, replica counts from a
// scan of every store's replica table.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "src/common/file_id.h"
#include "src/common/node_id.h"
#include "src/past/past_network.h"

namespace perfbench {

struct StoredFile {
  past::FileId id;
  uint64_t size = 0;
};

// The `k` ids of `sorted_ids` (ascending) numerically closest to `key` on
// the 2^128 ring; ties go to the smaller id.
std::vector<past::NodeId> KClosest(const std::vector<past::NodeId>& sorted_ids,
                                   const past::NodeId& key, size_t k);

// Checks the storage invariants for `files` against every live node:
//  - each of a file's k closest live nodes holds a replica, or a diversion
//    pointer to a live node that holds one;
//  - each file has exactly k replicas in total, and no other file has any;
//  - the bytes held equal k times the files' summed sizes, and utilisation
//    is at most 1.
void CheckPlacement(past::PastNetwork& network, const std::vector<StoredFile>& files, size_t k,
                    Report& report);

// Drops one replica of `file` without releasing its bytes (self-check).
bool DropOneReplica(past::PastNetwork& network, const past::FileId& file);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
