// Per-layer probes for the traced run: each times one layer's public
// functions on the workload's own names, keys and sizes, after the measured
// phase, so the probe never perturbs what the untraced run measures.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/node_id.h"
#include "src/pastry/network.h"

namespace perfbench {

struct CryptoProbe {
  double cert_issue_us = 0.0;      // Smartcard::IssueFileCertificate
  double cert_verify_us = 0.0;     // FileCertificate::VerifySignature
  double receipt_sign_us = 0.0;    // Smartcard::Sign over a store receipt
  double receipt_verify_us = 0.0;  // StoreReceipt::Verify
};
CryptoProbe ProbeCrypto(const std::vector<std::string>& names,
                        const std::vector<uint64_t>& sizes, uint64_t seed);

// Certificate and receipt crypto of one client insert (µs): each attempt
// issues a certificate that the root verifies, and a stored attempt brings
// back k store receipts, each signed by a storing node and verified by the
// client.
double CryptoPerInsert(const CryptoProbe& probe, double attempts_per_insert, uint32_t k);

// SHA-1 throughput (MB/s) hashing buffers of the workload's file sizes.
double ProbeSha1MbPerS(const std::vector<uint64_t>& sizes, uint64_t seed);

struct RouteProbe {
  double route_us = 0.0;
  double hops_per_route = 0.0;
};
// Routes every key from the matching origin (origins[i % origins.size()]).
RouteProbe ProbeRoute(past::PastryNetwork& overlay, const std::vector<past::NodeId>& origins,
                      const std::vector<past::NodeId>& keys);

// Mean time of one NodeStore::StoreReplica or RemoveReplica over the
// workload's sizes (µs per operation). With `durable` the store is
// journaled on a scratch FaultEnv, each replica carries a certificate and
// bytes of its size, and every call is followed by Commit(): the WAL's
// framing, CRC, append, fsync and compaction are then part of the time.
double ProbeStoreOpUs(const std::vector<uint64_t>& sizes, uint64_t seed, bool durable);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
