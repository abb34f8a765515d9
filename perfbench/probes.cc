#include "probes.h"

#include <algorithm>
#include <array>
#include <memory>

#include "bench.h"
#include "src/common/file_id.h"
#include "src/common/rng.h"
#include "src/crypto/certificates.h"
#include "src/crypto/sha1.h"
#include "src/crypto/smartcard.h"
#include "src/storage/node_store.h"
#include "src/storage/storage_env.h"
#include "src/storage/wal.h"

namespace perfbench {

using past::FileId;
using past::NodeId;
using past::Rng;

namespace {

// Every probe repeats its batch until it has run this long, so a fast layer
// is still timed over many calls.
constexpr double kProbeSeconds = 0.2;

// Probe results are folded into this so the timed calls are not optimised
// away.
volatile uint64_t g_sink = 0;

}  // namespace

CryptoProbe ProbeCrypto(const std::vector<std::string>& names,
                        const std::vector<uint64_t>& sizes, uint64_t seed) {
  CryptoProbe probe;
  if (names.empty()) {
    return probe;
  }
  Rng rng(seed);
  past::Smartcard card(rng, ~uint64_t{0});
  past::Smartcard node_card(rng, 0);
  std::vector<past::FileCertificate> certs;
  certs.reserve(names.size());

  uint64_t calls = 0;
  double start = Now();
  while (Now() - start < kProbeSeconds || calls < names.size()) {
    size_t i = calls % names.size();
    past::Sha1Digest hash{};
    hash[0] = static_cast<uint8_t>(i);
    auto cert = card.IssueFileCertificate(names[i], rng.NextU64(), sizes[i % sizes.size()], 5,
                                          hash, calls + 1);
    card.RefundInsert(sizes[i % sizes.size()], 5);
    if (certs.size() < names.size()) {
      certs.push_back(*cert);
    }
    ++calls;
  }
  probe.cert_issue_us = (Now() - start) * 1e6 / static_cast<double>(calls);

  uint64_t verified = 0;
  calls = 0;
  start = Now();
  while (Now() - start < kProbeSeconds || calls < certs.size()) {
    verified += certs[calls % certs.size()].VerifySignature() ? 1 : 0;
    ++calls;
  }
  probe.cert_verify_us = (Now() - start) * 1e6 / static_cast<double>(calls);

  std::vector<past::StoreReceipt> receipts(certs.size());
  for (size_t i = 0; i < certs.size(); ++i) {
    receipts[i].file_id = certs[i].file_id;
    receipts[i].storing_node = certs[i].file_id.ToRoutingKey();
    receipts[i].node_key = node_card.public_key();
  }
  calls = 0;
  start = Now();
  while (Now() - start < kProbeSeconds || calls < receipts.size()) {
    past::StoreReceipt& r = receipts[calls % receipts.size()];
    r.signature = node_card.Sign(r.SignedPayload());
    ++calls;
  }
  probe.receipt_sign_us = (Now() - start) * 1e6 / static_cast<double>(calls);

  calls = 0;
  start = Now();
  while (Now() - start < kProbeSeconds || calls < receipts.size()) {
    verified += receipts[calls % receipts.size()].Verify() ? 1 : 0;
    ++calls;
  }
  probe.receipt_verify_us = (Now() - start) * 1e6 / static_cast<double>(calls);
  g_sink = g_sink + verified;
  return probe;
}

double CryptoPerInsert(const CryptoProbe& probe, double attempts_per_insert, uint32_t k) {
  return attempts_per_insert * (probe.cert_issue_us + probe.cert_verify_us) +
         k * (probe.receipt_sign_us + probe.receipt_verify_us);
}

double ProbeSha1MbPerS(const std::vector<uint64_t>& sizes, uint64_t seed) {
  if (sizes.empty()) {
    return 0.0;
  }
  Rng rng(seed);
  uint64_t largest = *std::max_element(sizes.begin(), sizes.end());
  std::string buffer(static_cast<size_t>(std::max<uint64_t>(largest, 1)), '\0');
  for (char& c : buffer) {
    c = static_cast<char>(rng.NextU64());
  }
  uint64_t bytes = 0;
  uint64_t sink = 0;
  size_t i = 0;
  double start = Now();
  while (Now() - start < kProbeSeconds || i < sizes.size()) {
    size_t n = static_cast<size_t>(sizes[i % sizes.size()]);
    past::Sha1Digest d = past::Sha1::Hash(std::string_view(buffer.data(), n));
    sink ^= d[0];
    bytes += n;
    ++i;
  }
  double elapsed = Now() - start;
  g_sink = g_sink + sink;
  return static_cast<double>(bytes) / elapsed / 1e6;
}

RouteProbe ProbeRoute(past::PastryNetwork& overlay, const std::vector<NodeId>& origins,
                      const std::vector<NodeId>& keys) {
  RouteProbe probe;
  if (origins.empty() || keys.empty()) {
    return probe;
  }
  uint64_t hops = 0;
  uint64_t routes = 0;
  double start = Now();
  while (Now() - start < kProbeSeconds || routes < keys.size()) {
    size_t i = routes % keys.size();
    past::RouteResult r = overlay.Route(origins[i % origins.size()], keys[i]);
    hops += static_cast<uint64_t>(r.hops());
    ++routes;
  }
  double elapsed = Now() - start;
  probe.route_us = elapsed * 1e6 / static_cast<double>(routes);
  probe.hops_per_route = static_cast<double>(hops) / static_cast<double>(routes);
  return probe;
}

double ProbeStoreOpUs(const std::vector<uint64_t>& sizes, uint64_t seed, bool durable) {
  if (sizes.empty()) {
    return 0.0;
  }
  Rng rng(seed);
  std::vector<FileId> ids(sizes.size());
  for (FileId& id : ids) {
    std::array<uint8_t, FileId::kBytes> bytes{};
    for (uint8_t& b : bytes) {
      b = static_cast<uint8_t>(rng.NextU64());
    }
    id = FileId(bytes);
  }
  // Holds every size at once, so no store is refused for space.
  uint64_t capacity = 0;
  for (uint64_t s : sizes) {
    capacity += s;
  }
  past::NodeStore store(capacity + 1);
  past::FaultEnv disk;
  past::FileCertificateRef cert;
  std::vector<past::FileContentRef> contents(sizes.size());
  if (durable) {
    store.EnableDurability(disk, "probe", past::DurableOptions());
    cert = std::make_shared<const past::FileCertificate>();
    for (size_t i = 0; i < sizes.size(); ++i) {
      contents[i] = std::make_shared<const std::string>(static_cast<size_t>(sizes[i]), 'p');
    }
  }
  uint64_t ops = 0;
  double start = Now();
  while (Now() - start < kProbeSeconds || ops < 2 * sizes.size()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      store.StoreReplica(ids[i], past::ReplicaKind::kPrimary, sizes[i], cert, contents[i]);
      store.Commit();
    }
    for (const FileId& id : ids) {
      store.RemoveReplica(id);
      store.Commit();
    }
    ops += 2 * ids.size();
  }
  return (Now() - start) * 1e6 / static_cast<double>(ops);
}

}  // namespace perfbench
