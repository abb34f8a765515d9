// web-trace: the paper's NLANR-like web workload (section 5). A few thousand
// nodes over d1 capacities in 8 client clusters, GreedyDual-Size route
// caching, in-memory stores and InlineTransport. The measured phase replays
// first-reference inserts and Zipf repeat lookups through PastClient, one
// blocking call at a time.
//
// A run is a few independent rounds, each a fresh paper-scale deployment
// replaying its own trace, so a longer run averages over more of the host's
// drifting speed without growing the deployment.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "probes.h"
#include "src/common/rng.h"
#include "src/past/client.h"
#include "src/past/past_network.h"
#include "src/workload/capacity.h"
#include "src/workload/trace_generator.h"

namespace perfbench {

using past::FileId;
using past::NodeId;

namespace {

// One round: the paper's 2,250 nodes and 400k trace references (about 100k
// inserts); about 8 s of replay on the reference host.
constexpr size_t kNodes = 2250;
constexpr uint64_t kReferences = 400'000;
constexpr uint64_t kSecondsPerRound = 10;
constexpr uint32_t kK = 5;
// Sum of inserted sizes x k over total capacity: high enough that replica
// diversion is active, low enough that every insert is stored.
constexpr double kDemand = 0.6;
constexpr uint64_t kMaxFileSize = 60'000;
// Set-up samples per round: the first deployment is discarded, the last one
// is measured.
constexpr int kSetupsPerRound = 2;
// Names, keys and sizes the traced run's probes replay.
constexpr size_t kProbeInputs = 4096;

struct Deployment {
  std::unique_ptr<past::PastNetwork> network;
  std::vector<std::unique_ptr<past::PastClient>> clients;
};

std::unique_ptr<Deployment> Deploy(const past::Trace& trace,
                                   const std::vector<uint64_t>& capacities, uint64_t seed) {
  past::PastConfig config;
  config.k = kK;
  config.cache_mode = past::CacheMode::kGreedyDualSize;
  config.enable_maintenance = false;  // no churn in this workload
  past::PastryConfig pastry;
  auto deployment = std::make_unique<Deployment>();
  Deployment& d = *deployment;
  d.network = std::make_unique<past::PastNetwork>(config, pastry, seed);
  past::Rng rng(seed ^ 0x77656274ull);
  std::vector<past::Coordinate> centers(trace.num_clusters);
  for (past::Coordinate& c : centers) {
    c = past::Coordinate{rng.NextDouble(), rng.NextDouble()};
  }
  std::vector<std::vector<NodeId>> by_cluster(trace.num_clusters);
  for (size_t i = 0; i < capacities.size(); ++i) {
    uint32_t cluster = static_cast<uint32_t>(i % trace.num_clusters);
    by_cluster[cluster].push_back(
        d.network->AddStorageNodeNear(capacities[i], centers[cluster], 0.03));
  }
  for (uint32_t c = 0; c < trace.num_clients; ++c) {
    const std::vector<NodeId>& pool = by_cluster[trace.ClusterOf(c)];
    d.clients.push_back(std::make_unique<past::PastClient>(*d.network, pool[c % pool.size()],
                                                           uint64_t{1} << 62, seed + 100 + c));
  }
  return deployment;
}

std::string FileName(uint32_t index) {
  std::string name = "f";
  name += std::to_string(index);
  return name;
}

}  // namespace

Report RunWebTrace(const RunOptions& options) {
  Report report;
  // Small (self-check) runs keep the per-node load at a tenth of the size.
  const size_t nodes = options.small ? kNodes / 10 : kNodes;
  const size_t rounds =
      options.small ? 1 : (options.seconds + kSecondsPerRound - 1) / kSecondsPerRound;

  std::vector<double> setup_times;
  std::vector<double> insert_us;
  std::vector<double> lookup_us;
  uint64_t insert_attempts = 0;
  double insert_dispatch_s = 0.0;
  DispatchTally dispatch;
  auto sink = std::make_shared<CollectingSink>();
  uint64_t lookups_from_cache = 0;
  uint64_t lookups_found = 0;
  // The last round's deployment and inputs stay alive for the probes.
  std::unique_ptr<Deployment> deployment;
  past::Trace trace;
  std::vector<StoredFile> files;

  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = options.seed * 1000 + round;
    deployment.reset();

    // --- inputs (not timed): trace and capacities, both from the seed ---
    past::WebTraceConfig wc;
    wc.total_references = options.small ? kReferences / 10 : kReferences;
    wc.catalog_size = static_cast<uint32_t>(wc.total_references / 2);  // ~1/4 are inserts
    wc.max_size = kMaxFileSize;
    wc.seed = seed * 2 + 1;
    trace = past::GenerateWebTrace(wc);
    uint64_t insert_bytes = 0;
    for (const past::TraceEvent& e : trace.events) {
      if (e.op == past::TraceOp::kInsert) {
        insert_bytes += trace.file_sizes[e.file_index];
      }
    }
    past::Rng cap_rng(seed * 2 + 2);
    std::vector<uint64_t> capacities =
        past::SampleCapacities(past::CapacityD1(), nodes, 1.0, cap_rng);
    double raw_total = std::accumulate(capacities.begin(), capacities.end(), 0.0);
    double scale = static_cast<double>(insert_bytes) * kK / kDemand / raw_total;
    for (uint64_t& c : capacities) {
      c = std::max<uint64_t>(1, static_cast<uint64_t>(static_cast<double>(c) * scale));
    }

    // --- set-up ---
    TimeSetups(kSetupsPerRound - 1, [&] { return Deploy(trace, capacities, seed); }, setup_times);
    double setup_start = Now();
    deployment = Deploy(trace, capacities, seed);
    setup_times.push_back(Now() - setup_start);
    Deployment& d = *deployment;
    past::PastNetwork& network = *d.network;

    if (options.trace) {
      InstallTracing(network, dispatch, sink);
    }

    // --- measured phase ---
    std::vector<FileId> file_ids(trace.file_sizes.size());
    std::vector<uint8_t> stored(trace.file_sizes.size(), 0);
    files.clear();
    uint64_t wrong_size = 0;
    for (const past::TraceEvent& e : trace.events) {
      past::PastClient& client = *d.clients[e.client];
      uint64_t size = trace.file_sizes[e.file_index];
      ++report.attempted;
      if (e.op == past::TraceOp::kInsert) {
        std::string name = FileName(e.file_index);
        double dispatch_before = dispatch.self_seconds;
        double start = Now();
        past::ClientInsertResult r = client.Insert(name, size);
        insert_us.push_back((Now() - start) * 1e6);
        insert_dispatch_s += dispatch.self_seconds - dispatch_before;
        insert_attempts += static_cast<uint64_t>(r.attempts);
        if (!r.stored) {
          ++report.failed;
          continue;
        }
        file_ids[e.file_index] = r.file_id;
        stored[e.file_index] = 1;
        files.push_back({r.file_id, size});
      } else {
        if (stored[e.file_index] == 0) {
          ++report.failed;  // its insert failed: the lookup cannot succeed
          continue;
        }
        double start = Now();
        past::LookupResult r = client.Lookup(file_ids[e.file_index]);
        lookup_us.push_back((Now() - start) * 1e6);
        if (!r.found()) {
          ++report.failed;
        } else if (r.file_size != size) {
          ++wrong_size;
        }
      }
    }

    if (options.fault == Fault::kLostLookup) {
      std::array<uint8_t, FileId::kBytes> never_inserted;
      never_inserted.fill(0xff);
      ++report.attempted;
      report.failed += d.clients[0]->Lookup(FileId(never_inserted)).found() ? 0 : 1;
    }

    // --- correctness ---
    report.Check(wrong_size == 0, std::to_string(wrong_size) +
                                      " lookups returned a size other than the inserted one");
    if (options.fault == Fault::kDropReplica && !files.empty()) {
      DropOneReplica(network, files.front().id);
    }
    CheckPlacement(network, files, kK, report);

    if (options.trace) {
      past::PastCounters counters = network.CountersSnapshot();
      lookups_from_cache += counters.lookups_from_cache;
      lookups_found += counters.lookups_found;
    }
  }

  // Time inside the program's calls (the loop's own bookkeeping excluded).
  const double busy_seconds =
      1e-6 * (std::accumulate(insert_us.begin(), insert_us.end(), 0.0) +
              std::accumulate(lookup_us.begin(), lookup_us.end(), 0.0));
  EndToEnd e2e;
  e2e.setup_s = Median(setup_times);
  e2e.ops_per_s = static_cast<double>(insert_us.size() + lookup_us.size()) / busy_seconds;
  if (!options.trace) {
    e2e.insert_p50_us = Percentile(insert_us, 0.50);
    e2e.insert_p99_us = Percentile(insert_us, 0.99);
    e2e.lookup_p50_us = Percentile(lookup_us, 0.50);
    e2e.lookup_p99_us = Percentile(lookup_us, 0.99);
    AddEndToEnd(e2e, report);
    return report;
  }

  // --- traced run: per-layer metrics, probes on the last round ---
  std::printf("traced ops_per_s %.1f 1/s\n", e2e.ops_per_s);
  Deployment& d = *deployment;
  std::vector<std::string> names;
  std::vector<NodeId> origins;
  std::vector<uint64_t> sizes;
  std::vector<NodeId> keys;
  for (const past::TraceEvent& e : trace.events) {
    if (e.op == past::TraceOp::kInsert && names.size() < kProbeInputs) {
      names.push_back(FileName(e.file_index));
      origins.push_back(d.clients[e.client]->access_node());
    }
  }
  for (size_t i = 0; i < files.size() && i < kProbeInputs; ++i) {
    sizes.push_back(files[i].size);
    keys.push_back(files[i].id.ToRoutingKey());
  }
  CryptoProbe crypto = ProbeCrypto(names, sizes, options.seed);
  RouteProbe route = ProbeRoute(d.network->overlay(), origins, keys);

  const double inserts = PerOpBase(insert_us.size());
  Layers l;
  l.cert_issue_us = crypto.cert_issue_us;
  l.cert_verify_us = crypto.cert_verify_us;
  l.sha1_mb_per_s = ProbeSha1MbPerS(sizes, options.seed);
  l.route_us = route.route_us;
  l.hops_per_route = PerOp(sink->lookups().hops, sink->lookups().ops);
  l.join_us = e2e.setup_s * 1e6 / static_cast<double>(nodes);
  l.messages_per_insert = static_cast<double>(sink->inserts().messages) / inserts;
  l.messages_per_lookup = PerOp(sink->lookups().messages, lookup_us.size());
  l.dispatch_self_us = dispatch.self_seconds * 1e6 / PerOpBase(dispatch.sends);
  l.store_op_us = ProbeStoreOpUs(sizes, options.seed, /*durable=*/false);
  l.cache_hit_ratio = PerOp(lookups_from_cache, lookups_found);
  l.attempts_per_insert = static_cast<double>(insert_attempts) / inserts;
  l.arena_mb =
      static_cast<double>(d.network->overlay().arena().bytes_reserved()) / (1024.0 * 1024.0);

  InsertLayerSum sum;
  sum.crypto_us = CryptoPerInsert(crypto, l.attempts_per_insert, kK);
  sum.route_us = l.attempts_per_insert * route.route_us;
  sum.store_us = kK * l.store_op_us;
  sum.dispatch_us = insert_dispatch_s * 1e6 / inserts;
  l.op_residual_us = PrintInsertLayerSum(sum, Mean(insert_us));
  AddLayers(l, report);
  return report;
}

}  // namespace perfbench
