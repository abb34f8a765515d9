// scale-churn: the epoch-sharded ScaleEngine at about 20k nodes with a
// fixed job count, running epochs of inserts and lookups with crashes and
// joins at every epoch edge and a maintenance sweep every few epochs. It
// bypasses the client, the op engine, the transport and per-op crypto.
//
// A run is a few independent rounds, each a fresh engine (its own seed)
// built, run for a fixed number of epochs ending on a sweep, and checked.
// Each round's build is one set-up sample, so set-up time is sampled across
// the whole run.
//
// The engine commits an epoch's ops as one batch and times no op on its
// own, so this workload has no per-call latency. Its latency metrics, which
// every workload prints, hold the batch-commit latency instead: the
// RunEpoch wall time of the op's epoch, over all of a round's ops. An
// epoch's inserts and lookups share that time, so the insert and lookup
// figures are the same two numbers and do not separate insert cost from
// lookup cost. The p50 pools every op of the run. A round ends on its sweep
// epoch, the slowest, so a round's p99 is its sweep epoch, and the run
// reports the median of the rounds' p99s (a p99 over the pooled ops would
// be the single slowest sweep of the run).
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "probes.h"
#include "src/common/rng.h"
#include "src/sim/scale_engine.h"

namespace perfbench {

using past::FileId;
using past::NodeId;

namespace {

// The op and churn rates are bench_scale's default full-run mix (the
// --scale-sweep rows): per epoch, inserts and lookups of a fifth of the node
// count each, crashes of 1% and joins of 0.5% of it, and a sweep every 3
// epochs.
constexpr size_t kNodes = 20'000;
constexpr size_t kInsertsPerEpoch = kNodes / 5;
constexpr size_t kLookupsPerEpoch = kNodes / 5;
constexpr size_t kCrashesPerEpoch = kNodes / 100;
constexpr size_t kJoinsPerEpoch = kNodes / 200;
constexpr size_t kSweepPeriod = 3;
constexpr size_t kEpochsPerRound = kSweepPeriod;  // ends on a sweep
// One round (build and 3 epochs, about 5 s on the reference host) per this
// many seconds of --seconds, rounded up.
constexpr size_t kSecondsPerRound = 5;
constexpr size_t kProbeInputs = 4096;

size_t Crashes(const RunOptions& options) { return options.small ? 20 : kCrashesPerEpoch; }
size_t Joins(const RunOptions& options) { return options.small ? 10 : kJoinsPerEpoch; }

size_t Rounds(const RunOptions& options) {
  if (options.small) {
    return 1;
  }
  return (static_cast<size_t>(options.seconds) + kSecondsPerRound - 1) / kSecondsPerRound;
}

past::ScaleConfig MakeConfig(const RunOptions& options, size_t round) {
  past::ScaleConfig config;
  config.seed = options.seed * 1000 + round;
  config.jobs = options.jobs;
  config.nodes = options.small ? 2'000 : kNodes;
  config.inserts_per_epoch = options.small ? 400 : kInsertsPerEpoch;
  config.lookups_per_epoch = options.small ? 400 : kLookupsPerEpoch;
  config.epochs = kEpochsPerRound;
  // The traced run drives churn and sweeps itself, so each can be timed.
  config.crashes_per_epoch = options.trace ? 0 : Crashes(options);
  config.joins_per_epoch = options.trace ? 0 : Joins(options);
  config.sweep_period = options.trace ? 0 : kSweepPeriod;
  return config;
}

// After a round's final sweep: every stored file still has a replica (none
// is lost) and CheckPlacement holds. Returns the files found.
std::vector<StoredFile> CheckRound(past::ScaleEngine& engine, const RunOptions& options,
                                   Report& report) {
  past::PastNetwork& network = engine.network();
  std::unordered_map<FileId, uint64_t, past::FileIdHash> sizes;
  for (const NodeId& id : network.StorageNodeIds()) {
    const past::PastNode* node = network.storage_node(id);
    if (node == nullptr || !network.overlay().IsAlive(id)) {
      continue;
    }
    for (const auto& [file, entry] : node->store().replicas()) {
      sizes.emplace(file, entry.size);
    }
  }
  std::vector<StoredFile> files;
  files.reserve(sizes.size());
  for (const auto& [id, size] : sizes) {
    files.push_back({id, size});
  }
  std::sort(files.begin(), files.end(), [](const StoredFile& a, const StoredFile& b) {
    return a.id.ToRoutingKey().value() < b.id.ToRoutingKey().value();
  });
  const past::ScaleReport summary = engine.BuildReport();
  report.Check(files.size() == summary.inserts_stored,
               std::to_string(summary.inserts_stored) + " files stored but " +
                   std::to_string(files.size()) + " still have a replica");
  if (options.fault == Fault::kDropReplica && !files.empty()) {
    DropOneReplica(network, files.front().id);
  }
  CheckPlacement(network, files, engine.config().past.k, report);
  return files;
}

}  // namespace

Report RunScaleChurn(const RunOptions& options) {
  Report report;
  const size_t rounds = Rounds(options);
  const size_t nodes = MakeConfig(options, 0).nodes;

  std::vector<double> setup_times;
  std::vector<double> epoch_s;
  std::vector<double> crash_us;
  std::vector<double> join_us;
  std::vector<double> sweep_s;
  std::vector<double> commit_latency_us;  // one entry per op of the run
  std::vector<double> commit_p99;         // per round
  double busy_seconds = 0.0;
  double bytes_per_node = 0.0;
  uint64_t ops = 0;
  uint64_t hops = 0;
  std::unique_ptr<past::ScaleEngine> engine;
  std::vector<StoredFile> files;

  for (size_t round = 0; round < rounds; ++round) {
    engine.reset();
    const past::ScaleConfig config = MakeConfig(options, round);
    // --- set-up ---
    uint64_t rss_before = CurrentRssBytes();
    double setup_start = Now();
    engine = std::make_unique<past::ScaleEngine>(config);
    engine->BuildNetwork();
    setup_times.push_back(Now() - setup_start);
    uint64_t rss_after = CurrentRssBytes();
    if (round == 0 && rss_after > rss_before) {
      // Later rounds reuse memory the allocator kept, so only the first
      // build shows the overlay's footprint.
      bytes_per_node =
          static_cast<double>(rss_after - rss_before) / static_cast<double>(config.nodes);
    }
    past::PastNetwork& network = engine->network();

    // --- measured phase ---
    past::Rng churn_rng(config.seed * 2 + 5);
    std::vector<double> round_latency_us;  // one entry per op of the round
    for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
      double start = Now();
      past::ScaleEpochStats s = engine->RunEpoch();
      double took = Now() - start;
      epoch_s.push_back(took);
      busy_seconds += took;
      round_latency_us.insert(round_latency_us.end(), s.inserts + s.lookups, took * 1e6);
      ops += s.inserts + s.lookups;
      hops += s.route_hops;
      report.attempted += s.inserts + s.lookups;
      report.failed += (s.inserts - s.inserts_stored) + (s.lookups - s.lookups_found);
      if (!options.trace) {
        continue;
      }
      // The engine's own churn (ScaleEngine::ApplyChurn), call by call.
      const size_t min_live = static_cast<size_t>(config.pastry.leaf_set_size) * 2 + 8;
      for (size_t i = 0; i < Crashes(options); ++i) {
        const past::SortedRing& ring = network.overlay().ring();
        if (ring.size() <= min_live) {
          break;
        }
        NodeId victim = ring.at(churn_rng.NextBelow(ring.size()));
        double t = Now();
        network.FailStorageNode(victim);
        crash_us.push_back((Now() - t) * 1e6);
      }
      for (size_t i = 0; i < Joins(options); ++i) {
        double t = Now();
        network.AddStorageNode(config.node_capacity);
        join_us.push_back((Now() - t) * 1e6);
      }
      if ((epoch + 1) % kSweepPeriod == 0) {
        double t = Now();
        network.MaintenanceSweep();
        sweep_s.push_back(Now() - t);
      }
    }
    commit_p99.push_back(Percentile(round_latency_us, 0.99));
    commit_latency_us.insert(commit_latency_us.end(), round_latency_us.begin(),
                             round_latency_us.end());

    // --- correctness ---
    report.state_fingerprint = engine->StateFingerprint();
    report.schedule_fingerprint = engine->BuildReport().schedule_fingerprint;
    files = CheckRound(*engine, options, report);
  }
  // The traced run's own churn and sweeps count as measured time too.
  busy_seconds += 1e-6 * (Mean(crash_us) * static_cast<double>(crash_us.size()) +
                          Mean(join_us) * static_cast<double>(join_us.size())) +
                  Mean(sweep_s) * static_cast<double>(sweep_s.size());

  EndToEnd e2e;
  e2e.setup_s = Median(setup_times);
  e2e.ops_per_s = static_cast<double>(ops) / busy_seconds;
  if (!options.trace) {
    // Inserts and lookups share their epoch's commit, so both report it.
    e2e.insert_p50_us = e2e.lookup_p50_us = Percentile(commit_latency_us, 0.50);
    e2e.insert_p99_us = e2e.lookup_p99_us = Median(commit_p99);
    AddEndToEnd(e2e, report);
    return report;
  }

  // --- traced run: per-layer metrics, probes on the last round's engine ---
  std::printf("traced ops_per_s %.1f 1/s\n", e2e.ops_per_s);
  past::PastNetwork& network = engine->network();
  std::vector<std::string> names;
  std::vector<uint64_t> probe_sizes;
  std::vector<NodeId> keys;
  for (size_t i = 0; i < files.size() && i < kProbeInputs; ++i) {
    names.push_back("scale" + std::to_string(i));
    probe_sizes.push_back(files[i].size);
    keys.push_back(files[i].id.ToRoutingKey());
  }
  std::vector<NodeId> origins;
  const past::SortedRing& ring = network.overlay().ring();
  past::Rng origin_rng(options.seed * 2 + 6);
  for (size_t i = 0; i < keys.size(); ++i) {
    origins.push_back(ring.at(origin_rng.NextBelow(ring.size())));
  }
  CryptoProbe crypto = ProbeCrypto(names, probe_sizes, options.seed);
  RouteProbe route = ProbeRoute(network.overlay(), origins, keys);
  Layers l;
  l.cert_issue_us = crypto.cert_issue_us;
  l.cert_verify_us = crypto.cert_verify_us;
  l.sha1_mb_per_s = ProbeSha1MbPerS(probe_sizes, options.seed);
  l.route_us = route.route_us;
  l.hops_per_route = route.hops_per_route;
  l.join_us = e2e.setup_s * 1e6 / static_cast<double>(nodes);
  l.store_op_us = ProbeStoreOpUs(probe_sizes, options.seed, /*durable=*/false);
  l.epoch_s = Mean(epoch_s);
  l.crash_us = Mean(crash_us);
  l.sim_join_us = Mean(join_us);
  l.sweep_s = Mean(sweep_s);
  l.hops_per_op = PerOp(hops, ops);
  l.bytes_per_node = bytes_per_node;
  l.arena_mb = static_cast<double>(network.overlay().arena().bytes_reserved()) / (1024.0 * 1024.0);
  AddLayers(l, report);
  return report;
}

}  // namespace perfbench
