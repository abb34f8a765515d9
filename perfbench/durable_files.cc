// durable-files: filesystem-trace-sized files with real bytes, inserted
// through PastClient::InsertContent into WAL-journaled stores; every commit
// is fsynced before the ack leaves the node. Set-up deploys the nodes and
// pre-loads a base catalog. The measured phase runs cycles of content
// inserts, content lookups and reclaims (whose dead bytes drive compaction),
// with a power loss + RejoinStorageNode journal replay every few cycles.
// Caching is off. A run is a few independent rounds, each a fresh
// deployment with its own seed, checked at its end.
//
// The journals live on FaultEnv, the library's in-memory disk model, not on
// PosixEnv: on this benchmark's reference host fsync on the virtual disk
// spread insert p99 by +-50% between runs, which no bound could absorb, and
// the benchmark may not write outside its checkout (so no tmpfs). FaultEnv
// runs the same WAL code (framing, CRC, segment roll, compaction, replay)
// and, unlike PosixEnv, really discards unsynced bytes at a crash, so the
// rejoin checks test "durable before ack".
#include <algorithm>
#include <cstdio>
#include <cstring>
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
#include "src/storage/wal.h"
#include "src/workload/capacity.h"
#include "src/workload/trace_generator.h"

namespace perfbench {

using past::FileId;
using past::NodeId;

namespace {

constexpr size_t kNodes = 64;
constexpr uint32_t kK = 5;
constexpr uint32_t kClients = 8;
// Sizes follow the paper's filesystem trace (median 4,578 B, mean 88,233 B,
// heavy Pareto tail), capped because every byte is real and held in memory
// k times over plus its journal copies. At 16 KiB the cap shortens 28% of
// the files and removes 91% of the uncapped distribution's bytes (the tail
// holds most of them); a round then peaks at about 400 MB.
constexpr uint64_t kMaxFileSize = 16 * 1024;
// Every byte the round will insert, times k, over total capacity. Reclaims
// free half of what the cycles insert, so utilisation stays near 0.1: the
// seeded rounds keep clear of the storage pressure under which crash-and-
// rejoin repair is seen to leave files short of k replicas on some seeds
// only. That fault is measured instead by the fixed-input pressure op below,
// which fails the same way in every round of every run.
constexpr double kDemand = 0.2;
constexpr size_t kBaseFiles = 1000;
// One cycle: inserts, lookups of live files, reclaims of live files. The
// mix and the rejoin rate are assumptions (the paper's filesystem trace is
// insert-only); README.md lists the metrics each of them drives.
constexpr size_t kCycleInserts = 32;
constexpr size_t kCycleLookups = 64;
constexpr size_t kCycleReclaims = 16;
// A node loses power and rejoins from its journal every this many cycles.
constexpr size_t kRejoinEvery = 4;
// Cycles per round (about 3.5 s of calls on the reference host; a whole
// number of rejoin periods), and rounds per 10 s of --seconds.
constexpr size_t kCyclesPerRound = 152;
constexpr size_t kSecondsPerRound = 10;
// Set-up samples per round: the first deployment is discarded, the last one
// is measured.
constexpr int kSetupsPerRound = 2;
constexpr size_t kProbeInputs = 4096;

// The repair-under-pressure op: a fixed deployment, the same in every run,
// pre-loaded to web-trace's demand (0.6) with files up to web-trace's size
// cap, whose nodes then all lose power and rejoin in turn with a sweep after
// each. The op succeeds if every file still has k live replicas afterwards.
// It runs at the start of each round, before the round's own deployment
// exists, so it adds about 1.4 s and no memory peak of its own.
constexpr uint64_t kPressureSeed = 1;
constexpr size_t kPressureNodes = 32;
constexpr size_t kPressureFiles = 500;
constexpr uint64_t kPressureMaxFileSize = 60'000;
constexpr double kPressureDemand = 0.6;

// File bodies are regenerated from (seed, index) whenever they are needed,
// so a lookup's bytes are compared against an independent copy.
std::string Body(uint64_t seed, size_t index, uint64_t size) {
  past::Rng rng((seed << 32) ^ (index + 0xb0d7));
  std::string body(static_cast<size_t>(size), '\0');
  for (size_t i = 0; i < body.size(); i += 8) {
    uint64_t word = rng.NextU64();
    std::memcpy(body.data() + i, &word, std::min<size_t>(8, body.size() - i));
  }
  return body;
}

// A round's inputs: the size catalog, capacities scaled so that the whole
// catalog meets `demand`, and the bodies of the first `base_files` files.
struct Inputs {
  std::vector<uint64_t> sizes;
  std::vector<uint64_t> capacities;
  std::vector<std::string> base_bodies;
};

Inputs MakeInputs(uint64_t seed, size_t nodes, size_t catalog, size_t base_files,
                  uint64_t max_size, double demand) {
  Inputs in;
  past::FilesystemTraceConfig fc;
  fc.catalog_size = static_cast<uint32_t>(catalog);
  fc.max_size = max_size;
  fc.seed = seed * 2 + 1;
  in.sizes = past::GenerateFilesystemTrace(fc).file_sizes;
  const uint64_t all_bytes = std::accumulate(in.sizes.begin(), in.sizes.end(), uint64_t{0});
  past::Rng cap_rng(seed * 2 + 2);
  in.capacities = past::SampleCapacities(past::CapacityD1(), nodes, 1.0, cap_rng);
  double raw_total = std::accumulate(in.capacities.begin(), in.capacities.end(), 0.0);
  double scale = static_cast<double>(all_bytes) * kK / demand / raw_total;
  for (uint64_t& c : in.capacities) {
    c = static_cast<uint64_t>(static_cast<double>(c) * scale);
  }
  for (size_t i = 0; i < base_files; ++i) {
    in.base_bodies.push_back(Body(seed, i, in.sizes[i]));
  }
  return in;
}

struct LiveFile {
  size_t index = 0;  // into the size catalog (and the body generator)
  FileId id;
  uint32_t owner = 0;
};

// FaultEnv whose fsyncs in `lying_dir` report success and make nothing
// durable, by arming FaultEnv::set_drop_fsync_at for each of them in turn
// (self-check only: a journal that keeps nothing must fail the checks).
class Disk : public past::FaultEnv {
 public:
  bool Fsync(const std::string& dir, const std::string& name) override {
    if (dir == lying_dir) {
      set_drop_fsync_at(syscalls() + 1);
    }
    return FaultEnv::Fsync(dir, name);
  }
  std::string lying_dir;
};

struct Deployment {
  Disk disk;
  std::unique_ptr<TimingEnv> env;
  std::unique_ptr<past::PastNetwork> network;
  std::vector<std::unique_ptr<past::PastClient>> clients;
  std::vector<NodeId> nodes;
  std::vector<uint64_t> capacity;  // by node, as in `nodes`
  std::vector<LiveFile> live;      // the pre-loaded catalog after set-up
};

std::unique_ptr<Deployment> Deploy(const std::vector<uint64_t>& capacities,
                                   const std::vector<std::string>& base_bodies, uint64_t seed,
                                   double* deploy_seconds) {
  auto deployment = std::make_unique<Deployment>();
  Deployment& d = *deployment;
  double start = Now();
  d.env = std::make_unique<TimingEnv>(d.disk);
  past::PastConfig config;
  config.k = kK;
  config.cache_mode = past::CacheMode::kNone;
  config.enable_maintenance = true;  // crashed nodes' replicas are re-created
  d.network = std::make_unique<past::PastNetwork>(config, past::PastryConfig(), seed);
  d.network->UseDurableStore(*d.env, past::DurableOptions());
  for (uint64_t c : capacities) {
    d.nodes.push_back(d.network->AddStorageNode(c));
    d.capacity.push_back(c);
  }
  for (uint32_t c = 0; c < kClients; ++c) {
    d.clients.push_back(std::make_unique<past::PastClient>(
        *d.network, d.nodes[(c * d.nodes.size()) / kClients], uint64_t{1} << 62, seed + 100 + c));
  }
  *deploy_seconds = Now() - start;
  for (size_t i = 0; i < base_bodies.size(); ++i) {
    uint32_t owner = static_cast<uint32_t>(i % kClients);
    past::ClientInsertResult r =
        d.clients[owner]->InsertContent("base" + std::to_string(i), base_bodies[i]);
    if (!r.stored) {
      return nullptr;
    }
    d.live.push_back({i, r.file_id, owner});
  }
  return deployment;
}

// Power loss at one node: the node leaves the overlay and its directory
// keeps only what was fsynced; then it rejoins by replaying that journal.
// Every replica the node held was acknowledged, so the replay must bring
// each of them back: kept if the node is still among the file's k closest,
// dropped if repair has moved the file on meanwhile. A journal that lost a
// commit replays fewer, even though the files themselves survive on the
// other holders.
void CrashAndRejoin(Deployment& d, size_t node, Report& report) {
  const NodeId& id = d.nodes[node];
  const std::string dir = id.ToHex();
  const uint64_t held = d.network->storage_node(id)->store().replicas().size();
  d.network->FailStorageNode(id);
  d.disk.CrashDir(dir, 0);
  d.disk.ReviveDir(dir);
  past::PastNetwork::RejoinOutcome outcome = d.network->RejoinStorageNode(id, d.capacity[node]);
  report.Check(outcome.ok, "node " + dir + " failed to rejoin");
  const uint64_t replayed = outcome.replicas_recovered + outcome.replicas_dropped;
  report.Check(replayed == held, "node " + dir + " held " + std::to_string(held) +
                                     " replicas but its journal replayed " +
                                     std::to_string(replayed));
}

// Bytes the journals occupy.
uint64_t JournalBytes(Deployment& d) {
  uint64_t total = 0;
  std::string data;
  for (const NodeId& id : d.nodes) {
    const std::string dir = id.ToHex();
    for (const std::string& name : d.disk.List(dir)) {
      if (d.disk.Read(dir, name, &data)) {
        total += data.size();
      }
    }
  }
  return total;
}

// Runs the repair-under-pressure op (not timed; its inputs do not depend on
// the run's seed). Losing a file or its bytes is a failed check; a file left
// short of k replicas fails the op.
void RunPressureOp(Report& report) {
  Inputs in = MakeInputs(kPressureSeed, kPressureNodes, kPressureFiles, kPressureFiles,
                         kPressureMaxFileSize, kPressureDemand);
  double deploy_seconds = 0.0;
  std::unique_ptr<Deployment> deployment =
      Deploy(in.capacities, in.base_bodies, kPressureSeed, &deploy_seconds);
  if (!report.Check(deployment != nullptr, "pressure op: a pre-load insert was not stored")) {
    return;
  }
  Deployment& d = *deployment;
  for (size_t i = 0; i < d.nodes.size(); ++i) {
    CrashAndRejoin(d, i, report);
    d.network->MaintenanceSweep();
  }
  uint64_t lost = 0;
  uint64_t short_files = 0;
  for (const LiveFile& f : d.live) {
    past::LookupResult r = d.clients[f.owner]->Lookup(f.id);
    if (!r.found() || r.content == nullptr || *r.content != in.base_bodies[f.index]) {
      ++lost;
    }
    short_files += d.network->CountLiveReplicas(f.id) < kK ? 1 : 0;
  }
  report.Check(lost == 0, "pressure op: " + std::to_string(lost) +
                              " files lost or changed after every node rejoined");
  ++report.attempted;
  if (short_files != 0) {
    ++report.failed;
    report.known_failures.push_back(
        "repair under pressure left " + std::to_string(short_files) + " of " +
        std::to_string(d.live.size()) + " files with fewer than k replicas");
  }
}

}  // namespace

Report RunDurableFiles(const RunOptions& options) {
  Report report;
  const size_t nodes = options.small ? 24 : kNodes;
  const size_t base_files = options.small ? 60 : kBaseFiles;
  const size_t cycles = options.small ? kRejoinEvery * 2 : kCyclesPerRound;
  const size_t rounds =
      options.small ? 1 : (options.seconds + kSecondsPerRound - 1) / kSecondsPerRound;

  std::vector<double> setup_times;
  std::vector<double> deploy_times;
  std::vector<double> insert_us;
  std::vector<double> lookup_us;
  std::vector<double> rejoin_ms;
  double busy_seconds = 0.0;  // time inside the program's calls
  uint64_t insert_attempts = 0;
  uint64_t user_bytes = 0;
  double insert_dispatch_s = 0.0;
  uint64_t insert_env_calls = 0;
  DispatchTally dispatch;
  auto sink = std::make_shared<CollectingSink>();
  TimingEnv::Counters phase_env;
  uint64_t journal_bytes = 0;
  uint64_t live_replica_bytes = 0;
  // The last round's deployment and catalog stay alive for the probes.
  std::unique_ptr<Deployment> deployment;
  std::vector<uint64_t> sizes;

  for (size_t round = 0; round < rounds; ++round) {
    const uint64_t seed = options.seed * 1000 + round;
    deployment.reset();
    RunPressureOp(report);

    // --- inputs (not timed) ---
    Inputs in = MakeInputs(seed, nodes, base_files + cycles * kCycleInserts, base_files,
                           kMaxFileSize, kDemand);
    sizes = in.sizes;

    // --- set-up: deploy + pre-load ---
    double deploy_seconds = 0.0;
    auto setup = [&] { return Deploy(in.capacities, in.base_bodies, seed, &deploy_seconds); };
    TimeSetups(kSetupsPerRound - 1, setup, setup_times);
    deploy_times.push_back(deploy_seconds);
    double setup_start = Now();
    deployment = setup();
    setup_times.push_back(Now() - setup_start);
    deploy_times.push_back(deploy_seconds);
    if (!report.Check(deployment != nullptr, "a pre-load insert was not stored")) {
      return report;
    }
    Deployment& d = *deployment;
    past::PastNetwork& network = *d.network;
    TimingEnv& env = *d.env;
    std::vector<LiveFile>& live = d.live;
    env.ResetCounters();
    if (options.fault == Fault::kDropFsync) {
      d.disk.lying_dir = d.nodes[0].ToHex();
    }

    if (options.trace) {
      InstallTracing(network, dispatch, sink);
    }

    // --- measured phase ---
    past::Rng rng(seed * 2 + 3);
    std::vector<LiveFile> reclaimed;
    uint64_t mismatched = 0;
    size_t next_index = base_files;
    for (size_t cycle = 0; cycle < cycles; ++cycle) {
      for (size_t i = 0; i < kCycleInserts; ++i, ++next_index) {
        uint32_t owner = static_cast<uint32_t>(rng.NextBelow(kClients));
        std::string body = Body(seed, next_index, sizes[next_index]);
        std::string name = "file" + std::to_string(next_index);
        double dispatch_before = dispatch.self_seconds;
        uint64_t env_calls_before = env.counters().calls;
        ++report.attempted;
        double start = Now();
        past::ClientInsertResult r = d.clients[owner]->InsertContent(name, body);
        double took = Now() - start;
        busy_seconds += took;
        insert_us.push_back(took * 1e6);
        insert_dispatch_s += dispatch.self_seconds - dispatch_before;
        insert_env_calls += env.counters().calls - env_calls_before;
        insert_attempts += static_cast<uint64_t>(r.attempts);
        if (!r.stored) {
          ++report.failed;
          continue;
        }
        user_bytes += body.size();
        live.push_back({next_index, r.file_id, owner});
      }
      for (size_t i = 0; i < kCycleLookups; ++i) {
        const LiveFile& f = live[rng.NextBelow(live.size())];
        past::PastClient& client = *d.clients[rng.NextBelow(kClients)];
        ++report.attempted;
        double start = Now();
        past::LookupResult r = client.Lookup(f.id);
        double took = Now() - start;
        busy_seconds += took;
        lookup_us.push_back(took * 1e6);
        if (!r.found()) {
          ++report.failed;
        } else if (r.content == nullptr || *r.content != Body(seed, f.index, sizes[f.index])) {
          ++mismatched;
        }
      }
      for (size_t i = 0; i < kCycleReclaims; ++i) {
        size_t pick = rng.NextBelow(live.size());
        LiveFile f = live[pick];
        live[pick] = live.back();
        live.pop_back();
        ++report.attempted;
        double start = Now();
        past::ReclaimResult r = d.clients[f.owner]->Reclaim(f.id);
        busy_seconds += Now() - start;
        if (r.status != past::ReclaimStatus::kReclaimed || r.receipts.size() != kK) {
          ++report.failed;
          live.push_back(f);  // still (partly) stored: keep it out of the reclaimed set
          continue;
        }
        reclaimed.push_back(f);
      }
      if ((cycle + 1) % kRejoinEvery == 0) {
        size_t victim = rng.NextBelow(d.nodes.size());
        double start = Now();
        CrashAndRejoin(d, victim, report);
        rejoin_ms.push_back((Now() - start) * 1e3);
        network.MaintenanceSweep();
        busy_seconds += Now() - start;
      }
    }
    if (options.trace) {
      const TimingEnv::Counters& c = env.counters();
      phase_env.calls += c.calls;
      phase_env.appends += c.appends;
      phase_env.fsyncs += c.fsyncs;
      phase_env.bytes_appended += c.bytes_appended;
      phase_env.append_seconds += c.append_seconds;
      phase_env.fsync_seconds += c.fsync_seconds;
      journal_bytes += JournalBytes(d);
      for (const NodeId& id : network.StorageNodeIds()) {
        if (const past::PastNode* node = network.storage_node(id)) {
          live_replica_bytes += node->store().used();
        }
      }
    }

    // --- correctness: every node loses power and rejoins from its journal ---
    report.Check(mismatched == 0, std::to_string(mismatched) +
                                      " lookups returned bytes other than the inserted ones");
    for (size_t i = 0; i < d.nodes.size(); ++i) {
      CrashAndRejoin(d, i, report);
      network.MaintenanceSweep();
    }
    uint64_t lost = 0;
    uint64_t corrupt = 0;
    std::vector<StoredFile> expected;
    for (size_t i = 0; i < live.size(); ++i) {
      const LiveFile& f = live[i];
      std::string body = Body(seed, f.index, sizes[f.index]);
      if (options.fault == Fault::kTamperContent && i == 0) {
        body[body.size() / 2] ^= 0x01;
      }
      past::LookupResult r = d.clients[f.owner]->Lookup(f.id);
      if (!r.found()) {
        ++lost;
      } else if (r.content == nullptr || *r.content != body) {
        ++corrupt;
      }
      expected.push_back({f.id, sizes[f.index]});
    }
    report.Check(lost == 0, std::to_string(lost) + " acknowledged files not found after rejoin");
    report.Check(corrupt == 0, std::to_string(corrupt) +
                                   " files differ from their inserted bytes after rejoin");
    uint64_t resurrected = 0;
    for (const LiveFile& f : reclaimed) {
      resurrected += network.CountLiveReplicas(f.id) > 0 ? 1 : 0;
    }
    report.Check(resurrected == 0,
                 std::to_string(resurrected) + " reclaimed files still have a replica");
    if (options.fault == Fault::kDropReplica && !live.empty()) {
      DropOneReplica(network, live.front().id);
    }
    CheckPlacement(network, expected, kK, report);
  }

  EndToEnd e2e;
  e2e.setup_s = Median(setup_times);
  e2e.ops_per_s = static_cast<double>(report.attempted) / busy_seconds;
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
  std::vector<uint64_t> probe_sizes;
  std::vector<NodeId> keys;
  std::vector<NodeId> origins;
  for (size_t i = 0; i < d.live.size() && i < kProbeInputs; ++i) {
    const LiveFile& f = d.live[i];
    names.push_back("file" + std::to_string(f.index));
    probe_sizes.push_back(sizes[f.index]);
    keys.push_back(f.id.ToRoutingKey());
    origins.push_back(d.clients[f.owner]->access_node());
  }
  CryptoProbe crypto = ProbeCrypto(names, probe_sizes, options.seed);
  RouteProbe route = ProbeRoute(d.network->overlay(), origins, keys);
  const double inserts = PerOpBase(insert_us.size());
  Layers l;
  l.cert_issue_us = crypto.cert_issue_us;
  l.cert_verify_us = crypto.cert_verify_us;
  l.sha1_mb_per_s = ProbeSha1MbPerS(probe_sizes, options.seed);
  l.route_us = route.route_us;
  l.hops_per_route = PerOp(sink->lookups().hops, sink->lookups().ops);
  l.join_us = Median(deploy_times) * 1e6 / static_cast<double>(nodes);
  l.messages_per_insert = static_cast<double>(sink->inserts().messages) / inserts;
  l.messages_per_lookup = PerOp(sink->lookups().messages, lookup_us.size());
  l.dispatch_self_us = dispatch.self_seconds * 1e6 / PerOpBase(dispatch.sends);
  l.store_op_us = ProbeStoreOpUs(probe_sizes, options.seed, /*durable=*/true);
  l.wal_append_us = phase_env.append_seconds * 1e6 / PerOpBase(phase_env.appends);
  l.wal_fsync_us = phase_env.fsync_seconds * 1e6 / PerOpBase(phase_env.fsyncs);
  l.wal_syscalls_per_insert = static_cast<double>(insert_env_calls) / inserts;
  l.wal_bytes_per_user_byte = PerOp(phase_env.bytes_appended, user_bytes);
  l.space_per_live_byte = PerOp(journal_bytes, live_replica_bytes);
  l.rejoin_ms = Mean(rejoin_ms);
  l.attempts_per_insert = static_cast<double>(insert_attempts) / inserts;
  l.arena_mb =
      static_cast<double>(d.network->overlay().arena().bytes_reserved()) / (1024.0 * 1024.0);

  // Content inserts hash the body twice: the client for the certificate,
  // the root to verify it. The durable store probe already holds the WAL's
  // env time.
  const double mean_size = static_cast<double>(user_bytes) / inserts;
  InsertLayerSum sum;
  sum.crypto_us = CryptoPerInsert(crypto, l.attempts_per_insert, kK);
  sum.hash_us = (1.0 + l.attempts_per_insert) * mean_size / l.sha1_mb_per_s;
  sum.route_us = l.attempts_per_insert * route.route_us;
  sum.store_us = kK * l.store_op_us;
  sum.dispatch_us = insert_dispatch_s * 1e6 / inserts;
  l.op_residual_us = PrintInsertLayerSum(sum, Mean(insert_us));
  AddLayers(l, report);
  return report;
}

}  // namespace perfbench
