// Network-level caching golden: route-side GD-S and LRU caches under a
// load that forces evictions. Every other golden bank runs with caching
// off, so this table is what pins the eviction policies' behaviour inside
// the full insert/lookup path: total hits, insertions and evictions across
// all nodes, and a digest of every node's (cache.used(), cache.count()) in
// join order.
//
// A change to the cache policies or to the caching path must reproduce
// these values exactly. If a change alters caching on purpose, regenerate
// the table from the values the failing assertions print and say why in
// CHANGES.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/common/distributions.h"
#include "src/common/rng.h"
#include "src/harness/experiment.h"
#include "src/past/client.h"

namespace past {
namespace {

struct CacheGolden {
  CacheMode mode;
  uint64_t seed;
  uint64_t hits;
  uint64_t insertions;
  uint64_t evictions;
  const char* digest;  // FNV-1a over every node's (used, count)
};

struct CacheTotals {
  uint64_t hits = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  std::string digest;
};

// 200 nodes with 400 KB each, c = 1. 1,000 files of 1,000-16,000 bytes (in
// steps of 1,000, so many share a size and hence a GD-S weight) are inserted
// from random access nodes, then 6,000 Zipf(0.8) lookups come from random
// access nodes. The k = 5 replicas take about half the disk, leaving each
// cache room for a couple of dozen files, so caches evict throughout.
CacheTotals RunCachedDeployment(CacheMode mode, uint64_t seed) {
  PastConfig config;
  config.cache_mode = mode;
  config.cache_fraction_c = 1.0;
  TestDeployment deployment = BuildDeployment(200, 400'000, config, seed);
  PastNetwork& network = *deployment.network;
  const std::vector<NodeId>& nodes = deployment.node_ids;
  Rng rng(seed * 7919 + 1);
  PastClient client(network, nodes[0], 1ull << 40, seed + 1);

  std::vector<FileId> files;
  for (int i = 0; i < 1000; ++i) {
    client.set_access_node(nodes[rng.NextBelow(nodes.size())]);
    uint64_t size = 1000 * (1 + rng.NextBelow(16));
    ClientInsertResult inserted = client.Insert("file-" + std::to_string(i), size);
    if (inserted.stored) {
      files.push_back(inserted.file_id);
    }
  }
  Zipf zipf(files.size(), 0.8);
  for (int i = 0; i < 6000; ++i) {
    client.set_access_node(nodes[rng.NextBelow(nodes.size())]);
    client.Lookup(files[zipf.Sample(rng)]);
  }

  CacheTotals totals;
  uint64_t digest = 0xcbf29ce484222325ULL;
  auto mix = [&digest](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      digest ^= (v >> (8 * i)) & 0xff;
      digest *= 0x100000001b3ULL;
    }
  };
  for (const NodeId& id : nodes) {
    const FileCache* cache = network.storage_node(id)->cache();
    totals.hits += cache->hits();
    totals.insertions += cache->insertions();
    totals.evictions += cache->evictions();
    mix(cache->used());
    mix(cache->count());
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  totals.digest = hex;
  return totals;
}

constexpr CacheGolden kCacheGolden[] = {
    {CacheMode::kGreedyDualSize, 1, 1662, 8569, 3059, "52e18ccbeef8dad9"},
    {CacheMode::kGreedyDualSize, 2, 1726, 8593, 3567, "6cd4e89e578ea705"},
    {CacheMode::kGreedyDualSize, 3, 1692, 8709, 3413, "1c107e984462ce15"},
    {CacheMode::kLru, 1, 1612, 8639, 4128, "a598a700e812427f"},
    {CacheMode::kLru, 2, 1706, 8587, 4626, "11ee56604e8a72dd"},
    {CacheMode::kLru, 3, 1691, 8705, 4451, "a98a79f8f3d54eb4"},
};

class CacheGoldenRuns : public ::testing::TestWithParam<size_t> {};

TEST_P(CacheGoldenRuns, CachingMatchesGoldenTotalsAndDigest) {
  const CacheGolden& golden = kCacheGolden[GetParam()];
  CacheTotals got = RunCachedDeployment(golden.mode, golden.seed);
  const char* policy = golden.mode == CacheMode::kLru ? "LRU" : "GD-S";
  EXPECT_GT(got.evictions, 0u) << policy << " seed " << golden.seed;
  EXPECT_EQ(got.hits, golden.hits) << policy << " seed " << golden.seed;
  EXPECT_EQ(got.insertions, golden.insertions) << policy << " seed " << golden.seed;
  EXPECT_EQ(got.evictions, golden.evictions) << policy << " seed " << golden.seed;
  EXPECT_EQ(got.digest, golden.digest) << policy << " seed " << golden.seed;
}

INSTANTIATE_TEST_SUITE_P(Golden, CacheGoldenRuns,
                         ::testing::Range(size_t{0}, std::size(kCacheGolden)));

}  // namespace
}  // namespace past
