// Cache tests: GreedyDual-Size semantics, LRU semantics, and the FileCache
// container's budget handling (paper section 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/cache/file_cache.h"
#include "src/cache/gds_policy.h"
#include "src/cache/lru_policy.h"
#include "src/common/distributions.h"
#include "src/common/rng.h"

namespace past {
namespace {

FileId MakeFileId(uint32_t tag) {
  std::array<uint8_t, 20> bytes{};
  bytes[0] = static_cast<uint8_t>(tag >> 24);
  bytes[1] = static_cast<uint8_t>(tag >> 16);
  bytes[2] = static_cast<uint8_t>(tag >> 8);
  bytes[3] = static_cast<uint8_t>(tag);
  return FileId(bytes);
}

TEST(GdsPolicyTest, EvictsLargestFirstWhenUnreferenced) {
  // With c(d)=1, H = L + 1/size: big files have the smallest H.
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 100);
  gds.OnInsert(MakeFileId(2), 10000);
  gds.OnInsert(MakeFileId(3), 10);
  auto victim = gds.EvictVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, MakeFileId(2));
}

TEST(GdsPolicyTest, HitProtectsEntry) {
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 1000);
  gds.OnInsert(MakeFileId(2), 1000);
  // Age the cache: evicting raises L.
  gds.OnInsert(MakeFileId(3), 500000);
  ASSERT_EQ(*gds.EvictVictim(), MakeFileId(3));
  EXPECT_GT(gds.inflation(), 0.0);
  // A hit on 1 re-inflates its weight above 2's.
  gds.OnHit(MakeFileId(1), 1000);
  EXPECT_EQ(*gds.EvictVictim(), MakeFileId(2));
}

TEST(GdsPolicyTest, InflationRisesMonotonically) {
  GdsPolicy gds;
  for (uint32_t i = 0; i < 10; ++i) {
    gds.OnInsert(MakeFileId(i), 100 * (i + 1));
  }
  double last = gds.inflation();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(gds.EvictVictim().has_value());
    EXPECT_GE(gds.inflation(), last);
    last = gds.inflation();
  }
  EXPECT_FALSE(gds.EvictVictim().has_value());
}

TEST(GdsPolicyTest, RemoveDropsEntry) {
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 100);
  gds.OnRemove(MakeFileId(1));
  EXPECT_FALSE(gds.EvictVictim().has_value());
  gds.OnRemove(MakeFileId(99));  // unknown id: no-op
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  LruPolicy lru;
  lru.OnInsert(MakeFileId(1), 1);
  lru.OnInsert(MakeFileId(2), 1);
  lru.OnInsert(MakeFileId(3), 1);
  lru.OnHit(MakeFileId(1), 1);  // 2 is now the oldest
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(2));
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(3));
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(1));
  EXPECT_FALSE(lru.EvictVictim().has_value());
}

TEST(LruPolicyTest, RemoveDropsEntry) {
  LruPolicy lru;
  lru.OnInsert(MakeFileId(1), 1);
  lru.OnInsert(MakeFileId(2), 1);
  lru.OnRemove(MakeFileId(1));
  EXPECT_EQ(*lru.EvictVictim(), MakeFileId(2));
  EXPECT_FALSE(lru.EvictVictim().has_value());
}

TEST(FileCacheTest, InsertWithinBudget) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_TRUE(cache.Insert(MakeFileId(1), 100, 1000));
  EXPECT_EQ(cache.used(), 100u);
  EXPECT_TRUE(cache.Lookup(MakeFileId(1)));
  EXPECT_FALSE(cache.Lookup(MakeFileId(2)));
}

TEST(FileCacheTest, AdmissionFractionRespected) {
  // c = 0.1: a file must be smaller than 10% of the budget.
  FileCache cache(std::make_unique<LruPolicy>(), 0.1);
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 200, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(2), 50, 1000));
}

TEST(FileCacheTest, FileAsLargeAsBudgetRejected) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  // size >= c * budget is rejected (strict inequality in the paper).
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 1000, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(2), 999, 1000));
}

TEST(FileCacheTest, EvictsToMakeRoom) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_TRUE(cache.Insert(MakeFileId(1), 400, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(2), 400, 1000));
  EXPECT_TRUE(cache.Insert(MakeFileId(3), 400, 1000));  // evicts 1
  EXPECT_LE(cache.used(), 1000u);
  EXPECT_FALSE(cache.Lookup(MakeFileId(1), /*touch=*/false));
  EXPECT_TRUE(cache.Lookup(MakeFileId(2), /*touch=*/false));
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(FileCacheTest, ShrinkToBudgetEvicts) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  cache.Insert(MakeFileId(1), 300, 1000);
  cache.Insert(MakeFileId(2), 300, 1000);
  cache.Insert(MakeFileId(3), 300, 1000);
  cache.ShrinkToBudget(500);
  EXPECT_LE(cache.used(), 500u);
  EXPECT_EQ(cache.count(), 1u);
}

TEST(FileCacheTest, RemoveSpecificFile) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  cache.Insert(MakeFileId(1), 100, 1000);
  EXPECT_TRUE(cache.Remove(MakeFileId(1)));
  EXPECT_FALSE(cache.Remove(MakeFileId(1)));
  EXPECT_EQ(cache.used(), 0u);
}

TEST(FileCacheTest, SizeOfReportsWithoutTouching) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  cache.Insert(MakeFileId(1), 123, 1000);
  auto size = cache.SizeOf(MakeFileId(1));
  ASSERT_TRUE(size.has_value());
  EXPECT_EQ(*size, 123u);
  EXPECT_FALSE(cache.SizeOf(MakeFileId(2)).has_value());
}

TEST(FileCacheTest, DuplicateInsertRejected) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_TRUE(cache.Insert(MakeFileId(1), 100, 1000));
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 100, 1000));
  EXPECT_EQ(cache.used(), 100u);
}

TEST(FileCacheTest, ZeroByteFilesNotCached) {
  FileCache cache(std::make_unique<LruPolicy>(), 1.0);
  EXPECT_FALSE(cache.Insert(MakeFileId(1), 0, 1000));
}

TEST(FileCacheTest, ZeroByteRejectionLeavesAccountingUntouched) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 400, 1000));
  EXPECT_FALSE(cache.Insert(MakeFileId(2), 0, 1000));
  EXPECT_EQ(cache.used(), 400u);
  EXPECT_EQ(cache.count(), 1u);
  EXPECT_EQ(cache.Entries().size(), 1u);
  // The rejected file never entered the policy either: evicting drains only
  // the real entry.
  cache.ShrinkToBudget(0);
  EXPECT_EQ(cache.used(), 0u);
  EXPECT_EQ(cache.count(), 0u);
}

TEST(GdsPolicyTest, ZeroSizeEntryIsSafeAndEvictedLast) {
  // H = L + 1/max(1, size): a zero-size entry must not divide by zero, and
  // it gets the largest weight so larger files are evicted first.
  GdsPolicy gds;
  gds.OnInsert(MakeFileId(1), 0);
  gds.OnInsert(MakeFileId(2), 1000);
  auto victim = gds.EvictVictim();
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(*victim, MakeFileId(2));
  auto last = gds.EvictVictim();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(*last, MakeFileId(1));
}

TEST(FileCacheTest, ExactCapacityFitNeedsNoEviction) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 400, 1000));
  // 400 + 600 lands exactly on the budget: admitted with zero evictions.
  ASSERT_TRUE(cache.Insert(MakeFileId(2), 600, 1000));
  EXPECT_EQ(cache.used(), 1000u);
  EXPECT_EQ(cache.count(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(FileCacheTest, EvictionStopsAtExactFit) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 500, 1000));
  ASSERT_TRUE(cache.Insert(MakeFileId(2), 400, 1000));
  // Admitting 600 must evict entry 1 (largest ⇒ smallest GD-S weight) and
  // then stop: 400 + 600 fits the budget exactly.
  ASSERT_TRUE(cache.Insert(MakeFileId(3), 600, 1000));
  EXPECT_EQ(cache.used(), 1000u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.SizeOf(MakeFileId(1)).has_value());
  EXPECT_TRUE(cache.SizeOf(MakeFileId(2)).has_value());
  EXPECT_TRUE(cache.SizeOf(MakeFileId(3)).has_value());
}

TEST(FileCacheTest, EntriesSnapshotMatchesAccounting) {
  FileCache cache(std::make_unique<GdsPolicy>(), 1.0);
  ASSERT_TRUE(cache.Insert(MakeFileId(1), 300, 10'000));
  ASSERT_TRUE(cache.Insert(MakeFileId(2), 700, 10'000));
  ASSERT_TRUE(cache.Insert(MakeFileId(3), 1'000, 10'000));
  uint64_t sum = 0;
  for (const auto& [id, size] : cache.Entries()) {
    (void)id;
    sum += size;
  }
  EXPECT_EQ(sum, cache.used());
  EXPECT_EQ(cache.Entries().size(), cache.count());
  // Removal keeps the snapshot in lockstep.
  ASSERT_TRUE(cache.Remove(MakeFileId(2)));
  EXPECT_EQ(cache.Entries().size(), 2u);
  sum = 0;
  for (const auto& [id, size] : cache.Entries()) {
    (void)id;
    sum += size;
  }
  EXPECT_EQ(sum, cache.used());
}

// Comparative property: on a Zipf-like trace with varied sizes, GD-S should
// achieve at least as high a hit rate as LRU (the paper's Figure 8 finding).
TEST(CachePolicyComparisonTest, GdsBeatsLruOnSkewedTrace) {
  auto run = [](std::unique_ptr<EvictionPolicy> policy) {
    FileCache cache(std::move(policy), 1.0);
    const uint64_t budget = 50000;
    Rng rng(77);
    Zipf zipf(500, 0.9);
    std::vector<uint64_t> sizes(500);
    FileSizeDistribution dist(1312, 10517, 0.0, 1.1, 1000000);
    for (auto& s : sizes) {
      s = std::max<uint64_t>(1, dist.Sample(rng));
    }
    uint64_t hits = 0, refs = 0;
    for (int i = 0; i < 30000; ++i) {
      uint32_t f = static_cast<uint32_t>(zipf.Sample(rng));
      ++refs;
      if (cache.Lookup(MakeFileId(f))) {
        ++hits;
      } else {
        cache.Insert(MakeFileId(f), sizes[f], budget);
      }
    }
    return static_cast<double>(hits) / static_cast<double>(refs);
  };
  double gds_rate = run(std::make_unique<GdsPolicy>());
  double lru_rate = run(std::make_unique<LruPolicy>());
  EXPECT_GT(gds_rate, 0.1);
  EXPECT_GE(gds_rate, lru_rate - 0.02);
}

// --- Differential oracle -------------------------------------------------
//
// Reference models: the original node-based policies (std::set +
// unordered_map GD-S, std::list + unordered_map LRU), kept here verbatim as
// the behavioural specification. The production policies must pick the
// same victim and (GD-S) reach the same inflation after every eviction.

class ReferenceGds {
 public:
  void OnInsert(const FileId& id, uint64_t size) { Enqueue(id, size); }
  void OnHit(const FileId& id, uint64_t size) { Enqueue(id, size); }
  void OnRemove(const FileId& id) {
    auto it = weight_.find(id);
    if (it == weight_.end()) {
      return;
    }
    queue_.erase({it->second, id});
    weight_.erase(it);
  }
  std::optional<FileId> EvictVictim() {
    if (queue_.empty()) {
      return std::nullopt;
    }
    auto it = queue_.begin();
    FileId victim = it->second;
    inflation_ = it->first;
    queue_.erase(it);
    weight_.erase(victim);
    return victim;
  }
  double inflation() const { return inflation_; }

 private:
  void Enqueue(const FileId& id, uint64_t size) {
    double h = inflation_ + 1.0 / std::max<double>(1.0, static_cast<double>(size));
    auto it = weight_.find(id);
    if (it != weight_.end()) {
      queue_.erase({it->second, id});
      it->second = h;
    } else {
      weight_[id] = h;
    }
    queue_.insert({h, id});
  }

  double inflation_ = 0.0;
  std::unordered_map<FileId, double, FileIdHash> weight_;
  std::set<std::pair<double, FileId>> queue_;
};

class ReferenceLru {
 public:
  void OnInsert(const FileId& id, uint64_t) { Touch(id); }
  void OnHit(const FileId& id, uint64_t) { Touch(id); }
  void OnRemove(const FileId& id) {
    auto it = index_.find(id);
    if (it == index_.end()) {
      return;
    }
    order_.erase(it->second);
    index_.erase(it);
  }
  std::optional<FileId> EvictVictim() {
    if (order_.empty()) {
      return std::nullopt;
    }
    FileId victim = order_.back();
    order_.pop_back();
    index_.erase(victim);
    return victim;
  }

 private:
  void Touch(const FileId& id) {
    auto it = index_.find(id);
    if (it != index_.end()) {
      order_.erase(it->second);
    }
    order_.push_front(id);
    index_[id] = order_.begin();
  }

  std::list<FileId> order_;
  std::unordered_map<FileId, std::list<FileId>::iterator, FileIdHash> index_;
};

double InflationOf(const GdsPolicy& p) { return p.inflation(); }
double InflationOf(const ReferenceGds& p) { return p.inflation(); }
double InflationOf(const LruPolicy&) { return 0.0; }
double InflationOf(const ReferenceLru&) { return 0.0; }

// Drives `policy` and `model` with one seeded stream of insert, hit,
// remove and evict. Ids come from a fixed random pool so evicted and
// removed ids are re-inserted later; sizes come from a short list with
// repeats (equal GD-S weights, so the FileId tie-break decides) and zeros,
// and a re-insert of a tracked id may change its size.
// Growth and drain phases alternate so the tracked set both deepens and
// empties.
template <typename Policy, typename Model>
void RunDifferential(uint64_t seed) {
  Policy policy;
  Model model;
  Rng rng(seed);
  std::vector<FileId> pool(600);
  for (FileId& id : pool) {
    std::array<uint8_t, FileId::kBytes> bytes{};
    for (auto& b : bytes) {
      b = static_cast<uint8_t>(rng.NextBelow(4));  // shared prefixes
    }
    for (size_t i = 0; i < 8; ++i) {
      bytes[12 + i] = static_cast<uint8_t>(rng.NextU64());
    }
    id = FileId(bytes);
  }
  const uint64_t kSizes[] = {0, 1, 7, 100, 100, 100, 1000, 1000, 4096, 65536};
  std::vector<uint64_t> size_of(pool.size(), 0);
  std::vector<size_t> tracked;                       // pool indices
  std::vector<size_t> slot_in_tracked(pool.size(), SIZE_MAX);
  auto untrack = [&](size_t i) {
    size_t at = slot_in_tracked[i];
    tracked[at] = tracked.back();
    slot_in_tracked[tracked[at]] = at;
    tracked.pop_back();
    slot_in_tracked[i] = SIZE_MAX;
  };
  size_t evictions = 0;
  for (int step = 0; step < 40000; ++step) {
    const bool draining = (step / 3000) % 2 == 1;
    const double roll = rng.NextDouble();
    if (roll < (draining ? 0.45 : 0.08)) {
      auto got = policy.EvictVictim();
      auto want = model.EvictVictim();
      ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed << " step " << step;
      if (want) {
        ASSERT_EQ(*got, *want) << "seed " << seed << " step " << step;
        size_t i = static_cast<size_t>(
            std::find(pool.begin(), pool.end(), *want) - pool.begin());
        untrack(i);
        ++evictions;
      }
      ASSERT_EQ(InflationOf(policy), InflationOf(model)) << "seed " << seed << " step " << step;
    } else if (roll < 0.55) {
      // Insert; an id already tracked is re-inserted, sometimes at a new
      // size, which can lower its GD-S weight.
      size_t i = rng.NextBelow(pool.size());
      if (slot_in_tracked[i] == SIZE_MAX) {
        slot_in_tracked[i] = tracked.size();
        tracked.push_back(i);
        size_of[i] = kSizes[rng.NextBelow(std::size(kSizes))];
      } else if (rng.NextBool(0.3)) {
        size_of[i] = kSizes[rng.NextBelow(std::size(kSizes))];
      }
      policy.OnInsert(pool[i], size_of[i]);
      model.OnInsert(pool[i], size_of[i]);
    } else if (roll < 0.88) {
      if (tracked.empty()) {
        continue;
      }
      size_t i = tracked[rng.NextBelow(tracked.size())];
      policy.OnHit(pool[i], size_of[i]);
      model.OnHit(pool[i], size_of[i]);
    } else {
      // Remove: mostly tracked ids, sometimes an id the policy never saw.
      size_t i = rng.NextBelow(pool.size());
      if (!tracked.empty() && rng.NextBool(0.8)) {
        i = tracked[rng.NextBelow(tracked.size())];
      }
      if (slot_in_tracked[i] != SIZE_MAX) {
        untrack(i);
      }
      policy.OnRemove(pool[i]);
      model.OnRemove(pool[i]);
    }
  }
  // Drain: the full remaining order must agree too.
  for (;;) {
    auto got = policy.EvictVictim();
    auto want = model.EvictVictim();
    ASSERT_EQ(got.has_value(), want.has_value()) << "seed " << seed << " drain";
    if (!want) {
      break;
    }
    ASSERT_EQ(*got, *want) << "seed " << seed << " drain";
    ASSERT_EQ(InflationOf(policy), InflationOf(model)) << "seed " << seed << " drain";
    ++evictions;
  }
  EXPECT_GT(evictions, 1000u);
}

TEST(PolicyDifferentialTest, GdsMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ASSERT_NO_FATAL_FAILURE((RunDifferential<GdsPolicy, ReferenceGds>(seed)));
  }
}

TEST(PolicyDifferentialTest, LruMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ASSERT_NO_FATAL_FAILURE((RunDifferential<LruPolicy, ReferenceLru>(seed)));
  }
}

}  // namespace
}  // namespace past
