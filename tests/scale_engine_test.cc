// Shard-invariance and consistency tests for the epoch-sharded scale engine.
//
// The determinism contract is that --jobs changes only wall-clock time: runs
// with 1/2/4/8 shards must produce bit-identical network state and op
// schedules. These tests pin that contract at tier-1 sizes (hundreds of
// nodes); the 20-seed soak and the 10k-node smoke in CI cover larger runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/sim/scale_engine.h"

namespace past {
namespace {

ScaleConfig SmallConfig(uint64_t seed) {
  ScaleConfig config;
  config.nodes = 260;
  config.seed = seed;
  config.epochs = 3;
  config.inserts_per_epoch = 60;
  config.lookups_per_epoch = 60;
  config.crashes_per_epoch = 6;
  config.joins_per_epoch = 3;
  config.sweep_period = 2;
  config.node_capacity = 4'000'000;
  config.mean_file_size = 40'000;
  return config;
}

struct RunWitness {
  std::string state;
  std::string schedule;
  ScaleReport report;
};

RunWitness RunWith(ScaleConfig config, size_t jobs) {
  config.jobs = jobs;
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();
  return {report.state_fingerprint, report.schedule_fingerprint, report};
}

// Golden fingerprints of a high-utilisation run: node capacity 10x the mean
// file size and 800 inserts per epoch fill the network past half. The
// shard- and cohort-invariance tests only compare runs with each other, so a
// semantic change to Phase B (primary store, replica diversion with diverter
// and witness pointers, rollback) would pass them; this table pins the
// absolute outcome. Regenerate it only for a deliberate behaviour change,
// and say so in the change description.
ScaleConfig HighUtilizationConfig(uint64_t seed) {
  ScaleConfig config = SmallConfig(seed);
  config.node_capacity = 10 * config.mean_file_size;
  config.inserts_per_epoch = 800;
  return config;
}

constexpr struct {
  uint64_t seed;
  const char* state;
  const char* schedule;
} kHighUtilizationGolden[] = {
    {1, "48049433cff65509ec06c3f4203451e185a4dee1", "c6906708a406592d14f73594c44faafe3b505705"},
    {2, "c5bd27f00f71ea4d0fe00cbd167ff8ef2abac2ce", "80aadbac15cba8b85ee6b81bbb0d2d4be0fd1044"},
    {3, "2df215eb21366e10125cd1da0690cfa1cebf21af", "7206fcac57c1e8c477fe46a54541cbf3f7399d8b"},
};

TEST(ScaleEngineTest, HighUtilizationMatchesGoldenFingerprints) {
  for (const auto& golden : kHighUtilizationGolden) {
    ScaleEngine engine(HighUtilizationConfig(golden.seed));
    ScaleReport report = engine.Run();
    EXPECT_EQ(report.state_fingerprint, golden.state) << "seed " << golden.seed;
    EXPECT_EQ(report.schedule_fingerprint, golden.schedule) << "seed " << golden.seed;
    // The pin covers every branch of the insert commit: replicas diverted
    // under t_pri (with diverter and witness pointers) are still live at the
    // end, and inserts whose diversion was declined too were rolled back.
    PastCounters counters = engine.network().CountersSnapshot();
    EXPECT_GT(counters.replicas_diverted_total, 0u) << "seed " << golden.seed;
    EXPECT_GT(counters.insert_attempts_failed, 0u) << "seed " << golden.seed;
  }
}

TEST(ScaleEngineTest, ShardCountInvariantAcrossSeeds) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    RunWitness serial = RunWith(SmallConfig(seed), 1);
    for (size_t jobs : {size_t{2}, size_t{4}, size_t{8}}) {
      RunWitness sharded = RunWith(SmallConfig(seed), jobs);
      EXPECT_EQ(sharded.state, serial.state) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(sharded.schedule, serial.schedule) << "seed " << seed << " jobs " << jobs;
      EXPECT_EQ(sharded.report.inserts_stored, serial.report.inserts_stored);
      EXPECT_EQ(sharded.report.lookups_found, serial.report.lookups_found);
      EXPECT_EQ(sharded.report.route_hops, serial.report.route_hops);
    }
  }
}

TEST(ScaleEngineTest, JoinCohortInvariantAcrossSeeds) {
  // Batched join announcements are observationally identical to the eager
  // per-join schedule: cohort=1 bypasses the queueing machinery entirely
  // (the historical path), 16 exercises repeated intra-build flushes, and
  // 1024 > nodes covers the single-flush-at-end edge. All three must land
  // on the same state and schedule fingerprints for the full seed bank.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ScaleConfig base = SmallConfig(seed);
    base.join_cohort = 1;
    RunWitness eager = RunWith(base, 1);
    for (size_t cohort : {size_t{16}, size_t{1024}}) {
      ScaleConfig batched = SmallConfig(seed);
      batched.join_cohort = cohort;
      RunWitness b = RunWith(batched, 1);
      EXPECT_EQ(b.state, eager.state) << "seed " << seed << " cohort " << cohort;
      EXPECT_EQ(b.schedule, eager.schedule) << "seed " << seed << " cohort " << cohort;
      EXPECT_EQ(b.report.inserts_stored, eager.report.inserts_stored);
      EXPECT_EQ(b.report.route_hops, eager.report.route_hops);
    }
  }
}

TEST(ScaleEngineTest, DifferentSeedsDiverge) {
  RunWitness a = RunWith(SmallConfig(11), 2);
  RunWitness b = RunWith(SmallConfig(12), 2);
  EXPECT_NE(a.state, b.state);
  EXPECT_NE(a.schedule, b.schedule);
}

TEST(ScaleEngineTest, RerunIsReproducible) {
  RunWitness first = RunWith(SmallConfig(7), 4);
  RunWitness second = RunWith(SmallConfig(7), 4);
  EXPECT_EQ(first.state, second.state);
  EXPECT_EQ(first.schedule, second.schedule);
}

TEST(ScaleEngineTest, ShardStatsSumToOpOrderTotals) {
  ScaleConfig config = SmallConfig(3);
  config.jobs = 4;
  ScaleEngine engine(config);
  engine.Run();
  TransportStats merged;
  for (const TransportStats& shard : engine.shard_stats()) {
    merged.MergeFrom(shard);
  }
  const TransportStats& totals = engine.op_route_totals();
  EXPECT_EQ(merged.hops(), totals.hops());
  EXPECT_EQ(merged.messages(), totals.messages());
  EXPECT_EQ(merged.bytes_sent(), totals.bytes_sent());
  EXPECT_EQ(merged.rpcs(), totals.rpcs());
  // Doubles accumulate in different orders (shard order vs op order), so the
  // sums agree only up to rounding.
  EXPECT_NEAR(merged.total_distance(), totals.total_distance(),
              1e-9 * (1.0 + totals.total_distance()));
}

TEST(ScaleEngineTest, ReportIsCoherent) {
  ScaleConfig config = SmallConfig(9);
  config.jobs = 2;
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();

  EXPECT_EQ(report.inserts, config.epochs * config.inserts_per_epoch);
  EXPECT_LE(report.inserts_stored, report.inserts);
  EXPECT_GT(report.inserts_stored, 0u);
  EXPECT_LE(report.lookups_found, report.lookups);
  // Lookups target committed files on a network with full replication and
  // light churn; the overwhelming majority must be found.
  EXPECT_GT(report.lookups_found * 10, report.lookups * 9);
  EXPECT_GT(report.route_hops, 0u);
  EXPECT_EQ(report.files_tracked, report.inserts_stored);
  EXPECT_GT(report.utilization, 0.0);
  EXPECT_LT(report.utilization, 1.0);
  EXPECT_EQ(report.state_fingerprint.size(), 40u);  // SHA-1 hex
  EXPECT_EQ(report.schedule_fingerprint.size(), 40u);

  // Churn happened and stayed bounded.
  size_t expected_live = config.nodes;
  for (const ScaleEpochStats& epoch : engine.epoch_stats()) {
    expected_live -= epoch.crashes;
    expected_live += epoch.joins;
  }
  EXPECT_EQ(report.live_nodes, expected_live);
}

TEST(ScaleEngineTest, MeanFieldWindowIsPopulated) {
  ScaleConfig config = SmallConfig(5);
  config.jobs = 2;
  // sweep_period=2 with 3 epochs leaves a one-epoch measurement window after
  // the sweep at the end of epoch 2.
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();
  ASSERT_FALSE(report.replica_histogram.empty());
  ASSERT_EQ(report.replica_histogram.size(), report.predicted_histogram.size());
  EXPECT_EQ(report.epochs_since_sweep, 1u);
  EXPECT_GT(report.eligible_files, 0u);
  EXPECT_GT(report.survival_probability, 0.0);
  EXPECT_LE(report.survival_probability, 1.0);
  // Histogram masses agree: both sum to the eligible-file count.
  uint64_t empirical_total = 0;
  for (uint64_t count : report.replica_histogram) {
    empirical_total += count;
  }
  double predicted_total = 0.0;
  for (double mass : report.predicted_histogram) {
    predicted_total += mass;
  }
  EXPECT_EQ(empirical_total, report.eligible_files);
  EXPECT_NEAR(predicted_total, static_cast<double>(report.eligible_files), 1e-6);
  EXPECT_GE(report.tv_distance, 0.0);
  EXPECT_LE(report.tv_distance, 1.0);
}

TEST(ScaleEngineTest, ValidateRejectsNegativeCountsAndJobsOutOfRange) {
  // Values as bench_scale's flag parsing produces them: a negative int64
  // cast to size_t. Only Validate() runs — no engine, so no thread starts.
  EXPECT_TRUE(SmallConfig(1).Validate().empty());
  ScaleConfig config = SmallConfig(1);
  config.jobs = 256;
  EXPECT_TRUE(config.Validate().empty());

  config = SmallConfig(1);
  config.jobs = static_cast<size_t>(int64_t{-1});
  std::vector<std::string> errors = config.Validate();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("jobs must be in [1, 256] (got -1)"), std::string::npos) << errors[0];

  for (size_t jobs : {size_t{0}, size_t{257}}) {
    config.jobs = jobs;
    EXPECT_EQ(config.Validate().size(), 1u) << "jobs " << jobs;
  }

  config = SmallConfig(1);
  config.nodes = static_cast<size_t>(int64_t{-5});
  config.epochs = static_cast<size_t>(int64_t{-1});
  config.node_capacity = static_cast<uint64_t>(int64_t{-100});
  errors = config.Validate();
  ASSERT_EQ(errors.size(), 3u);
  EXPECT_EQ(errors[0], "nodes must not be negative (got -5)");
  EXPECT_EQ(errors[1], "epochs must not be negative (got -1)");
  EXPECT_EQ(errors[2], "node_capacity must not be negative (got -100)");
}

TEST(ScaleEngineTest, NoChurnKeepsEverythingFound) {
  ScaleConfig config = SmallConfig(2);
  config.crashes_per_epoch = 0;
  config.joins_per_epoch = 0;
  config.sweep_period = 0;
  config.jobs = 4;
  ScaleEngine engine(config);
  ScaleReport report = engine.Run();
  EXPECT_EQ(report.inserts_stored, report.inserts);
  EXPECT_EQ(report.lookups_found, report.lookups);
  EXPECT_EQ(report.live_nodes, config.nodes);
}

}  // namespace
}  // namespace past
