// Churn tests: node joins, failures, silent failures with keep-alive
// detection, recovery, and the leaf-set invariant under mixed churn.
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/pastry/network.h"

namespace past {
namespace {

TEST(PastryChurnTest, JoinMaintainsLeafSets) {
  PastryConfig config;
  PastryNetwork network(config, 31);
  network.BuildInitialNetwork(100);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
  for (int i = 0; i < 50; ++i) {
    network.CreateNode();
  }
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
}

TEST(PastryChurnTest, FailureRepairsLeafSets) {
  PastryConfig config;
  PastryNetwork network(config, 32);
  network.BuildInitialNetwork(120);
  Rng rng(33);
  for (int i = 0; i < 30; ++i) {
    std::vector<NodeId> nodes = network.live_nodes();
    network.FailNode(nodes[rng.NextBelow(nodes.size())]);
  }
  EXPECT_EQ(network.live_count(), 90u);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
}

// FailNode/FailNodeSilently erase the id from the ring before they use it
// again, so they must not hold a reference into the ring: a caller passing
// ring().at(i) directly must fail exactly node i, not its successor.
TEST(PastryChurnTest, FailNodeWithIdAliasingTheRing) {
  PastryConfig config;
  PastryNetwork network(config, 37);
  network.BuildInitialNetwork(100);
  Rng rng(38);
  for (int i = 0; i < 20; ++i) {
    size_t at = rng.NextBelow(network.ring().size() - 1);
    NodeId victim = network.ring().at(at);
    NodeId successor = network.ring().at(at + 1);
    if (i % 2 == 0) {
      network.FailNode(network.ring().at(at));
    } else {
      network.FailNodeSilently(network.ring().at(at));
      EXPECT_EQ(network.DetectAndRepair(), 1u);
    }
    EXPECT_FALSE(network.IsAlive(victim));
    EXPECT_FALSE(network.topology().Contains(victim));
    EXPECT_TRUE(network.IsAlive(successor));
    EXPECT_TRUE(network.topology().Contains(successor));
  }
  EXPECT_EQ(network.live_count(), 80u);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
  // Joins route through the survivors' topology locations.
  for (int i = 0; i < 10; ++i) {
    network.CreateNode();
  }
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
}

TEST(PastryChurnTest, RoutingCorrectAfterChurn) {
  PastryConfig config;
  PastryNetwork network(config, 34);
  network.BuildInitialNetwork(150);
  Rng rng(35);
  for (int i = 0; i < 40; ++i) {
    if (rng.NextBool(0.5)) {
      network.CreateNode();
    } else {
      std::vector<NodeId> nodes = network.live_nodes();
      network.FailNode(nodes[rng.NextBelow(nodes.size())]);
    }
  }
  std::vector<NodeId> nodes = network.live_nodes();
  for (int i = 0; i < 200; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    NodeId origin = nodes[rng.NextBelow(nodes.size())];
    EXPECT_EQ(network.Route(origin, key).destination(), network.ClosestLive(key));
  }
}

TEST(PastryChurnTest, SilentFailureDetectedByKeepAlive) {
  PastryConfig config;
  PastryNetwork network(config, 36);
  network.BuildInitialNetwork(80);
  std::vector<NodeId> nodes = network.live_nodes();
  NodeId victim = nodes[10];
  network.FailNodeSilently(victim);
  // Before the keep-alive round, some leaf sets still reference the corpse.
  size_t detected = network.DetectAndRepair();
  EXPECT_EQ(detected, 1u);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
  // A second round finds nothing.
  EXPECT_EQ(network.DetectAndRepair(), 0u);
}

TEST(PastryChurnTest, RoutingWorksDespiteUndetectedSilentFailures) {
  // Routes must succeed even before keep-alive detection, via lazy repair.
  PastryConfig config;
  PastryNetwork network(config, 37);
  network.BuildInitialNetwork(120);
  Rng rng(38);
  std::vector<NodeId> nodes = network.live_nodes();
  for (int i = 0; i < 10; ++i) {
    network.FailNodeSilently(nodes[rng.NextBelow(nodes.size())]);
  }
  std::vector<NodeId> live = network.live_nodes();
  for (int i = 0; i < 100; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    NodeId origin = live[rng.NextBelow(live.size())];
    EXPECT_EQ(network.Route(origin, key).destination(), network.ClosestLive(key));
  }
}

TEST(PastryChurnTest, RecoveredNodeRejoins) {
  PastryConfig config;
  PastryNetwork network(config, 39);
  network.BuildInitialNetwork(60);
  std::vector<NodeId> nodes = network.live_nodes();
  NodeId victim = nodes[5];
  network.FailNode(victim);
  EXPECT_FALSE(network.IsAlive(victim));
  EXPECT_TRUE(network.RecoverNode(victim));
  EXPECT_TRUE(network.IsAlive(victim));
  EXPECT_EQ(network.live_count(), 60u);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
  // Recovering an alive node is rejected.
  EXPECT_FALSE(network.RecoverNode(victim));
}

TEST(PastryChurnTest, ObserverSeesMembershipEvents) {
  class Recorder : public MembershipObserver {
   public:
    void OnNodeJoined(const NodeId& id) override { joined.push_back(id); }
    void OnNodeFailed(const NodeId& id) override { failed.push_back(id); }
    std::vector<NodeId> joined;
    std::vector<NodeId> failed;
  };
  PastryConfig config;
  PastryNetwork network(config, 40);
  Recorder recorder;
  network.AddObserver(&recorder);
  network.BuildInitialNetwork(10);
  EXPECT_EQ(recorder.joined.size(), 10u);
  std::vector<NodeId> nodes = network.live_nodes();
  network.FailNode(nodes[0]);
  ASSERT_EQ(recorder.failed.size(), 1u);
  EXPECT_EQ(recorder.failed[0], nodes[0]);
  network.RemoveObserver(&recorder);
  network.CreateNode();
  EXPECT_EQ(recorder.joined.size(), 10u);  // no longer notified
}

TEST(PastryChurnTest, WindowedRepairKeepsLeafSetsExact) {
  // The tests above stay below 4l live nodes, where RepairAfterFailure scans
  // the whole ring; 2,000 nodes at the default l takes the windowed branch
  // the scale engine runs. Each burst crashes a node and its next 3-4
  // clockwise live neighbours, so the donors of the later repairs have
  // themselves just lost members (and been repaired).
  PastryConfig config;
  PastryNetwork network(config, 41);
  network.BuildInitialNetwork(2000);
  ASSERT_GT(network.live_count(), 4u * static_cast<size_t>(config.leaf_set_size));
  Rng rng(42);
  for (int burst = 0; burst < 60; ++burst) {
    const SortedRing& ring = network.ring();
    const size_t first = rng.NextBelow(ring.size());
    const size_t width = 4 + rng.NextBelow(2);
    std::vector<NodeId> victims;
    for (size_t i = 0; i < width; ++i) {
      victims.push_back(ring.at((first + i) % ring.size()));
    }
    for (const NodeId& victim : victims) {
      network.FailNode(victim);
    }
    for (int j = 0; j < 2; ++j) {
      network.CreateNode();
    }
    ASSERT_EQ(network.CountLeafSetViolations(), 0u) << "after burst " << burst;
  }
  std::vector<NodeId> nodes = network.live_nodes();
  network.FailNodeSilently(nodes[rng.NextBelow(nodes.size())]);
  EXPECT_EQ(network.DetectAndRepair(), 1u);
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
  nodes = network.live_nodes();
  for (int i = 0; i < 200; ++i) {
    NodeId key(rng.NextU64(), rng.NextU64());
    NodeId origin = nodes[rng.NextBelow(nodes.size())];
    EXPECT_EQ(network.Route(origin, key).destination(), network.ClosestLive(key));
  }
}

// Heavier randomized churn property test across seeds.
class ChurnPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChurnPropertyTest, LeafSetInvariantSurvivesMixedChurn) {
  PastryConfig config;
  config.leaf_set_size = 16;
  PastryNetwork network(config, GetParam());
  network.BuildInitialNetwork(80);
  Rng rng(GetParam() * 7 + 1);
  for (int round = 0; round < 60; ++round) {
    double p = rng.NextDouble();
    if (p < 0.4) {
      network.CreateNode();
    } else if (p < 0.8) {
      std::vector<NodeId> nodes = network.live_nodes();
      if (nodes.size() > 40) {
        network.FailNode(nodes[rng.NextBelow(nodes.size())]);
      }
    } else {
      std::vector<NodeId> nodes = network.live_nodes();
      if (nodes.size() > 40) {
        network.FailNodeSilently(nodes[rng.NextBelow(nodes.size())]);
        network.DetectAndRepair();
      }
    }
  }
  EXPECT_EQ(network.CountLeafSetViolations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnPropertyTest, ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace past
