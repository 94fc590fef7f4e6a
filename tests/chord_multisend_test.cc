// The extended API of paper §2.3: recursive multisend vs the iterative
// baseline — correctness (exact recipient sets) and relative cost.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "chord_test_util.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace contjoin::chord {
namespace {

class MultisendTest : public ::testing::Test {
 protected:
  void Build(size_t n) {
    network_ = std::make_unique<Network>(&sim_);
    nodes_ = network_->BuildIdealRing(n);
    app_ = std::make_unique<CaptureApp>();
    for (Node* node : nodes_) node->set_app(app_.get());
  }

  std::vector<AppMessage> MakeBatch(int k, int seed) {
    std::vector<AppMessage> batch;
    Rng rng(static_cast<uint64_t>(seed));
    for (int i = 0; i < k; ++i) {
      batch.push_back(
          MakeMsg(HashKey("t-" + std::to_string(seed) + "-" +
                          std::to_string(i)),
                  i));
    }
    return batch;
  }

  sim::Simulator sim_;
  std::unique_ptr<Network> network_;
  std::vector<Node*> nodes_;
  std::unique_ptr<CaptureApp> app_;
};

TEST_F(MultisendTest, RecursiveDeliversToExactRecipients) {
  Build(128);
  auto batch = MakeBatch(20, 1);
  std::map<std::string, Node*> expected;
  for (const auto& msg : batch) {
    expected[msg.target.ToHex()] = network_->OracleSuccessor(msg.target);
  }
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  ASSERT_EQ(app_->deliveries.size(), batch.size());
  for (const auto& d : app_->deliveries) {
    EXPECT_EQ(d.node, expected[d.target.ToHex()]);
  }
}

TEST_F(MultisendTest, RecursiveDeliversEveryTagExactlyOnce) {
  Build(64);
  auto batch = MakeBatch(40, 2);
  nodes_[5]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  std::multiset<int> tags;
  for (const auto& d : app_->deliveries) tags.insert(d.tag);
  EXPECT_EQ(tags.size(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(tags.count(i), 1u) << "tag " << i;
}

TEST_F(MultisendTest, IterativeDeliversToExactRecipients) {
  Build(128);
  auto batch = MakeBatch(20, 3);
  std::map<std::string, Node*> expected;
  for (const auto& msg : batch) {
    expected[msg.target.ToHex()] = network_->OracleSuccessor(msg.target);
  }
  nodes_[0]->MultisendIterative(batch);
  sim_.Run();
  ASSERT_EQ(app_->deliveries.size(), batch.size());
  for (const auto& d : app_->deliveries) {
    EXPECT_EQ(d.node, expected[d.target.ToHex()]);
  }
}

TEST_F(MultisendTest, RecursiveCheaperThanIterativeInPractice) {
  // The paper's claim for Figure "recursive vs iterative": same O(k log N)
  // bound, but the recursive design shares the clockwise path and wins.
  Build(512);
  const int kTrials = 20;
  uint64_t recursive_hops = 0, iterative_hops = 0;
  for (int t = 0; t < kTrials; ++t) {
    auto batch = MakeBatch(32, 100 + t);
    auto before = network_->stats().total_hops();
    nodes_[t % nodes_.size()]->Multisend(batch, sim::MsgClass::kTupleIndex);
    sim_.Run();
    recursive_hops += network_->stats().total_hops() - before;

    before = network_->stats().total_hops();
    nodes_[t % nodes_.size()]->MultisendIterative(MakeBatch(32, 100 + t));
    sim_.Run();
    iterative_hops += network_->stats().total_hops() - before;
  }
  EXPECT_LT(recursive_hops, iterative_hops);
}

TEST_F(MultisendTest, EmptyBatchIsNoOp) {
  Build(16);
  uint64_t before = network_->stats().total_hops();
  nodes_[0]->Multisend({}, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(network_->stats().total_hops(), before);
  EXPECT_TRUE(app_->deliveries.empty());
}

TEST_F(MultisendTest, DuplicateTargetsEachDelivered) {
  Build(32);
  NodeId target = HashKey("dup");
  std::vector<AppMessage> batch{MakeMsg(target, 1), MakeMsg(target, 2)};
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(app_->deliveries.size(), 2u);
}

TEST_F(MultisendTest, BatchToOwnRangeDeliversLocallyFree) {
  Build(32);
  Node* origin = nodes_[0];
  std::vector<AppMessage> batch{MakeMsg(origin->id(), 9)};
  uint64_t before = network_->stats().total_hops();
  origin->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(network_->stats().total_hops(), before);
  ASSERT_EQ(app_->deliveries.size(), 1u);
  EXPECT_EQ(app_->deliveries[0].node, origin);
}

TEST_F(MultisendTest, LargeBatchOnSmallRingTouchesAllNodes) {
  Build(8);
  auto batch = MakeBatch(200, 4);
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  EXPECT_EQ(app_->deliveries.size(), 200u);
  std::set<Node*> receivers;
  for (const auto& d : app_->deliveries) receivers.insert(d.node);
  EXPECT_EQ(receivers.size(), 8u);  // 200 random keys over 8 nodes.
}

TEST_F(MultisendTest, MultisendCostScalesWithBatchNotNaively) {
  // Batch of k messages should cost less than k separate sends.
  Build(256);
  auto batch = MakeBatch(64, 5);
  uint64_t before = network_->stats().total_hops();
  nodes_[0]->Multisend(batch, sim::MsgClass::kTupleIndex);
  sim_.Run();
  uint64_t batched = network_->stats().total_hops() - before;

  before = network_->stats().total_hops();
  for (auto& msg : MakeBatch(64, 5)) {
    nodes_[0]->Send(std::move(msg));
    sim_.Run();
  }
  uint64_t separate = network_->stats().total_hops() - before;
  EXPECT_LT(batched, separate);
}

TEST_F(MultisendTest, LongBatchWalkKeepsItsHopBudgetWhileDelivering) {
  // 700 targets, one per distinct node: the batch visits every one of
  // them, so its whole walk is longer than max_route_hops (512). The
  // budget bounds hops without progress, so nothing may be dropped.
  Build(1024);
  std::vector<AppMessage> batch;
  std::map<std::string, Node*> expected;
  for (int i = 0; i < 700; ++i) {
    Node* owner = nodes_[static_cast<size_t>(i) * 1024 / 700];
    batch.push_back(MakeMsg(owner->id(), i));
    expected[owner->id().ToHex()] = owner;
  }
  ASSERT_EQ(expected.size(), 700u);
  nodes_[0]->Multisend(std::move(batch), sim::MsgClass::kControl);
  sim_.Run();
  EXPECT_GT(network_->stats().total_hops(),
            static_cast<uint64_t>(network_->options().max_route_hops));
  EXPECT_EQ(network_->stats().dropped(), 0u);
  ASSERT_EQ(app_->deliveries.size(), 700u);
  std::set<int> tags;
  for (const auto& d : app_->deliveries) {
    EXPECT_EQ(d.node, expected[d.target.ToHex()]);
    tags.insert(d.tag);
  }
  EXPECT_EQ(tags.size(), 700u);
}

}  // namespace
}  // namespace contjoin::chord
