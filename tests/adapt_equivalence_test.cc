// Headline property of the adaptive load manager: with runtime hot-key
// detection, attribute-level auto-replication, value splitting, and
// cooldown all firing mid-workload, every distributed algorithm still
// delivers exactly the reference engine's notification content set — the
// adaptation moves state and traffic around, never answers. Also pinned
// here: the manager keeps working over a lossy transport with the
// reliability layer on, and runs bit-identically at any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "query/parser.h"
#include "reference/reference_engine.h"

namespace contjoin::core {
namespace {

using rel::Value;

constexpr size_t kNumNodes = 24;
constexpr size_t kHotOps = 64;
constexpr size_t kSparseOps = 80;

// gtest names each case after a byte dump of its parameter, so the
// struct carries explicit zero fill instead of padding: indeterminate
// padding bytes would give a case a different name on every listing.
struct AdaptScenario {
  AdaptScenario(Algorithm algorithm, double drop_prob)
      : algorithm(algorithm), drop_prob(drop_prob) {}

  Algorithm algorithm;
  uint8_t fill[7] = {};
  double drop_prob;

  std::string Name() const {
    std::string out = AlgorithmName(algorithm);
    out += "_p" + std::to_string(static_cast<int>(drop_prob * 100));
    for (char& c : out) {
      if (c == '-') c = '_';
    }
    return out;
  }
};
static_assert(sizeof(AdaptScenario) == 16,
              "AdaptScenario must have no padding");

/// Aggressive control-loop knobs so a ~150-operation workload exercises
/// escalation, re-escalation, and cooldown; production defaults react far
/// more slowly. `epoch_len` is filled in by Calibrate().
void AggressiveAdapt(Options* opts) {
  opts->adapt.enabled = true;
  opts->adapt.hot_threshold = 6;
  opts->adapt.cool_threshold = 3;
  opts->adapt.dwell_epochs = 1;
  opts->adapt.max_split = 4;
  opts->adapt.max_replicas = 3;
}

const std::vector<std::string> kQueries = {
    "SELECT R.B, S.E FROM R, S WHERE R.A = S.D",
    "SELECT R.C, S.F FROM R, S WHERE R.A = S.D AND R.B = 1",
    "SELECT R.A, S.E FROM R, S WHERE R.A = S.D AND S.E = 2",
    "SELECT R.B, S.F FROM R, S WHERE R.B = S.E",
    "SELECT R.C, S.E FROM R, S WHERE R.A = S.D AND S.F = 3",
    "SELECT S.D, R.B FROM R, S WHERE R.A = S.D",
};

struct RunResult {
  std::set<std::string> actual;
  std::set<std::string> expected;
  uint64_t total_hops = 0;
  uint64_t adapt_directives = 0;
  uint64_t adapt_redirects = 0;
  uint64_t adapt_reshipped = 0;
  NodeMetrics totals;
};

void RegisterSchemas(ContinuousQueryNetwork* net);

/// Virtual time per operation depends on retry-timer horizons (the same
/// issue the fault test's churn schedule works around), so the epoch
/// length is pinned to a measured per-insert duration: one epoch spans
/// roughly eight operations of this workload.
void Calibrate(Options* opts) {
  Options probe = *opts;
  ContinuousQueryNetwork net(probe);
  RegisterSchemas(&net);
  CJ_CHECK(net.SubmitQuery(0, kQueries[0]).ok());
  rel::Timestamp before = net.now();
  CJ_CHECK(
      net.InsertTuple(1, "R", {Value::Int(7), Value::Int(0), Value::Int(0)})
          .ok());
  sim::SimTime dt = std::max<rel::Timestamp>(1, net.now() - before);
  sim::SimTime epoch = 8 * dt;
  bool lossy = false;
  for (size_t c = 0; c < static_cast<size_t>(sim::MsgClass::kClassCount);
       ++c) {
    lossy |= opts->faults.per_class[c].active();
  }
  if (lossy) {
    // A dropped critical message stalls its operation by the first-retry
    // horizon, a gap the single-insert probe (which rarely samples a drop)
    // never sees. Epochs must straddle such gaps, or the decay between two
    // hot-key arrivals on either side of one wipes the accumulated rate.
    const sim::SimTime horizon =
        opts->reliability.base_timeout *
        std::max<uint64_t>(1, opts->chord.hop_latency);
    epoch = std::max(epoch, 2 * horizon);
  }
  opts->adapt.epoch_len = epoch;
}

void RegisterSchemas(ContinuousQueryNetwork* net) {
  CJ_CHECK(net->catalog()
               ->Register(rel::RelationSchema(
                   "R", {{"A", rel::ValueType::kInt},
                         {"B", rel::ValueType::kInt},
                         {"C", rel::ValueType::kInt}}))
               .ok());
  CJ_CHECK(net->catalog()
               ->Register(rel::RelationSchema(
                   "S", {{"D", rel::ValueType::kInt},
                         {"E", rel::ValueType::kInt},
                         {"F", rel::ValueType::kInt}}))
               .ok());
}

/// Two-phase deterministic workload: a dense phase hammering join value 7
/// (both relations, most operations) to heat the "R+A"/"S+D" attribute
/// keys and the value-7 families, then a sparse tail where value 7 only
/// trickles in — its decayed rate collapses, so the trickle's decider
/// arrivals walk the directives back down (cooldown).
RunResult RunAdaptWorkload(Options opts, int workers) {
  ContinuousQueryNetwork net(std::move(opts));
  RegisterSchemas(&net);
  net.simulator()->SetWorkers(workers);

  ref::ReferenceEngine oracle;
  uint64_t ref_seq = 0;

  for (size_t i = 0; i < kQueries.size(); ++i) {
    const std::string& sql = kQueries[i];
    auto key = net.SubmitQuery((i * 5 + 2) % kNumNodes, sql);
    CJ_CHECK(key.ok()) << sql << ": " << key.status().ToString();
    auto parsed = query::ParseQuery(sql, *net.catalog());
    CJ_CHECK(parsed.ok());
    parsed.value().set_key(key.value());
    parsed.value().set_insertion_time(net.now());
    oracle.AddQuery(std::make_shared<const query::ContinuousQuery>(
        std::move(parsed).value()));
  }

  auto insert = [&](const std::string& relation,
                    std::vector<rel::Value> values, size_t origin) {
    std::vector<rel::Value> copy = values;
    CJ_CHECK(net.InsertTuple(origin % kNumNodes, relation, std::move(values))
                 .ok());
    oracle.InsertTuple(std::make_shared<const rel::Tuple>(
        relation, std::move(copy), net.now(), ref_seq++));
  };

  for (size_t i = 0; i < kHotOps; ++i) {
    const bool hot = i % 4 != 3;
    const int join_val = hot ? 7 : static_cast<int>(i % 5);
    const int v2 = static_cast<int>(i % 3);
    const int v3 = static_cast<int>(i % 7);
    if (i % 2 == 0) {
      insert("R", {Value::Int(join_val), Value::Int(v2), Value::Int(v3)},
             i * 7 + 3);
    } else {
      insert("S", {Value::Int(join_val), Value::Int(v2), Value::Int(v3)},
             i * 7 + 3);
    }
  }
  for (size_t i = kHotOps; i < kHotOps + kSparseOps; ++i) {
    const bool hot = i % 16 == 0;
    const int join_val = hot ? 7 : static_cast<int>(i % 6) + 10;
    const int v2 = static_cast<int>(i % 3);
    const int v3 = static_cast<int>(i % 7);
    if (i % 2 == 0) {
      insert("R", {Value::Int(join_val), Value::Int(v2), Value::Int(v3)},
             i * 7 + 3);
    } else {
      insert("S", {Value::Int(join_val), Value::Int(v2), Value::Int(v3)},
             i * 7 + 3);
    }
  }

  RunResult out;
  std::vector<Notification> delivered;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    for (Notification& n : net.TakeNotifications(i)) {
      delivered.push_back(std::move(n));
    }
  }
  out.actual = ref::ReferenceEngine::ContentSet(delivered);
  out.expected = oracle.ContentSet();
  out.total_hops = net.stats().total_hops();
  out.adapt_directives = net.stats().adapt_directives();
  out.adapt_redirects = net.stats().adapt_redirects();
  out.adapt_reshipped = net.stats().adapt_reshipped();
  out.totals = net.TotalMetrics();
  return out;
}

Options ScenarioOptions(const AdaptScenario& sc) {
  Options opts;
  opts.num_nodes = kNumNodes;
  opts.algorithm = sc.algorithm;
  opts.seed = 11;
  opts.reliability.enabled = true;
  AggressiveAdapt(&opts);
  if (sc.drop_prob > 0) {
    faults::FaultOptions fopts;
    fopts.seed = 29;
    faults::FaultProfile p;
    p.drop_prob = sc.drop_prob;
    p.duplicate_prob = sc.drop_prob / 2;
    p.delay_prob = sc.drop_prob / 2;
    p.max_extra_delay = 3;
    const std::vector<sim::MsgClass> classes = {
        sim::MsgClass::kQueryIndex, sim::MsgClass::kTupleIndex,
        sim::MsgClass::kRewrittenQuery, sim::MsgClass::kNotification};
    fopts.SetProfiles(classes, p);
    opts.faults = fopts;
  }
  Calibrate(&opts);
  return opts;
}

class AdaptEquivalenceTest : public ::testing::TestWithParam<AdaptScenario> {};

TEST_P(AdaptEquivalenceTest, AdaptationIsContentLossless) {
  const AdaptScenario& sc = GetParam();
  RunResult r = RunAdaptWorkload(ScenarioOptions(sc), /*workers=*/1);

  std::vector<std::string> missing, extra;
  std::set_difference(r.expected.begin(), r.expected.end(), r.actual.begin(),
                      r.actual.end(), std::back_inserter(missing));
  std::set_difference(r.actual.begin(), r.actual.end(), r.expected.begin(),
                      r.expected.end(), std::back_inserter(extra));
  EXPECT_TRUE(missing.empty())
      << missing.size() << " notifications missing, first: " << missing[0];
  EXPECT_TRUE(extra.empty())
      << extra.size() << " spurious notifications, first: " << extra[0];
  EXPECT_FALSE(r.expected.empty()) << "vacuous scenario: no joins fired";

  // The manager must actually have acted, or this test proves nothing.
  EXPECT_GT(r.adapt_directives, 0u) << "no directive ever fired";
  EXPECT_GT(r.totals.adapt_directives, 0u);
  if (sc.drop_prob > 0) {
    EXPECT_GT(r.totals.reliable_retries, 0u)
        << "lossy transport but no retries fired";
  }
}

std::vector<AdaptScenario> AllAdaptScenarios() {
  std::vector<AdaptScenario> out;
  for (Algorithm alg : {Algorithm::kSai, Algorithm::kDaiQ, Algorithm::kDaiT,
                        Algorithm::kDaiV}) {
    for (double p : {0.0, 0.05}) {
      out.push_back(AdaptScenario{alg, p});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AdaptEquivalenceTest,
                         ::testing::ValuesIn(AllAdaptScenarios()),
                         [](const auto& info) { return info.param.Name(); });

// The full loop on one strategy: the hot value's family must have been
// escalated AND walked back (>= 2 directive versions, final level 1 at
// some directory copy), proving split and cooldown both fired rather
// than the workload merely brushing the threshold once.
TEST(AdaptCooldown, HotFamilySplitsThenCools) {
  AdaptScenario sc{Algorithm::kSai, 0.0};
  Options opts = ScenarioOptions(sc);
  ContinuousQueryNetwork net(opts);
  RegisterSchemas(&net);

  for (size_t i = 0; i < kQueries.size(); ++i) {
    CJ_CHECK(net.SubmitQuery((i * 5 + 2) % kNumNodes, kQueries[i]).ok());
  }
  auto insert = [&](const std::string& relation, int join_val, size_t i) {
    CJ_CHECK(net.InsertTuple((i * 7 + 3) % kNumNodes, relation,
                             {Value::Int(join_val),
                              Value::Int(static_cast<int>(i % 3)),
                              Value::Int(static_cast<int>(i % 7))})
                 .ok());
  };
  for (size_t i = 0; i < kHotOps; ++i) {
    insert(i % 2 == 0 ? "R" : "S", i % 4 != 3 ? 7 : static_cast<int>(i % 5),
           i);
  }
  const std::string level1 = AttrKey("R", "A");
  const std::string hot_value = Value::Int(7).ToKeyString();
  const ::contjoin::adapt::Directive* after_hot = nullptr;
  for (size_t i = 0; i < net.num_nodes() && after_hot == nullptr; ++i) {
    after_hot = net.state(i)->adapt.directory.FindSplit(level1, hot_value);
  }
  ASSERT_NE(after_hot, nullptr) << "hot phase never split the hot family";
  EXPECT_GT(after_hot->level, 1);

  for (size_t i = kHotOps; i < kHotOps + 2 * kSparseOps; ++i) {
    insert(i % 2 == 0 ? "R" : "S",
           i % 16 == 0 ? 7 : static_cast<int>(i % 6) + 10, i);
  }
  const ::contjoin::adapt::Directive* cooled = nullptr;
  for (size_t i = 0; i < net.num_nodes(); ++i) {
    const ::contjoin::adapt::Directive* d =
        net.state(i)->adapt.directory.FindSplit(level1, hot_value);
    if (d != nullptr && (cooled == nullptr || d->version > cooled->version)) {
      cooled = d;
    }
  }
  ASSERT_NE(cooled, nullptr);
  EXPECT_GE(cooled->version, 2u) << "directive never changed after the split";
  EXPECT_EQ(cooled->level, 1) << "sparse tail did not cool the family";
}

// Same configuration at different worker counts is bit-identical: content,
// hop totals, and every adaptation counter. The manager's decisions are
// functions of (virtual time, arrival order) only.
TEST(AdaptDeterminism, WorkerCountDoesNotChangeAnything) {
  AdaptScenario sc{Algorithm::kDaiT, 0.05};
  RunResult a = RunAdaptWorkload(ScenarioOptions(sc), /*workers=*/1);
  RunResult b = RunAdaptWorkload(ScenarioOptions(sc), /*workers=*/8);
  EXPECT_EQ(a.actual, b.actual);
  EXPECT_EQ(a.total_hops, b.total_hops);
  EXPECT_EQ(a.adapt_directives, b.adapt_directives);
  EXPECT_EQ(a.adapt_redirects, b.adapt_redirects);
  EXPECT_EQ(a.adapt_reshipped, b.adapt_reshipped);
  EXPECT_EQ(a.totals.reliable_retries, b.totals.reliable_retries);
}

}  // namespace
}  // namespace contjoin::core
