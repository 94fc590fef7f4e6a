#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/net_stats.h"

namespace contjoin::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), 0u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(sim.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30u);
}

TEST(SimulatorTest, SameTimestampIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, CascadesAtZeroLatencyDrainBeforeLaterEvents) {
  Simulator sim;
  std::vector<std::string> order;
  sim.Schedule(1, [&] {
    order.push_back("a");
    sim.Schedule(0, [&] {
      order.push_back("a.child");
      sim.Schedule(0, [&] { order.push_back("a.grandchild"); });
    });
  });
  sim.Schedule(2, [&] { order.push_back("b"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "a.child", "a.grandchild",
                                             "b"}));
}

TEST(SimulatorTest, RunUntilStopsAtBoundaryInclusive) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(5, [&] { ++ran; });
  sim.Schedule(10, [&] { ++ran; });
  sim.Schedule(11, [&] { ++ran; });
  EXPECT_EQ(sim.RunUntil(10), 2u);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(ran, 3);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(100);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimulatorTest, AdvanceTo) {
  Simulator sim;
  sim.AdvanceTo(42);
  EXPECT_EQ(sim.Now(), 42u);
}

TEST(SimulatorTest, ScheduledDuringRunExecutes) {
  Simulator sim;
  int count = 0;
  sim.Schedule(1, [&] {
    ++count;
    sim.Schedule(5, [&] { ++count; });
  });
  sim.Run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), 6u);
  EXPECT_EQ(sim.total_events_run(), 2u);
}

TEST(SimulatorTest, RunUntilRunsEventExactlyAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.Schedule(10, [&] { ++ran; });
  EXPECT_EQ(sim.RunUntil(10), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(SimulatorTest, RunUntilRunsMidEpochChildrenUpToBoundary) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(5, [&] {
    order.push_back(1);
    // Same-epoch child, a child landing exactly on the boundary, and one
    // past it: the first two must run, the last must stay queued.
    sim.Schedule(0, [&] { order.push_back(2); });
    sim.Schedule(5, [&] { order.push_back(3); });
    sim.Schedule(6, [&] { order.push_back(4); });
  });
  EXPECT_EQ(sim.RunUntil(10), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 10u);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// --- Parallel execution ------------------------------------------------------

namespace cascade {

/// A deterministic multi-shard cascade: every event appends its value to a
/// per-shard log, then fans out to other shards. Per-shard logs plus the
/// final clock form a complete execution digest: by the determinism
/// contract they must be bit-identical at every worker count.
struct Result {
  std::vector<std::vector<uint64_t>> logs;
  uint64_t events = 0;
  uint64_t parallel_batches = 0;
  SimTime end = 0;
};

Result Run(int workers) {
  constexpr uint64_t kShards = 8;
  Simulator sim;
  sim.SetWorkers(workers);
  Result r;
  r.logs.resize(kShards);
  std::function<void(uint64_t, uint64_t, int)> step = [&](uint64_t shard,
                                                          uint64_t value,
                                                          int depth) {
    // Only the worker owning `shard` appends here; cross-shard effects go
    // through ScheduleSharded, as the engine's Transmit does.
    r.logs[shard].push_back(value);
    if (depth == 0) return;
    uint64_t next_shard = (shard + value) % kShards;
    uint64_t next_value = value * 31 + shard;
    sim.ScheduleSharded(1, next_shard, [&step, next_shard, next_value,
                                        depth] {
      step(next_shard, next_value, depth - 1);
    });
    if (value % 3 == 0) {
      // A same-timestamp child exercises the micro-epoch path.
      uint64_t sib = (shard + 1) % kShards;
      sim.ScheduleSharded(0, sib,
                          [&step, sib, value] { step(sib, value + 7, 0); });
    }
  };
  for (uint64_t s = 0; s < kShards; ++s) {
    sim.ScheduleSharded(1, s, [&step, s] { step(s, s + 1, 6); });
  }
  r.events = sim.Run();
  r.parallel_batches = sim.parallel_batches_run();
  r.end = sim.Now();
  return r;
}

}  // namespace cascade

TEST(SimulatorTest, ParallelCascadeIsBitIdenticalToSerial) {
  cascade::Result serial = cascade::Run(1);
  cascade::Result parallel = cascade::Run(4);
  EXPECT_EQ(serial.parallel_batches, 0u);
  EXPECT_GT(parallel.parallel_batches, 0u);
  EXPECT_EQ(serial.events, parallel.events);
  EXPECT_EQ(serial.end, parallel.end);
  ASSERT_EQ(serial.logs.size(), parallel.logs.size());
  for (size_t s = 0; s < serial.logs.size(); ++s) {
    EXPECT_EQ(serial.logs[s], parallel.logs[s]) << "shard " << s;
  }
}

TEST(SimulatorTest, UnshardedEventsForceSerialExecution) {
  Simulator sim;
  sim.SetWorkers(4);
  int ran = 0;
  // Plain Schedule carries no shard, so the batch must not be handed to
  // the pool even though it is wide enough.
  for (int i = 0; i < 16; ++i) sim.Schedule(1, [&] { ++ran; });
  sim.Run();
  EXPECT_EQ(ran, 16);
  EXPECT_EQ(sim.parallel_batches_run(), 0u);
}

TEST(SimulatorTest, SetWorkersClampsToAtLeastOne) {
  Simulator sim;
  sim.SetWorkers(0);
  EXPECT_EQ(sim.workers(), 1);
  sim.SetWorkers(3);
  EXPECT_EQ(sim.workers(), 3);
}

// --- Queue order property ----------------------------------------------------

namespace order {

// Random schedules — zero and positive delays, sharded and unsharded
// events, cancellable events cancelled before or inside their own epoch,
// children scheduled from handlers, RunUntil cut points and arrivals
// between segments — run on the simulator and on a reference model: a
// plain set ordered by (when, seq) with seq assigned at push time, epochs
// formed as the whole minimum-timestamp cohort before any of it runs.

constexpr uint64_t kShards = 6;
constexpr int kMaxDepth = 5;
// Executed events are logged per lane: one lane per shard, plus one for
// unsharded events (which never share an epoch with a parallel group).
constexpr size_t kLanes = kShards + 1;

size_t Lane(uint64_t shard) {
  return shard == kNoShard ? kShards : static_cast<size_t>(shard);
}

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t RandomShard(Rng& rng) {
  return rng.NextBelow(5) == 0 ? kNoShard : rng.NextBelow(kShards);
}

struct ChildPlan {
  uint64_t id;
  SimTime delay;
  uint64_t shard;
  bool cancellable;
  bool cancel_now;  // The parent cancels it right after scheduling.
  int cancelled_by;  // Sibling whose handler cancels it, or -1.
};

/// What the handler of event `id` schedules: a pure function of the id, so
/// the simulator run and the model run the same script.
std::vector<ChildPlan> Plan(uint64_t id, int depth) {
  std::vector<ChildPlan> plan;
  if (depth >= kMaxDepth) return plan;
  Rng rng(id);
  static constexpr SimTime kDelays[] = {0, 0, 1, 1, 2, 3, 7};
  const size_t n = rng.NextBelow(4);
  for (size_t i = 0; i < n; ++i) {
    ChildPlan c;
    c.id = Mix(id * 8 + i + 1);
    c.delay = kDelays[rng.NextBelow(7)];
    c.shard = RandomShard(rng);
    c.cancellable = rng.NextBelow(3) == 0;
    const uint64_t mode = c.cancellable ? rng.NextBelow(3) : 0;
    c.cancel_now = mode == 1;
    c.cancelled_by = -1;
    if (mode == 2 && n > 1) {
      c.cancelled_by = static_cast<int>((i + 1 + rng.NextBelow(n - 1)) % n);
    }
    plan.push_back(c);
  }
  return plan;
}

struct Root {
  uint64_t id;
  SimTime delay;
  uint64_t shard;
};

/// One step of a schedule: add `roots` from outside, then RunUntil(cut), or
/// Run() when `run_to_end` is set.
struct Segment {
  std::vector<Root> roots;
  bool run_to_end = false;
  SimTime cut = 0;
};

std::vector<Segment> MakeSchedule(uint64_t seed) {
  Rng rng(seed);
  std::vector<Segment> segments;
  SimTime cut = 0;
  uint64_t next_root = 1;
  for (int k = 0; k < 6; ++k) {
    Segment seg;
    for (size_t r = 0, n = 4 + rng.NextBelow(12); r < n; ++r) {
      seg.roots.push_back(
          Root{Mix(seed * 1000 + next_root++), rng.NextBelow(6),
               RandomShard(rng)});
    }
    cut += rng.NextBelow(8);  // Repeated cut points are allowed.
    seg.cut = cut;
    segments.push_back(std::move(seg));
  }
  segments.back().run_to_end = true;
  return segments;
}

using Log = std::vector<std::pair<uint64_t, SimTime>>;  // (id, run time).

struct Outcome {
  std::vector<Log> lanes = std::vector<Log>(kLanes);
  Log global;  // Execution order across lanes (model, and 1 worker).
  std::vector<size_t> ran_per_segment;
  std::vector<size_t> pending_per_segment;
  std::vector<SimTime> clock_per_segment;
  uint64_t parallel_batches = 0;
};

// --- The simulator side ---

struct SimRun {
  Simulator sim;
  Outcome out;
  bool log_global = false;

  void Spawn(uint64_t id, int depth, SimTime delay, uint64_t shard,
             CancelToken token, std::vector<CancelToken> to_cancel) {
    Simulator::Action action = [this, id, depth, shard,
                                to_cancel = std::move(to_cancel)] {
      // Only this lane's events touch this log (a shard's events never run
      // concurrently; unsharded ones force a serial epoch).
      out.lanes[Lane(shard)].emplace_back(id, sim.Now());
      if (log_global) out.global.emplace_back(id, sim.Now());
      for (const CancelToken& t : to_cancel) t->store(true);
      Handle(id, depth);
    };
    if (token != nullptr) {
      sim.ScheduleCancellable(delay, shard, std::move(token),
                              std::move(action));
    } else if (shard == kNoShard) {
      sim.Schedule(delay, std::move(action));
    } else {
      sim.ScheduleSharded(delay, shard, std::move(action));
    }
  }

  void Handle(uint64_t id, int depth) {
    std::vector<ChildPlan> plan = Plan(id, depth);
    std::vector<CancelToken> tokens(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].cancellable) tokens[i] = MakeCancelToken();
    }
    for (size_t i = 0; i < plan.size(); ++i) {
      std::vector<CancelToken> to_cancel;
      for (size_t k = 0; k < plan.size(); ++k) {
        if (plan[k].cancelled_by == static_cast<int>(i)) {
          to_cancel.push_back(tokens[k]);
        }
      }
      Spawn(plan[i].id, depth + 1, plan[i].delay, plan[i].shard, tokens[i],
            std::move(to_cancel));
      if (plan[i].cancel_now) tokens[i]->store(true);
    }
  }
};

Outcome RunSimulator(const std::vector<Segment>& schedule, int workers) {
  SimRun run;
  run.sim.SetWorkers(workers);
  run.log_global = workers == 1;
  for (const Segment& seg : schedule) {
    for (const Root& r : seg.roots) {
      run.Spawn(r.id, 0, r.delay, r.shard, nullptr, {});
    }
    run.out.ran_per_segment.push_back(
        seg.run_to_end ? run.sim.Run() : run.sim.RunUntil(seg.cut));
    run.out.pending_per_segment.push_back(run.sim.pending_events());
    run.out.clock_per_segment.push_back(run.sim.Now());
  }
  run.out.parallel_batches = run.sim.parallel_batches_run();
  return std::move(run.out);
}

// --- The reference model ---

class Model {
 public:
  Outcome Run(const std::vector<Segment>& schedule) {
    for (const Segment& seg : schedule) {
      for (const Root& r : seg.roots) {
        Push(now_ + r.delay, Event{r.id, 0, r.shard, -1, {}});
      }
      out_.ran_per_segment.push_back(
          Drain(seg.run_to_end ? ~SimTime{0} : seg.cut));
      if (!seg.run_to_end && now_ < seg.cut) now_ = seg.cut;
      out_.pending_per_segment.push_back(queue_.size());
      out_.clock_per_segment.push_back(now_);
    }
    return std::move(out_);
  }

 private:
  struct Event {
    uint64_t id;
    int depth;
    uint64_t shard;
    int token;  // Index into cancelled_, or -1.
    std::vector<int> to_cancel;
  };

  void Push(SimTime when, Event e) {
    queue_.emplace(std::make_pair(when, next_seq_++), std::move(e));
  }

  bool Cancelled(const Event& e) const {
    return e.token >= 0 && cancelled_[static_cast<size_t>(e.token)];
  }

  size_t Drain(SimTime until) {
    size_t ran = 0;
    for (;;) {
      while (!queue_.empty() && Cancelled(queue_.begin()->second)) {
        queue_.erase(queue_.begin());
      }
      if (queue_.empty() || queue_.begin()->first.first > until) break;
      now_ = queue_.begin()->first.first;
      std::vector<Event> batch;
      while (!queue_.empty() && queue_.begin()->first.first == now_) {
        if (!Cancelled(queue_.begin()->second)) {
          batch.push_back(std::move(queue_.begin()->second));
        }
        queue_.erase(queue_.begin());
      }
      for (const Event& e : batch) Execute(e);
      ran += batch.size();
    }
    return ran;
  }

  void Execute(const Event& e) {
    out_.lanes[Lane(e.shard)].emplace_back(e.id, now_);
    out_.global.emplace_back(e.id, now_);
    for (int t : e.to_cancel) cancelled_[static_cast<size_t>(t)] = true;
    std::vector<ChildPlan> plan = Plan(e.id, e.depth);
    // Children are pushed in plan order; a sibling's cancel list refers to
    // tokens of siblings pushed before or after it, so tokens are made
    // first, exactly like the handler does.
    std::vector<int> tokens(plan.size(), -1);
    for (size_t i = 0; i < plan.size(); ++i) {
      if (plan[i].cancellable) {
        tokens[i] = static_cast<int>(cancelled_.size());
        cancelled_.push_back(false);
      }
    }
    for (size_t i = 0; i < plan.size(); ++i) {
      std::vector<int> to_cancel;
      for (size_t k = 0; k < plan.size(); ++k) {
        if (plan[k].cancelled_by == static_cast<int>(i)) {
          to_cancel.push_back(tokens[k]);
        }
      }
      Push(now_ + plan[i].delay, Event{plan[i].id, e.depth + 1,
                                       plan[i].shard, tokens[i],
                                       std::move(to_cancel)});
      if (plan[i].cancel_now) {
        cancelled_[static_cast<size_t>(tokens[i])] = true;
      }
    }
  }

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  std::map<std::pair<SimTime, uint64_t>, Event> queue_;
  std::vector<bool> cancelled_;
  Outcome out_;
};

}  // namespace order

TEST(SimulatorTest, QueueOrderMatchesWhenSeqModel) {
  uint64_t parallel_batches = 0;
  size_t events = 0;
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::vector<order::Segment> schedule = order::MakeSchedule(seed);
    order::Outcome expected = order::Model().Run(schedule);
    events += expected.global.size();

    // One worker: the global execution order is the model's, event for
    // event, with the clock each event saw.
    order::Outcome serial = order::RunSimulator(schedule, 1);
    EXPECT_EQ(serial.global, expected.global);
    EXPECT_EQ(serial.ran_per_segment, expected.ran_per_segment);
    EXPECT_EQ(serial.pending_per_segment, expected.pending_per_segment);
    EXPECT_EQ(serial.clock_per_segment, expected.clock_per_segment);

    // Four workers: shards of one epoch interleave freely, so the order is
    // checked per lane — the part the determinism contract fixes.
    order::Outcome parallel = order::RunSimulator(schedule, 4);
    parallel_batches += parallel.parallel_batches;
    for (size_t lane = 0; lane < order::kLanes; ++lane) {
      EXPECT_EQ(parallel.lanes[lane], expected.lanes[lane]) << "lane " << lane;
    }
    EXPECT_EQ(parallel.ran_per_segment, expected.ran_per_segment);
    EXPECT_EQ(parallel.pending_per_segment, expected.pending_per_segment);
    EXPECT_EQ(parallel.clock_per_segment, expected.clock_per_segment);
  }
  // The schedules must be big enough to mean something, and wide enough
  // for the pool to take some epochs.
  EXPECT_GT(events, 2000u);
  EXPECT_GT(parallel_batches, 0u);
}

TEST(NetStatsTest, HopAccounting) {
  NetStats stats;
  stats.AddHop(MsgClass::kLookup);
  stats.AddHops(MsgClass::kTupleIndex, 5);
  EXPECT_EQ(stats.total_hops(), 6u);
  EXPECT_EQ(stats.hops(MsgClass::kLookup), 1u);
  EXPECT_EQ(stats.hops(MsgClass::kTupleIndex), 5u);
  EXPECT_EQ(stats.hops(MsgClass::kNotification), 0u);
}

TEST(NetStatsTest, SinceComputesDelta) {
  NetStats stats;
  stats.AddHops(MsgClass::kRewrittenQuery, 3);
  NetStats snapshot = stats;
  stats.AddHops(MsgClass::kRewrittenQuery, 4);
  stats.AddHop(MsgClass::kNotification);
  NetStats delta = stats.Since(snapshot);
  EXPECT_EQ(delta.hops(MsgClass::kRewrittenQuery), 4u);
  EXPECT_EQ(delta.hops(MsgClass::kNotification), 1u);
  EXPECT_EQ(delta.total_hops(), 5u);
}

TEST(NetStatsTest, ResetClears) {
  NetStats stats;
  stats.AddHop(MsgClass::kControl);
  stats.AddDrop(MsgClass::kControl);
  stats.Reset();
  EXPECT_EQ(stats.total_hops(), 0u);
  EXPECT_EQ(stats.dropped(), 0u);
  EXPECT_EQ(stats.dropped(MsgClass::kControl), 0u);
}

TEST(NetStatsTest, ReportListsNonZeroClasses) {
  NetStats stats;
  stats.AddHop(MsgClass::kNotification);
  std::string report = stats.Report();
  EXPECT_NE(report.find("notification"), std::string::npos);
  EXPECT_EQ(report.find("maintenance"), std::string::npos);
}

}  // namespace
}  // namespace contjoin::sim
