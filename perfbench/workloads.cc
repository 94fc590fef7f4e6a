#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "common/histogram.h"
#include "core/messages.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using contjoin::core::ContinuousQueryNetwork;
using contjoin::core::Notification;
using contjoin::sim::MsgClass;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Seeds of the independent input streams of one run.
uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  return Rng(seed * 0x100000001b3ull + stream).Next();
}

contjoin::core::Options EngineOptions(const Params& p) {
  contjoin::core::Options o;
  o.num_nodes = p.nodes;
  o.algorithm = p.algorithm;
  // The engine's own coin flips (SAI's index side) are configuration, not
  // input: with the query population's joins in a fixed order, every seed
  // indexes the same joins on the same sides, so the busiest node's load
  // moves only with the generated select lists, subscribers and tuples.
  o.seed = 42;
  o.chord.hop_latency = 1;
  o.window = p.window;
  o.use_jfrt = p.jfrt;
  o.track_evaluators = p.track_evaluators;
  o.count_wire_bytes = p.meter_bytes;
  if (p.serving) {
    o.reliability.enabled = true;
    o.serving.fanout_batching = true;
    o.serving.backpressure = true;
    o.serving.high_water = 16;
    o.serving.shed = false;
    o.serving.defer_delay = 2;
  }
  return o;
}

/// The measured phase's state and the calls it makes, each in a span.
class Driver {
 public:
  Driver(ContinuousQueryNetwork& net, Tracer& tracer, Execution& ex)
      : net_(net), tracer_(tracer), ex_(ex),
        is_subscriber_(net.num_nodes(), false) {}

  /// Counts `ops` operations attempted, failed unless `st` is OK.
  void Count(const contjoin::Status& st, uint64_t ops) {
    ex_.attempted += ops;
    if (!st.ok()) {
      ex_.failed += ops;
      if (first_failure_.empty()) first_failure_ = st.ToString();
    }
  }

  /// Submits `spec` from `node`; records the subscription on success.
  void Subscribe(size_t node, const QuerySpec& spec) {
    const uint64_t at = net_.now() + 1;
    contjoin::StatusOr<std::string> key = [&] {
      auto span = tracer_.Scope("SubmitQuery");
      return net_.SubmitQuery(node, spec.Sql());
    }();
    Count(key.status(), 1);
    if (!key.ok()) return;
    ex_.log.subs.push_back({*key, node, spec, at, kNever});
    active_.push_back(ex_.log.subs.size() - 1);
    if (!is_subscriber_[node]) {
      is_subscriber_[node] = true;
      subscribers_.push_back(node);
    }
  }

  /// Unsubscribes the oldest active subscription.
  void UnsubscribeOldest() {
    if (active_.empty()) return;
    Subscription& sub = ex_.log.subs[active_.front()];
    active_.pop_front();
    const uint64_t at = net_.now() + 1;
    contjoin::Status st;
    {
      auto span = tracer_.Scope("Unsubscribe");
      st = net_.Unsubscribe(sub.node, sub.key);
    }
    Count(st, 1);
    if (st.ok()) sub.removed = at;
  }

  void Publish(const Row& row) {
    const uint64_t at = net_.now() + 1;
    contjoin::Status st;
    {
      auto span = tracer_.Scope("InsertTuple");
      st = net_.InsertTuple(row.origin, row.Relation(), row.Values());
    }
    Count(st, 1);
    if (st.ok()) ex_.log.pubs.push_back({row, at});
  }

  void PublishWave(const std::vector<Row>& wave,
                   const std::vector<std::pair<size_t, std::string>>& origins,
                   std::vector<std::vector<contjoin::rel::Value>> values) {
    const uint64_t at = net_.now() + 1;
    contjoin::Status st;
    {
      auto span = tracer_.Scope("InsertTupleWave");
      st = net_.InsertTupleWave(origins, std::move(values));
    }
    Count(st, wave.size());
    if (!st.ok()) return;
    for (const Row& row : wave) ex_.log.pubs.push_back({row, at});
  }

  void Schedule(uint64_t when, const Row& row) {
    contjoin::Status st;
    {
      auto span = tracer_.Scope("SchedulePublish");
      st = net_.SchedulePublish(when, row.origin, row.Relation(),
                                row.Values());
    }
    Count(st, 1);
    if (st.ok()) ex_.log.pubs.push_back({row, when});
  }

  void Prune() {
    auto span = tracer_.Scope("PruneExpired");
    ex_.pruned_objects += net_.PruneExpired();
  }

  /// Moves every subscriber's inbox out of the engine.
  void Drain() {
    auto span = tracer_.Scope("TakeNotifications");
    for (size_t node : subscribers_) Take(node);
  }

  /// Drains every node, subscriber or not: a delivery that went anywhere
  /// else still reaches the check.
  void DrainAll() {
    for (size_t i = 0; i < net_.num_nodes(); ++i) Take(i);
  }

  /// Samples the serving queues at an open-loop segment boundary.
  void SampleQueues() {
    ex_.peak_pending_events =
        std::max<uint64_t>(ex_.peak_pending_events,
                           net_.simulator()->pending_events());
    uint64_t inflight = 0;
    for (size_t i = 0; i < net_.num_nodes(); ++i) {
      const contjoin::core::NodeState* st = net_.state(i);
      if (st != nullptr) inflight += st->subscriber.inflight;
    }
    ex_.peak_inflight_slots = std::max(ex_.peak_inflight_slots, inflight);
  }

  Inboxes TakeInboxes() { return std::move(inboxes_); }
  const std::string& first_failure() const { return first_failure_; }

 private:
  void Take(size_t node) {
    std::vector<Notification> got = net_.TakeNotifications(node);
    if (!got.empty()) inboxes_.emplace_back(node, std::move(got));
  }

  ContinuousQueryNetwork& net_;
  Tracer& tracer_;
  Execution& ex_;
  std::vector<bool> is_subscriber_;
  std::vector<size_t> subscribers_;
  std::deque<size_t> active_;  // Active subscriptions, oldest first.
  Inboxes inboxes_;
  std::string first_failure_;
};

}  // namespace

int DefaultWorkers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return std::clamp(cpus, 1, 4);
}

bool ParamsFor(const std::string& name, double seconds, Params* out) {
  Params p;
  p.name = name;
  // Each workload's measured phase is a fixed number of whole rounds, set
  // from `seconds` by the rate the phase runs at on a 4-core host, so that
  // every run with the same --seconds does the same operations and the
  // exact counts (hops, filter operations, latencies in ticks) repeat. Cost
  // per round grows with history in all three (no expiry of rewritten
  // queries), hence the rates are calibrated for a 20-second run, whose
  // measured phase takes about 16 s.
  if (name == "wave10k") {
    p.mode = Mode::kWave;
    p.nodes = 10000;
    p.algorithm = contjoin::core::Algorithm::kSai;
    p.schema.pairs = 8;
    p.domain = 50000;
    p.zipf_theta = 0.9;
    p.queries = 300;
    p.workers = DefaultWorkers();
    p.waves = static_cast<size_t>(std::max(1.0, std::round(seconds * 0.6)));
  } else if (name == "serve48") {
    p.mode = Mode::kOpenLoop;
    p.nodes = 48;
    p.algorithm = contjoin::core::Algorithm::kSai;
    p.schema.pairs = 1;
    p.domain = 400;
    p.zipf_theta = 0.9;
    p.queries = 16;
    p.fanout = 4;
    p.subscriber_pool = 4;
    p.window = 256;
    p.serving = true;
    p.meter_bytes = true;
    p.rate = 0.25;
    p.segment = 32;
    const uint64_t segments = static_cast<uint64_t>(
        std::max(1.0, std::round(seconds * 110.0)));
    p.ticks = segments * p.segment;
  } else if (name == "resub1k") {
    p.mode = Mode::kClosedLoop;
    p.nodes = 1024;
    p.algorithm = contjoin::core::Algorithm::kDaiT;
    p.schema.pairs = 4;
    p.zipf_theta = 0;
    // Each round unsubscribes the oldest query, so a query lives for
    // queries * pubs_per_round = 1024 publications, about 128 per relation,
    // and is rewritten to at most ~128 evaluators per side. Unsubscribe
    // reaches them in one multisend batch, and the overlay drops what that
    // batch has not delivered after max_route_hops (512) hops: queries
    // living twice as long already lose unsubscribe messages.
    p.queries = 32;
    p.domain = 8000;
    p.window = 16384;
    p.jfrt = true;
    p.track_evaluators = true;
    p.pubs_per_round = 32;
    p.prune_every = 8;
    p.rounds = static_cast<size_t>(std::max(1.0, std::round(seconds * 100)));
  } else {
    return false;
  }
  *out = std::move(p);
  return true;
}

Execution Execute(const Params& p, uint64_t seed, Tracer& tracer,
                  Clock::time_point start, bool keep_engine) {
  Execution ex;
  ex.log.window = p.window;

  // --- Set-up: engine, schemas, initial queries. ---------------------------
  std::unique_ptr<ContinuousQueryNetwork> net;
  {
    auto span = tracer.Scope("ContinuousQueryNetwork");
    net = std::make_unique<ContinuousQueryNetwork>(EngineOptions(p));
  }
  net->simulator()->SetWorkers(p.workers);
  const contjoin::Status schema_status =
      RegisterSchemas(p.schema, net->catalog());
  Driver d(*net, tracer, ex);

  QueryStream query_stream(p.schema);
  Rng placement_rng(StreamSeed(seed, 4));
  Rng arrival_rng(StreamSeed(seed, 3));
  const size_t pool =
      p.subscriber_pool == 0 ? p.nodes : std::min(p.subscriber_pool, p.nodes);
  {
    auto span = tracer.Scope("bench.setup_queries");
    for (size_t q = 0; q < p.queries; ++q) {
      const QuerySpec spec = query_stream.Next();
      for (size_t f = 0; f < p.fanout; ++f) {
        d.Subscribe(placement_rng.Below(pool), spec);
      }
    }
  }
  ex.setup_s = SecondsSince(start);

  // --- Inputs of the measured phase (not timed). ---------------------------
  const Zipf values(static_cast<uint64_t>(p.domain), p.zipf_theta);
  RowStream row_stream(p.schema, values, p.nodes, StreamSeed(seed, 2));
  std::vector<Row> rows;
  const uint64_t begin = net->now() + 1;  // First open-loop instant.
  std::vector<uint64_t> arrivals;
  std::vector<QuerySpec> fresh_queries;
  {
    auto span = tracer.Scope("bench.generate");
    size_t count = 0;
    if (p.mode == Mode::kWave) {
      count = p.waves * (p.nodes / 4);
    } else if (p.mode == Mode::kOpenLoop) {
      for (double t = arrival_rng.Exponential(p.rate);
           t < static_cast<double>(p.ticks);
           t += arrival_rng.Exponential(p.rate)) {
        arrivals.push_back(begin + static_cast<uint64_t>(t));
      }
      count = arrivals.size();
    } else {
      count = p.rounds * p.pubs_per_round;
      for (size_t r = 0; r < p.rounds; ++r) {
        fresh_queries.push_back(query_stream.Next());
      }
    }
    rows.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      rows.push_back(row_stream.Next());
    }
  }

  // Waves are handed over as the facade takes them; building them is input
  // preparation, not publication.
  struct Wave {
    std::vector<Row> rows;
    std::vector<std::pair<size_t, std::string>> origins;
    std::vector<std::vector<contjoin::rel::Value>> values;
  };
  std::vector<Wave> waves;
  if (p.mode == Mode::kWave) {
    auto span = tracer.Scope("bench.generate");
    const size_t width = p.nodes / 4;
    for (size_t w = 0; w < p.waves; ++w) {
      Wave wave;
      wave.rows.assign(rows.begin() + w * width,
                       rows.begin() + (w + 1) * width);
      for (const Row& row : wave.rows) {
        wave.origins.emplace_back(row.origin, row.Relation());
        wave.values.push_back(row.Values());
      }
      waves.push_back(std::move(wave));
    }
  }

  // --- Measured phase. ------------------------------------------------------
  std::vector<uint64_t> filter_before(net->num_nodes());
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    filter_before[i] = net->metrics(i).TotalFilterOps();
  }
  const contjoin::sim::NetStats stats_before = net->stats();
  const contjoin::core::NodeMetrics metrics_before = net->TotalMetrics();
  const uint64_t events_before = net->simulator()->total_events_run();
  const uint64_t batches_before = net->simulator()->parallel_batches_run();

  const Clock::time_point t0 = Clock::now();
  {
    auto span = tracer.Scope("bench.measure");
    switch (p.mode) {
      case Mode::kWave:
        for (Wave& wave : waves) {
          d.PublishWave(wave.rows, wave.origins, std::move(wave.values));
          d.Drain();
        }
        break;
      case Mode::kOpenLoop: {
        const uint64_t end = begin + p.ticks;
        size_t next = 0;
        for (uint64_t boundary = begin + p.segment; boundary <= end;
             boundary += p.segment) {
          while (next < arrivals.size() && arrivals[next] < boundary) {
            d.Schedule(arrivals[next], rows[next]);
            ++next;
          }
          {
            auto run = tracer.Scope("RunOpenLoopUntil");
            net->RunOpenLoopUntil(boundary);
          }
          d.SampleQueues();
          d.Drain();
        }
        {
          // Deferred deliveries and retries past the last arrival.
          auto run = tracer.Scope("RunOpenLoopUntil");
          net->simulator()->Run();
        }
        d.Drain();
        break;
      }
      case Mode::kClosedLoop:
        for (size_t r = 0; r < p.rounds; ++r) {
          for (size_t i = 0; i < p.pubs_per_round; ++i) {
            d.Publish(rows[r * p.pubs_per_round + i]);
          }
          d.UnsubscribeOldest();
          d.Subscribe(placement_rng.Below(pool), fresh_queries[r]);
          if ((r + 1) % p.prune_every == 0) d.Prune();
          d.Drain();
        }
        break;
    }
  }
  ex.measured_s = SecondsSince(t0);
  ex.publications = ex.log.pubs.size();
  ex.peak_rss_mb = PeakRssMb();

  // --- What the measured phase cost, read from the engine's counters. -----
  ex.traffic = net->stats().Since(stats_before);
  ex.events = net->simulator()->total_events_run() - events_before;
  ex.parallel_batches =
      net->simulator()->parallel_batches_run() - batches_before;
  std::vector<double> tf;
  for (size_t i = 0; i < net->num_nodes(); ++i) {
    if (!net->node(i)->alive()) continue;
    const uint64_t ops = net->metrics(i).TotalFilterOps() - filter_before[i];
    ex.filter_ops += ops;
    ex.max_node_filter_ops = std::max(ex.max_node_filter_ops, ops);
    tf.push_back(static_cast<double>(ops));
  }
  const contjoin::LoadDistribution tf_dist(std::move(tf));
  ex.tf_gini = tf_dist.Gini();
  ex.top1pct_filter_ops =
      tf_dist.TopKMean(std::max<size_t>(1, tf_dist.count() / 100));

  const contjoin::core::NodeMetrics metrics_after = net->TotalMetrics();
  ex.notifications_created =
      metrics_after.notifications_created -
      metrics_before.notifications_created;
  ex.acks_sent =
      metrics_after.reliable_acks_sent - metrics_before.reliable_acks_sent;
  ex.stored_objects = net->TotalStorage().Total();

  // --- Check. ---------------------------------------------------------------
  {
    auto span = tracer.Scope("bench.check");
    d.DrainAll();
    ex.inboxes = d.TakeInboxes();
    ex.deliveries = 0;
    for (const auto& [node, batch] : ex.inboxes) ex.deliveries += batch.size();
    std::vector<uint64_t> latencies;
    ex.check = Check(ex.log, ex.inboxes, &latencies, &ex.delivered);
    if (ex.traffic.dropped() != 0) {
      // No faults are injected, so a dropped message is a protocol fault.
      ex.check.ok = false;
      std::string by_class;
      for (int c = 0; c < static_cast<int>(MsgClass::kClassCount); ++c) {
        const uint64_t n = ex.traffic.dropped(static_cast<MsgClass>(c));
        if (n != 0) {
          by_class += std::string(" ") +
                      contjoin::sim::MsgClassName(static_cast<MsgClass>(c)) +
                      "=" + std::to_string(n);
        }
      }
      ex.check.errors.push_back(std::to_string(ex.traffic.dropped()) +
                                " messages dropped:" + by_class);
    }
    if (ex.notifications_created != ex.deliveries) {
      ex.check.ok = false;
      ex.check.errors.push_back(
          "engine created " + std::to_string(ex.notifications_created) +
          " notifications but inboxes received " +
          std::to_string(ex.deliveries));
    }
    if (!schema_status.ok()) {
      ex.check.ok = false;
      ex.check.errors.push_back("schema registration: " +
                                schema_status.ToString());
    }
    if (ex.failed != 0) {
      ex.check.errors.push_back("first failed call: " + d.first_failure());
    }
    ex.notify_p50 = Percentile(latencies, 50);
    ex.notify_p99 = Percentile(latencies, 99);
  }
  if (keep_engine) ex.net = std::move(net);
  return ex;
}

std::vector<DerivedKey> DerivedKeys(const OpLog& log) {
  std::vector<DerivedKey> out;
  out.reserve(log.pubs.size() * kAttrs * 2);
  for (const Publication& p : log.pubs) {
    const std::string relation = p.row.Relation();
    for (size_t a = 0; a < kAttrs; ++a) {
      const std::string attr = AttrName(p.row.is_r, a);
      out.push_back({p.row.origin, contjoin::core::AttrKey(relation, attr)});
      out.push_back(
          {p.row.origin,
           contjoin::core::ValueKeyOf(
               relation, attr,
               contjoin::rel::Value::Int(p.row.values[a]).ToKeyString())});
    }
  }
  return out;
}

}  // namespace perfbench
