// The benchmark's workloads: how each builds its engine and inputs, drives
// its measured phase through the facade, and what it measures.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "checker.h"
#include "core/engine.h"
#include "inputs.h"
#include "sim/net_stats.h"
#include "trace.h"

namespace perfbench {

enum class Mode {
  kWave,        // InsertTupleWave, waves of N/4 tuples sharing one instant.
  kOpenLoop,    // SchedulePublish on a Poisson schedule, RunOpenLoopUntil.
  kClosedLoop,  // InsertTuple one at a time, with subscription churn.
};

struct Params {
  std::string name;
  Mode mode = Mode::kWave;
  size_t nodes = 64;
  contjoin::core::Algorithm algorithm = contjoin::core::Algorithm::kSai;
  Schema schema;
  int64_t domain = 1000;
  double zipf_theta = 0;  // 0 = uniform.
  size_t queries = 16;
  size_t fanout = 1;           // Subscriptions per query.
  size_t subscriber_pool = 0;  // Nodes subscriptions come from; 0 = all.
  uint64_t window = 0;
  int workers = 1;
  bool jfrt = false;
  bool track_evaluators = false;
  bool serving = false;  // Reliability, digests, defer-mode backpressure.
  bool meter_bytes = false;

  // Size of the measured phase.
  size_t waves = 0;           // kWave.
  uint64_t ticks = 0;         // kOpenLoop: arrival span in virtual ticks.
  double rate = 0;            // kOpenLoop: arrivals per tick.
  uint64_t segment = 32;      // kOpenLoop: ticks per RunOpenLoopUntil.
  size_t rounds = 0;          // kClosedLoop.
  size_t pubs_per_round = 64;  // kClosedLoop.
  size_t prune_every = 4;     // kClosedLoop: rounds between PruneExpired.
};

/// The named workload's parameters for a run of `seconds`; false when
/// the name is unknown.
bool ParamsFor(const std::string& name, double seconds, Params* out);

/// Worker threads the multi-worker workload uses: min(available CPUs, 4).
int DefaultWorkers();

/// One execution of a workload: engine set-up, measured phase, check.
struct Execution {
  OpLog log;

  double setup_s = 0;
  double measured_s = 0;
  uint64_t publications = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  contjoin::sim::NetStats traffic;  // Measured phase only.
  uint64_t events = 0;
  uint64_t parallel_batches = 0;
  uint64_t filter_ops = 0;
  uint64_t max_node_filter_ops = 0;
  /// Mean over the busiest 1% of alive nodes (at least one node).
  double top1pct_filter_ops = 0;
  double tf_gini = 0;
  uint64_t notifications_created = 0;
  uint64_t acks_sent = 0;
  uint64_t stored_objects = 0;
  uint64_t pruned_objects = 0;
  uint64_t peak_inflight_slots = 0;
  uint64_t peak_pending_events = 0;
  double peak_rss_mb = 0;

  Inboxes inboxes;
  uint64_t deliveries = 0;
  double notify_p50 = 0;
  double notify_p99 = 0;
  std::vector<ContentSet> delivered;
  CheckOutcome check;

  /// Kept for the traced run's kernel replays; null otherwise.
  std::unique_ptr<contjoin::core::ContinuousQueryNetwork> net;

  double TuplesPerSecond() const {
    return measured_s > 0 ? static_cast<double>(publications) / measured_s
                          : 0;
  }
};

/// Runs `p` with inputs from `seed` and checks what it delivered. `start`
/// is when set-up timing begins. With `keep_engine` the engine outlives the
/// call in `Execution::net`.
Execution Execute(const Params& p, uint64_t seed, Tracer& tracer,
                  std::chrono::steady_clock::time_point start,
                  bool keep_engine);

/// The derived index key strings of every publication in `log` (attribute
/// and value level, in publication order), with the publishing node.
struct DerivedKey {
  size_t origin;
  std::string key;
};
std::vector<DerivedKey> DerivedKeys(const OpLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
