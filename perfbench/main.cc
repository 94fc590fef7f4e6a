// The engine benchmark. Runs one workload and prints, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <wave10k|serve48|resub1k> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--start-ns <CLOCK_MONOTONIC ns at launch>]
//   perfbench --selftest
//
// --trace 0 measures the end-to-end metrics. --trace 1 is a separate run
// that records spans around every facade call, replays single-layer
// kernels on the run's own inputs and prints the per-layer metrics; its
// spans go to --trace-out. See README.md.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/uint160.h"
#include "sim/net_stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
int RunSelfTest();
}  // namespace perfbench

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
using contjoin::sim::MsgClass;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Human-readable account of one execution, on stderr.
void Describe(const char* label, const Params& p, const Execution& ex) {
  std::fprintf(stderr,
               "[%s] %s: %zu nodes, %d worker(s), %llu publications in "
               "%.3f s (set-up %.3f s), %llu hops, %llu deliveries, %llu "
               "expected results, check %s\n",
               label, p.name.c_str(), p.nodes, p.workers,
               static_cast<unsigned long long>(ex.publications), ex.measured_s,
               ex.setup_s,
               static_cast<unsigned long long>(ex.traffic.total_hops()),
               static_cast<unsigned long long>(ex.deliveries),
               static_cast<unsigned long long>(ex.check.expected_results),
               ex.check.ok ? "ok" : "FAILED");
  for (const std::string& e : ex.check.errors) {
    std::fprintf(stderr, "[%s]   %s\n", label, e.c_str());
  }
}

std::vector<Metric> EndToEnd(const Execution& ex) {
  const double pubs = static_cast<double>(ex.publications);
  return {
      {"setup_s", ex.setup_s, "s"},
      {"tuples_per_s", ex.TuplesPerSecond(), "tuples/s"},
      {"hops_per_tuple",
       Ratio(static_cast<double>(ex.traffic.total_hops()), pubs),
       "hops/tuple"},
      {"top1pct_filter_ops", ex.top1pct_filter_ops, "ops"},
      {"notify_p50_ticks", ex.notify_p50, "ticks"},
      {"notify_p99_ticks", ex.notify_p99, "ticks"},
      {"peak_rss_mb", ex.peak_rss_mb, "MB"},
  };
}

// The message classes whose per-tuple hops are reported; the lookup,
// maintenance and one-time classes carry no traffic on these workloads.
const std::vector<std::pair<MsgClass, const char*>>& ReportedClasses() {
  static const std::vector<std::pair<MsgClass, const char*>> classes = {
      {MsgClass::kQueryIndex, "query_index"},
      {MsgClass::kTupleIndex, "tuple_index"},
      {MsgClass::kRewrittenQuery, "rewritten_query"},
      {MsgClass::kNotification, "notification"},
      {MsgClass::kControl, "control"},
  };
  return classes;
}

bool SameTraffic(const contjoin::sim::NetStats& a,
                 const contjoin::sim::NetStats& b) {
  for (int c = 0; c < static_cast<int>(MsgClass::kClassCount); ++c) {
    if (a.hops(static_cast<MsgClass>(c)) != b.hops(static_cast<MsgClass>(c))) {
      return false;
    }
  }
  return true;
}

// A measured run is one execution, the first of its process: later ones
// in the same process run on a heap the earlier engine left behind and are
// slower by a varying amount (14-58% on wave10k).
int RunMeasured(const Params& p, uint64_t seed, Clock::time_point start) {
  Tracer off(false, "measured");
  const Execution ex = Execute(p, seed, off, start, /*keep_engine=*/false);
  Describe("measured", p, ex);
  PrintResult(ex.check.ok, ex.attempted, ex.failed, EndToEnd(ex));
  return 0;
}

int RunTraced(const Params& p, uint64_t seed, Clock::time_point start,
              const std::string& trace_out) {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto account = [&](const char* label, const Params& params,
                     const Execution& ex) {
    Describe(label, params, ex);
    correct = correct && ex.check.ok;
    attempted += ex.attempted;
    failed += ex.failed;
  };

  // The first execution of a process runs on freshly faulted memory and is
  // slower, so a cold untraced execution goes first and the overhead is
  // taken between the traced one and a warm untraced one after it.
  auto untraced = [&](const char* label, Clock::time_point from) {
    Tracer off(false, label);
    const Execution a = Execute(p, seed, off, from, /*keep_engine=*/false);
    account(label, p, a);
    return a.TuplesPerSecond();
  };
  untraced("cold", start);

  Tracer traced(true, "traced");
  Execution b = Execute(p, seed, traced, Clock::now(), /*keep_engine=*/true);
  account("traced", p, b);

  // Kernel replays on this run's own keys, ring and SQL.
  Tracer kernels(true, "kernels");
  const std::vector<DerivedKey> derived = DerivedKeys(b.log);
  std::vector<std::string> keys;
  keys.reserve(derived.size());
  uint64_t repeats = 0;
  uint64_t value_keys = 0;
  uint64_t value_repeats = 0;
  {
    std::unordered_set<std::string> seen;
    for (size_t i = 0; i < derived.size(); ++i) {
      const bool repeat = !seen.insert(derived[i].key).second;
      repeats += repeat;
      if (i % 2 == 1) {  // DerivedKeys alternates attribute, value.
        ++value_keys;
        value_repeats += repeat;
      }
      keys.push_back(derived[i].key);
    }
  }
  double hash_ns = 0;
  RouteReplay route;
  double parse_us = 0;
  {
    auto span = kernels.Scope("HashKey");
    hash_ns = HashKeyNs(keys, 200000);
  }
  {
    std::vector<std::pair<size_t, contjoin::chord::NodeId>> lookups;
    for (size_t i = 0; i < derived.size() && lookups.size() < 20000; ++i) {
      lookups.emplace_back(derived[i].origin,
                           contjoin::HashKey(derived[i].key));
    }
    auto span = kernels.Scope("ClosestPrecedingFinger");
    route = ReplayRouting(*b.net, lookups);
  }
  {
    std::set<std::string> sql;
    for (const Subscription& s : b.log.subs) sql.insert(s.spec.Sql());
    auto span = kernels.Scope("ParseQuery");
    parse_us = ParseUs({sql.begin(), sql.end()}, *b.net->catalog(), 20000);
  }
  b.net.reset();
  b.inboxes.clear();
  const double untraced_tps = untraced("untraced", Clock::now());

  // A multi-worker workload reruns at 1 worker, which must deliver the
  // same sets over the same per-class hops; a metered one reruns with
  // wire-byte metering off.
  double speedup = 1;
  double meter_s = 0;
  Tracer rerun_trace(true, "rerun");
  if (p.workers > 1 || p.meter_bytes) {
    Params q = p;
    q.workers = 1;
    q.meter_bytes = false;
    const Execution c =
        Execute(q, seed, rerun_trace, Clock::now(), /*keep_engine=*/false);
    account("rerun", q, c);
    if (p.workers > 1) {
      speedup = Ratio(b.TuplesPerSecond(), c.TuplesPerSecond());
      if (c.delivered != b.delivered || !SameTraffic(c.traffic, b.traffic)) {
        correct = false;
        std::fprintf(stderr,
                     "[rerun] 1-worker run differs from the %d-worker run in "
                     "delivered sets or per-class hops\n",
                     p.workers);
      }
    } else {
      meter_s = b.measured_s - c.measured_s;
    }
  }

  const double pubs = static_cast<double>(b.publications);
  const double deliveries = static_cast<double>(b.deliveries);
  std::vector<Metric> m = {
      {"common.hash_key_ns", hash_ns, "ns"},
      {"common.key_repeat_share", Ratio(repeats, keys.size()), "ratio"},
      {"common.value_key_repeat_share", Ratio(value_repeats, value_keys),
       "ratio"},
      {"chord.route_ns", route.ns_per_lookup, "ns"},
      {"chord.hops_per_lookup", route.hops_per_lookup, "hops/lookup"},
  };
  for (const auto& [cls, name] : ReportedClasses()) {
    m.push_back({std::string("chord.hops.") + name + "_per_tuple",
                 Ratio(static_cast<double>(b.traffic.hops(cls)), pubs),
                 "hops/tuple"});
  }
  const double notification_hops =
      static_cast<double>(b.traffic.hops(MsgClass::kNotification));
  const std::vector<Metric> rest = {
      {"sim.events_per_tuple", Ratio(static_cast<double>(b.events), pubs),
       "events/tuple"},
      {"sim.parallel_batches", static_cast<double>(b.parallel_batches),
       "count"},
      {"sim.speedup_vs_1_worker", speedup, "x"},
      {"core.publish_s",
       traced.SelfSeconds("InsertTupleWave") +
           traced.SelfSeconds("InsertTuple") +
           traced.SelfSeconds("SchedulePublish") +
           traced.SelfSeconds("RunOpenLoopUntil"),
       "s"},
      {"core.subscribe_s", traced.SelfSeconds("SubmitQuery"), "s"},
      {"core.unsubscribe_s", traced.SelfSeconds("Unsubscribe"), "s"},
      {"core.prune_s", traced.SelfSeconds("PruneExpired"), "s"},
      {"core.drain_s", traced.SelfSeconds("TakeNotifications"), "s"},
      {"core.construct_s", traced.SelfSeconds("ContinuousQueryNetwork"), "s"},
      {"core.max_node_filter_ops", static_cast<double>(b.max_node_filter_ops),
       "ops"},
      {"core.filter_ops_per_tuple",
       Ratio(static_cast<double>(b.filter_ops), pubs), "ops/tuple"},
      {"core.tf_gini", b.tf_gini, "gini"},
      {"core.stored_objects", static_cast<double>(b.stored_objects), "count"},
      {"core.pruned_objects", static_cast<double>(b.pruned_objects), "count"},
      {"core.results_per_notification_hop",
       Ratio(deliveries, notification_hops), "results/hop"},
      {"core.acks_per_delivery",
       Ratio(static_cast<double>(b.acks_sent), deliveries), "acks/delivery"},
      {"core.deferrals_per_delivery",
       Ratio(static_cast<double>(b.traffic.deferred()), deliveries), "ratio"},
      {"codec.bytes_per_hop",
       Ratio(static_cast<double>(b.traffic.total_bytes()),
             static_cast<double>(b.traffic.total_hops())),
       "bytes/hop"},
      {"codec.meter_s", meter_s, "s"},
      {"serving.peak_inflight_slots",
       static_cast<double>(b.peak_inflight_slots), "count"},
      {"serving.peak_pending_events",
       static_cast<double>(b.peak_pending_events), "count"},
      {"query.parse_us", parse_us, "us"},
      {"bench.generate_s", traced.TotalSeconds("bench.generate"), "s"},
      {"bench.check_s", traced.TotalSeconds("bench.check"), "s"},
      {"trace.untraced_tuples_per_s", untraced_tps, "tuples/s"},
      {"trace.traced_tuples_per_s", b.TuplesPerSecond(), "tuples/s"},
      {"trace.overhead_share", Ratio(untraced_tps, b.TuplesPerSecond()) - 1,
       "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    out << "{\"workload\": \"" << p.name << "\", \"seed\": " << seed
        << ", \"runs\": [\n"
        << traced.ToJson() << ",\n"
        << kernels.ToJson() << ",\n"
        << rerun_trace.ToJson() << "]}\n";
    if (!out) {
      std::fprintf(stderr, "could not write %s\n", trace_out.c_str());
      correct = false;
    }
  }
  PrintResult(correct, attempted, failed, m);
  return 0;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--start-ns <ns>]\n"
               "       perfbench --selftest\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Clock::time_point start = Clock::now();
  std::string workload;
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return RunSelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (arg == "--trace-out") {
      trace_out = value;
    } else if (arg == "--start-ns") {
      // The launcher's CLOCK_MONOTONIC reading just before exec, so that
      // setup_s counts process start-up too.
      start = Clock::time_point(
          std::chrono::nanoseconds(std::strtoll(value, &end, 10)));
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("malformed value for " + arg).c_str());
    }
  }
  // A measured run's one execution is sized from the run's seconds; a
  // traced run makes up to four (cold, traced, warm untraced, rerun), each
  // sized from a quarter of them.
  Params p;
  if (!ParamsFor(workload, trace == 1 ? seconds / 4 : seconds, &p)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  if (seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage("--seconds must be > 0 and --trace 0 or 1");
  }
  return trace == 1 ? RunTraced(p, seed, start, trace_out)
                    : RunMeasured(p, seed, start);
}
