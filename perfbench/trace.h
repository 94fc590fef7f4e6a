// Traced-run support: in-memory spans around every facade call and around
// the benchmark's own phases, and replays of single-layer kernels on a
// run's own inputs. Nothing here runs when tracing is off, so the
// end-to-end figures never include it.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "chord/types.h"
#include "core/engine.h"

namespace perfbench {

/// Records nested spans (name, start, end, parent) of one run, in memory.
/// A disabled tracer records nothing.
class Tracer {
 public:
  Tracer(bool enabled, std::string run);

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  /// Opens a span that closes when the returned object goes out of scope.
  Span Scope(const char* name) { return Span(enabled_ ? this : nullptr, name); }

  bool enabled() const { return enabled_; }
  /// Sum of the durations of every span named `name`.
  double TotalSeconds(std::string_view name) const;
  /// The same minus the time their child spans cover.
  double SelfSeconds(std::string_view name) const;
  /// The run's spans as a JSON object.
  std::string ToJson() const;

 private:
  struct Record {
    const char* name;
    int32_t parent;
    uint64_t start_ns;
    uint64_t end_ns;
    uint64_t child_ns;
  };
  uint64_t NowNs() const;

  bool enabled_;
  std::string run_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  int32_t open_ = -1;
};

/// Mean nanoseconds per HashKey call over `keys`, repeated until at least
/// `min_calls` calls ran.
double HashKeyNs(const std::vector<std::string>& keys, size_t min_calls);

struct RouteReplay {
  double ns_per_lookup = 0;
  double hops_per_lookup = 0;
};

/// Walks ClosestPrecedingFinger from each origin until a node
/// IsResponsibleFor the target, on the engine's own ring.
RouteReplay ReplayRouting(
    contjoin::core::ContinuousQueryNetwork& net,
    const std::vector<std::pair<size_t, contjoin::chord::NodeId>>& lookups);

/// Mean microseconds per ParseQuery call over `sql`, repeated until at
/// least `min_calls` calls ran.
double ParseUs(const std::vector<std::string>& sql,
               const contjoin::rel::Catalog& catalog, size_t min_calls);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
