#include "trace.h"

#include <cstdio>

#include "chord/node.h"
#include "common/uint160.h"
#include "query/parser.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Tracer::Tracer(bool enabled, std::string run)
    : enabled_(enabled), run_(std::move(run)), origin_(Clock::now()) {}

uint64_t Tracer::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count());
}

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int32_t>(tracer_->records_.size());
  tracer_->records_.push_back({name, tracer_->open_, tracer_->NowNs(), 0, 0});
  tracer_->open_ = index_;
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  Record& r = tracer_->records_[static_cast<size_t>(index_)];
  r.end_ns = tracer_->NowNs();
  tracer_->open_ = r.parent;
  if (r.parent >= 0) {
    tracer_->records_[static_cast<size_t>(r.parent)].child_ns +=
        r.end_ns - r.start_ns;
  }
}

double Tracer::TotalSeconds(std::string_view name) const {
  uint64_t ns = 0;
  for (const Record& r : records_) {
    if (name == r.name) ns += r.end_ns - r.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::SelfSeconds(std::string_view name) const {
  uint64_t ns = 0;
  for (const Record& r : records_) {
    if (name == r.name) ns += r.end_ns - r.start_ns - r.child_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::string Tracer::ToJson() const {
  std::string out = "{\"run\": \"" + run_ + "\", \"spans\": [";
  char buf[160];
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                  "\"start_ns\": %llu, \"end_ns\": %llu}",
                  i == 0 ? "" : ",", i, r.parent, r.name,
                  static_cast<unsigned long long>(r.start_ns),
                  static_cast<unsigned long long>(r.end_ns));
    out += buf;
  }
  out += "]}";
  return out;
}

double HashKeyNs(const std::vector<std::string>& keys, size_t min_calls) {
  if (keys.empty()) return 0;
  uint64_t sink = 0;
  size_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  while (calls < min_calls) {
    for (const std::string& k : keys) {
      sink += contjoin::HashKey(k).Low64();
    }
    calls += keys.size();
  }
  const double s = SecondsSince(t0);
  volatile uint64_t keep = sink;  // Keeps the hashes from being elided.
  (void)keep;
  return s * 1e9 / static_cast<double>(calls);
}

RouteReplay ReplayRouting(
    contjoin::core::ContinuousQueryNetwork& net,
    const std::vector<std::pair<size_t, contjoin::chord::NodeId>>& lookups) {
  RouteReplay out;
  if (lookups.empty()) return out;
  uint64_t hops = 0;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [origin, target] : lookups) {
    contjoin::chord::Node* cur = net.node(origin);
    for (int guard = 0; guard < 512 && !cur->IsResponsibleFor(target);
         ++guard) {
      contjoin::chord::Node* next = cur->ClosestPrecedingFinger(target);
      cur = next != nullptr ? next : cur->successor();
      ++hops;
    }
  }
  const double s = SecondsSince(t0);
  out.ns_per_lookup = s * 1e9 / static_cast<double>(lookups.size());
  out.hops_per_lookup =
      static_cast<double>(hops) / static_cast<double>(lookups.size());
  return out;
}

double ParseUs(const std::vector<std::string>& sql,
               const contjoin::rel::Catalog& catalog, size_t min_calls) {
  if (sql.empty()) return 0;
  size_t calls = 0;
  size_t ok = 0;
  const Clock::time_point t0 = Clock::now();
  while (calls < min_calls) {
    for (const std::string& q : sql) {
      ok += contjoin::query::ParseQuery(q, catalog).ok();
    }
    calls += sql.size();
  }
  const double s = SecondsSince(t0);
  if (ok != calls) std::fprintf(stderr, "ParseQuery failed during replay\n");
  return s * 1e6 / static_cast<double>(calls);
}

}  // namespace perfbench
