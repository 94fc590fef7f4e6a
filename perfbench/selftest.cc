// Self-test of the benchmark's checker (perfbench --selftest).
//
// On small closed-loop runs of all four algorithms, with and without a
// window and with unsubscriptions, the checker's expected content sets must
// equal those of the centralized oracle in src/reference, and the engine's
// deliveries must pass the check. The oracle is quadratic in the stream,
// which is why the benchmark does not use it at full scale. The checker
// must also reject the same deliveries with one result dropped and with one
// extra result added.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "checker.h"
#include "core/options.h"
#include "query/parser.h"
#include "reference/reference_engine.h"
#include "workloads.h"

namespace perfbench {

namespace {

using contjoin::core::Algorithm;
using contjoin::core::Notification;

/// Content keys of the checker's expected join, in the oracle's format.
std::set<std::string> ExpectedContent(const OpLog& log) {
  const std::vector<ContentSet> expected = ExpectedJoin(log);
  std::set<std::string> out;
  for (size_t i = 0; i < expected.size(); ++i) {
    for (uint64_t row : expected[i]) {
      Notification n;
      n.query_key = log.subs[i].key;
      n.row = {contjoin::rel::Value::Int(static_cast<int64_t>(row >> 32)),
               contjoin::rel::Value::Int(static_cast<uint32_t>(row))};
      out.insert(n.ContentKey());
    }
  }
  return out;
}

/// Replays the log through the oracle in virtual-time order.
bool OracleContent(const OpLog& log, const contjoin::rel::Catalog& catalog,
                   std::set<std::string>* out) {
  enum Kind { kRemove = 0, kAdd = 1, kTuple = 2 };
  std::vector<std::tuple<uint64_t, int, size_t>> events;
  for (size_t i = 0; i < log.subs.size(); ++i) {
    events.emplace_back(log.subs[i].inserted, kAdd, i);
    if (log.subs[i].removed != kNever) {
      events.emplace_back(log.subs[i].removed, kRemove, i);
    }
  }
  for (size_t i = 0; i < log.pubs.size(); ++i) {
    events.emplace_back(log.pubs[i].pub, kTuple, i);
  }
  std::sort(events.begin(), events.end());
  contjoin::ref::ReferenceEngine oracle(log.window);
  uint64_t seq = 0;
  for (const auto& [at, kind, i] : events) {
    if (kind == kRemove) {
      oracle.RemoveQuery(log.subs[i].key);
    } else if (kind == kAdd) {
      auto parsed = contjoin::query::ParseQuery(log.subs[i].spec.Sql(),
                                                catalog);
      if (!parsed.ok()) return false;
      contjoin::query::ContinuousQuery q = std::move(parsed).value();
      q.set_key(log.subs[i].key);
      q.set_insertion_time(log.subs[i].inserted);
      oracle.AddQuery(
          std::make_shared<const contjoin::query::ContinuousQuery>(
              std::move(q)));
    } else {
      const Row& row = log.pubs[i].row;
      oracle.InsertTuple(std::make_shared<const contjoin::rel::Tuple>(
          row.Relation(), row.Values(), at, seq++));
    }
  }
  *out = oracle.ContentSet();
  return true;
}

/// The inboxes without any delivery of one delivered result.
Inboxes DropOneResult(const Inboxes& inboxes) {
  Inboxes out = inboxes;
  const Notification* victim = nullptr;
  for (const auto& [node, batch] : inboxes) {
    if (!batch.empty()) {
      victim = &batch.front();
      break;
    }
  }
  if (victim == nullptr) return out;
  const std::string key = victim->ContentKey();
  for (auto& [node, batch] : out) {
    std::erase_if(batch,
                  [&](const Notification& n) { return n.ContentKey() == key; });
  }
  return out;
}

/// The inboxes plus one delivery of a row no query produced.
Inboxes AddOneResult(const Inboxes& inboxes) {
  Inboxes out = inboxes;
  for (auto& [node, batch] : out) {
    if (batch.empty()) continue;
    Notification extra = batch.front();
    extra.row[0] = contjoin::rel::Value::Int(1 << 30);  // Outside the domain.
    batch.push_back(extra);
    break;
  }
  return out;
}

}  // namespace

int RunSelfTest() {
  int failures = 0;
  auto expect = [&](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += ok ? 0 : 1;
  };
  for (Algorithm algo : {Algorithm::kSai, Algorithm::kDaiQ, Algorithm::kDaiT,
                         Algorithm::kDaiV}) {
    for (uint64_t window : {uint64_t{0}, uint64_t{48}}) {
      for (uint64_t seed : {1, 2, 3}) {
        Params p;
        p.name = "selftest";
        p.mode = Mode::kClosedLoop;
        p.nodes = 32;
        p.algorithm = algo;
        p.schema.pairs = 1;
        p.domain = 12;
        p.queries = 6;
        p.window = window;
        p.track_evaluators = true;
        p.rounds = 4;
        p.pubs_per_round = 16;
        p.prune_every = 2;
        const std::string what =
            std::string(contjoin::core::AlgorithmName(algo)) + " window=" +
            std::to_string(window) + " seed=" + std::to_string(seed);

        Tracer off(false, "selftest");
        Execution ex = Execute(p, seed, off,
                               std::chrono::steady_clock::now(),
                               /*keep_engine=*/true);
        std::set<std::string> oracle;
        const bool oracle_ok =
            OracleContent(ex.log, *ex.net->catalog(), &oracle);
        const std::set<std::string> mine = ExpectedContent(ex.log);
        expect(oracle_ok && !oracle.empty() && mine == oracle,
               what + ": checker join equals the oracle (" +
                   std::to_string(mine.size()) + " results)");
        expect(ex.check.ok && ex.failed == 0,
               what + ": engine deliveries pass the check");
        for (const std::string& e : ex.check.errors) {
          std::printf("     %s\n", e.c_str());
        }
        expect(!Check(ex.log, DropOneResult(ex.inboxes), nullptr, nullptr).ok,
               what + ": one dropped result fails the check");
        expect(!Check(ex.log, AddOneResult(ex.inboxes), nullptr, nullptr).ok,
               what + ": one extra result fails the check");
      }
    }
  }
  std::printf("%s: %d failure(s)\n", failures == 0 ? "selftest passed"
                                                   : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
