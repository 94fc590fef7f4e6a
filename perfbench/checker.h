// The benchmark's correctness check: an independent hash join over the
// operations the benchmark issued, compared query by query with what the
// subscribers' inboxes received. It shares no code with src/reference or
// the engine's matching; it only reads Notification fields.

#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/notification.h"
#include "inputs.h"

namespace perfbench {

/// A result row (R-side select value, S-side select value), packed.
using ContentSet = std::unordered_set<uint64_t>;

/// Drained inboxes: (node, what TakeNotifications returned there).
using Inboxes =
    std::vector<std::pair<size_t, std::vector<contjoin::core::Notification>>>;

/// The join the engine must produce, one content set per subscription in
/// `log.subs` order. A pair (r, s) of the query's relation pair answers
/// the query iff r.a<r_join> = s.b<s_join>, both were published at or
/// after the query's insertion, the later of the two was published before
/// its unsubscription, and, with a window W, |r.pub - s.pub| <= W.
std::vector<ContentSet> ExpectedJoin(const OpLog& log);

/// Everything the subscribers received, folded per subscription.
class Delivered {
 public:
  explicit Delivered(const OpLog& log);

  /// Folds in what node `node`'s inbox held.
  void Add(size_t node,
           const std::vector<contjoin::core::Notification>& batch);

  const std::vector<ContentSet>& sets() const { return sets_; }
  /// Virtual time from the later tuple's publication to the first deposit
  /// of each distinct result (query, row, earlier_pub, later_pub).
  std::vector<uint64_t> FirstDepositLatencies() const;
  /// Malformed deliveries: unknown query key, a delivery to another node
  /// than the subscriber, a row that is not two integers, or a deposit
  /// stamped before its later publication.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  struct ResultKey {
    uint32_t sub;
    uint64_t row;
    uint64_t earlier;
    uint64_t later;
    bool operator==(const ResultKey&) const = default;
  };
  struct ResultKeyHash {
    size_t operator()(const ResultKey& k) const;
  };

  void Error(std::string message);

  std::unordered_map<std::string, uint32_t> index_;
  std::vector<size_t> nodes_;  // Per subscription, its node.
  std::vector<ContentSet> sets_;
  std::unordered_map<ResultKey, uint64_t, ResultKeyHash> first_deposit_;
  std::vector<std::string> errors_;
};

struct CheckOutcome {
  bool ok = true;
  uint64_t expected_results = 0;  // Distinct (query, row) the join yields.
  uint64_t missing = 0;
  uint64_t extra = 0;
  std::vector<std::string> errors;  // At most a handful, for the log.
};

/// Compares the delivered content sets with the expected ones and folds
/// in the malformed deliveries `delivered` saw.
CheckOutcome Compare(const OpLog& log, const std::vector<ContentSet>& expected,
                     const Delivered& delivered);

/// Every check a run makes on what its subscribers received.
CheckOutcome Check(const OpLog& log, const Inboxes& inboxes,
                   std::vector<uint64_t>* latencies,
                   std::vector<ContentSet>* delivered_sets);

/// Percentile (p in [0, 100]) of integer samples, as for grouped data:
/// each value v stands for the unit interval [v - 0.5, v + 0.5) and the
/// percentile is interpolated inside the interval where the cumulative
/// count reaches p%. A shift of a few results by one tick then moves it,
/// where the plain order statistic would stay on the same integer. Sorts
/// `values` in place; 0 for an empty input.
double Percentile(std::vector<uint64_t>& values, double p);

uint64_t PackRow(int64_t r_value, int64_t s_value);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
