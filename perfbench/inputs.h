// The benchmark's own input generation: a seeded generator, a Zipf table,
// the relation-pair schema, query SQL and tuple rows. Nothing here comes
// from src/workload, so the inputs a seed produces depend only on this
// directory.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/status.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace perfbench {

/// Attributes per relation in every workload.
constexpr size_t kAttrs = 4;

/// splitmix64: small, seedable and identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);
  /// Uniform in [0, 1).
  double Unit();
  /// Exponential inter-arrival gap with the given rate (> 0).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

/// Rank r in [0, n) with probability proportional to 1 / (r + 1)^theta,
/// by binary search over a precomputed CDF. theta = 0 is uniform.
class Zipf {
 public:
  Zipf(uint64_t n, double theta);
  /// The rank at cumulative probability u in [0, 1).
  int64_t Quantile(double u) const;

 private:
  std::vector<double> cdf_;
};

/// `pairs` relation pairs R<i>(a0..a3) / S<i>(b0..b3), integer attributes.
struct Schema {
  size_t pairs = 1;
};

std::string RelationName(bool is_r, size_t pair);
std::string AttrName(bool is_r, size_t attr);
contjoin::Status RegisterSchemas(const Schema& schema,
                                 contjoin::rel::Catalog* catalog);

/// A plain two-way equi-join over one relation pair:
///   SELECT R<p>.a<r_sel>, S<p>.b<s_sel> FROM R<p>, S<p>
///   WHERE R<p>.a<r_join> = S<p>.b<s_join>
struct QuerySpec {
  uint32_t pair = 0;
  uint32_t r_join = 0;
  uint32_t s_join = 0;
  uint32_t r_sel = 0;
  uint32_t s_sel = 0;

  std::string Sql() const;
};

/// The query population: the same for every run, balanced. The joins cycle
/// through every (pair, r_join, s_join); the select lists come from
/// shuffled decks that hold every pair of select-attribute offsets from
/// the join attributes once, so each way a select list can repeat a join
/// attribute (which decides how often SAI groups identical rewritten
/// queries) gets an equal share. Seeds vary the subscribers and the data,
/// not which queries exist, which keeps the busiest nodes' load steady.
class QueryStream {
 public:
  explicit QueryStream(const Schema& schema);
  QuerySpec Next();

 private:
  Rng rng_;
  std::vector<QuerySpec> joins_;
  size_t next_join_;
  std::vector<std::pair<uint32_t, uint32_t>> offsets_;
  size_t next_offset_;
};

/// One generated publication.
struct Row {
  uint32_t pair = 0;
  bool is_r = true;
  uint32_t origin = 0;  // Publishing node index.
  std::array<int64_t, kAttrs> values{};

  std::string Relation() const { return RelationName(is_r, pair); }
  std::vector<contjoin::rel::Value> Values() const;
};

/// Publications drawn by stratified sampling. Every block of 2 * pairs rows
/// holds each relation once, and every block of kBlock values of one
/// relation attribute holds each of kBlock equal-probability strata of the
/// value distribution once, all in shuffled order. The count of each hot
/// value then barely moves between seeds, which keeps join output, hops
/// and the busiest nodes' load steady across seeds, while which rows carry
/// which values, their order and their origins stay random.
class RowStream {
 public:
  static constexpr size_t kBlock = 1000;

  RowStream(const Schema& schema, const Zipf& values, size_t num_nodes,
            uint64_t seed);
  Row Next();

 private:
  int64_t NextValue(size_t stream);

  const Zipf& values_;
  size_t num_nodes_;
  Rng rng_;
  std::vector<uint32_t> relations_;  // 2 * pair + (is_r ? 0 : 1).
  size_t next_relation_;
  std::vector<std::vector<int64_t>> blocks_;  // Per (relation, attribute).
  std::vector<size_t> next_value_;
};

// --- What the engine was asked to do, as the checker sees it ----------------

constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

struct Subscription {
  std::string key;          // Query key SubmitQuery returned.
  size_t node = 0;          // Subscribing node.
  QuerySpec spec;
  uint64_t inserted = 0;    // Virtual insertion time.
  uint64_t removed = kNever;  // Virtual unsubscribe time.
};

struct Publication {
  Row row;
  uint64_t pub = 0;  // Virtual publication time.
};

struct OpLog {
  uint64_t window = 0;  // 0 = unlimited.
  std::vector<Subscription> subs;
  std::vector<Publication> pubs;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
