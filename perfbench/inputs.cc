#include "inputs.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::Exponential(double rate) { return -std::log1p(-Unit()) / rate; }

Zipf::Zipf(uint64_t n, double theta) : cdf_(n) {
  double sum = 0;
  for (uint64_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

int64_t Zipf::Quantile(double u) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return it - cdf_.begin();
}

std::string RelationName(bool is_r, size_t pair) {
  std::string out = is_r ? "R" : "S";
  return out += std::to_string(pair);
}

std::string AttrName(bool is_r, size_t attr) {
  std::string out = is_r ? "a" : "b";
  return out += std::to_string(attr);
}

contjoin::Status RegisterSchemas(const Schema& schema,
                                 contjoin::rel::Catalog* catalog) {
  for (size_t pair = 0; pair < schema.pairs; ++pair) {
    for (bool is_r : {true, false}) {
      std::vector<contjoin::rel::Attribute> attrs;
      for (size_t a = 0; a < kAttrs; ++a) {
        attrs.push_back({AttrName(is_r, a), contjoin::rel::ValueType::kInt});
      }
      contjoin::Status st = catalog->Register(contjoin::rel::RelationSchema(
          RelationName(is_r, pair), std::move(attrs)));
      if (!st.ok()) return st;
    }
  }
  return contjoin::Status::OK();
}

std::string QuerySpec::Sql() const {
  const std::string r = RelationName(true, pair);
  const std::string s = RelationName(false, pair);
  return "SELECT " + r + "." + AttrName(true, r_sel) + ", " + s + "." +
         AttrName(false, s_sel) + " FROM " + r + ", " + s + " WHERE " + r +
         "." + AttrName(true, r_join) + " = " + s + "." +
         AttrName(false, s_join);
}

namespace {

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
}

}  // namespace

QueryStream::QueryStream(const Schema& schema) : rng_(0x5eed) {
  for (uint32_t pair = 0; pair < schema.pairs; ++pair) {
    for (uint32_t r = 0; r < kAttrs; ++r) {
      for (uint32_t s = 0; s < kAttrs; ++s) {
        QuerySpec q;
        q.pair = pair;
        q.r_join = r;
        q.s_join = s;
        joins_.push_back(q);
      }
    }
  }
  for (uint32_t r = 0; r < kAttrs; ++r) {
    for (uint32_t s = 0; s < kAttrs; ++s) offsets_.emplace_back(r, s);
  }
  next_join_ = 0;
  next_offset_ = offsets_.size();
}

QuerySpec QueryStream::Next() {
  if (next_join_ == joins_.size()) next_join_ = 0;
  if (next_offset_ == offsets_.size()) {
    Shuffle(offsets_, rng_);
    next_offset_ = 0;
  }
  QuerySpec q = joins_[next_join_++];
  const auto [r_off, s_off] = offsets_[next_offset_++];
  q.r_sel = (q.r_join + r_off) % kAttrs;
  q.s_sel = (q.s_join + s_off) % kAttrs;
  return q;
}

RowStream::RowStream(const Schema& schema, const Zipf& values,
                     size_t num_nodes, uint64_t seed)
    : values_(values), num_nodes_(num_nodes), rng_(seed) {
  for (uint32_t r = 0; r < 2 * schema.pairs; ++r) relations_.push_back(r);
  next_relation_ = relations_.size();
  blocks_.resize(relations_.size() * kAttrs);
  next_value_.assign(blocks_.size(), kBlock);
}

int64_t RowStream::NextValue(size_t stream) {
  std::vector<int64_t>& block = blocks_[stream];
  if (next_value_[stream] == kBlock) {
    block.clear();
    for (size_t i = 0; i < kBlock; ++i) {
      block.push_back(values_.Quantile(
          (static_cast<double>(i) + rng_.Unit()) / kBlock));
    }
    Shuffle(block, rng_);
    next_value_[stream] = 0;
  }
  return block[next_value_[stream]++];
}

Row RowStream::Next() {
  if (next_relation_ == relations_.size()) {
    Shuffle(relations_, rng_);
    next_relation_ = 0;
  }
  const uint32_t relation = relations_[next_relation_++];
  Row row;
  row.pair = relation / 2;
  row.is_r = relation % 2 == 0;
  row.origin = static_cast<uint32_t>(rng_.Below(num_nodes_));
  for (size_t a = 0; a < kAttrs; ++a) {
    row.values[a] = NextValue(relation * kAttrs + a);
  }
  return row;
}

std::vector<contjoin::rel::Value> Row::Values() const {
  std::vector<contjoin::rel::Value> out;
  out.reserve(kAttrs);
  for (int64_t v : values) out.push_back(contjoin::rel::Value::Int(v));
  return out;
}

}  // namespace perfbench
