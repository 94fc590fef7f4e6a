#include "checker.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace perfbench {

uint64_t PackRow(int64_t r_value, int64_t s_value) {
  return (static_cast<uint64_t>(r_value) << 32) |
         static_cast<uint32_t>(s_value);
}

std::vector<ContentSet> ExpectedJoin(const OpLog& log) {
  std::vector<ContentSet> out(log.subs.size());
  // Queries sharing a relation pair and join attributes share one join.
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, std::vector<uint32_t>>
      groups;
  for (uint32_t i = 0; i < log.subs.size(); ++i) {
    const QuerySpec& q = log.subs[i].spec;
    groups[{q.pair, q.r_join, q.s_join}].push_back(i);
  }
  for (const auto& [group, members] : groups) {
    const auto [pair, r_join, s_join] = group;
    std::unordered_map<int64_t, std::vector<const Publication*>> s_by_value;
    for (const Publication& p : log.pubs) {
      if (p.row.pair == pair && !p.row.is_r) {
        s_by_value[p.row.values[s_join]].push_back(&p);
      }
    }
    for (const Publication& r : log.pubs) {
      if (r.row.pair != pair || !r.row.is_r) continue;
      auto it = s_by_value.find(r.row.values[r_join]);
      if (it == s_by_value.end()) continue;
      for (const Publication* s : it->second) {
        const uint64_t earlier = std::min(r.pub, s->pub);
        const uint64_t later = std::max(r.pub, s->pub);
        if (log.window != 0 && later - earlier > log.window) continue;
        for (uint32_t m : members) {
          const Subscription& sub = log.subs[m];
          if (earlier < sub.inserted || later >= sub.removed) continue;
          out[m].insert(PackRow(r.row.values[sub.spec.r_sel],
                                s->row.values[sub.spec.s_sel]));
        }
      }
    }
  }
  return out;
}

size_t Delivered::ResultKeyHash::operator()(const ResultKey& k) const {
  uint64_t h = k.sub * 0x9e3779b97f4a7c15ull;
  for (uint64_t v : {k.row, k.earlier, k.later}) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return static_cast<size_t>(h);
}

Delivered::Delivered(const OpLog& log) : sets_(log.subs.size()) {
  for (uint32_t i = 0; i < log.subs.size(); ++i) {
    index_[log.subs[i].key] = i;
    nodes_.push_back(log.subs[i].node);
  }
}

void Delivered::Error(std::string message) {
  if (errors_.size() < 8) errors_.push_back(std::move(message));
}

void Delivered::Add(size_t node,
                    const std::vector<contjoin::core::Notification>& batch) {
  using contjoin::rel::ValueType;
  for (const contjoin::core::Notification& n : batch) {
    auto it = index_.find(n.query_key);
    if (it == index_.end()) {
      Error("delivery for unknown query " + n.query_key);
      continue;
    }
    if (nodes_[it->second] != node) {
      Error("query " + n.query_key + " delivered to node " +
            std::to_string(node));
    }
    if (n.row.size() != 2 || n.row[0].type() != ValueType::kInt ||
        n.row[1].type() != ValueType::kInt) {
      Error("malformed row for query " + n.query_key);
      continue;
    }
    if (n.delivered_at < n.later_pub) {
      Error("query " + n.query_key + " deposited at " +
            std::to_string(n.delivered_at) + " before its later publication " +
            std::to_string(n.later_pub));
    }
    const uint64_t row = PackRow(n.row[0].as_int(), n.row[1].as_int());
    sets_[it->second].insert(row);
    auto [slot, inserted] = first_deposit_.try_emplace(
        ResultKey{it->second, row, n.earlier_pub, n.later_pub},
        n.delivered_at);
    if (!inserted) slot->second = std::min(slot->second, n.delivered_at);
  }
}

std::vector<uint64_t> Delivered::FirstDepositLatencies() const {
  std::vector<uint64_t> out;
  out.reserve(first_deposit_.size());
  for (const auto& [key, at] : first_deposit_) {
    out.push_back(at >= key.later ? at - key.later : 0);
  }
  return out;
}

CheckOutcome Compare(const OpLog& log, const std::vector<ContentSet>& expected,
                     const Delivered& delivered) {
  CheckOutcome out;
  out.errors = delivered.errors();
  const std::vector<ContentSet>& got = delivered.sets();
  for (size_t i = 0; i < expected.size(); ++i) {
    out.expected_results += expected[i].size();
    uint64_t missing = 0;
    uint64_t extra = 0;
    for (uint64_t row : expected[i]) missing += got[i].count(row) == 0;
    for (uint64_t row : got[i]) extra += expected[i].count(row) == 0;
    if ((missing != 0 || extra != 0) && out.errors.size() < 8) {
      out.errors.push_back("query " + log.subs[i].key + " (" +
                           log.subs[i].spec.Sql() + "): " +
                           std::to_string(missing) + " missing, " +
                           std::to_string(extra) + " extra of " +
                           std::to_string(expected[i].size()));
    }
    out.missing += missing;
    out.extra += extra;
  }
  out.ok = out.missing == 0 && out.extra == 0 && out.errors.empty();
  return out;
}

CheckOutcome Check(const OpLog& log, const Inboxes& inboxes,
                   std::vector<uint64_t>* latencies,
                   std::vector<ContentSet>* delivered_sets) {
  Delivered got(log);
  for (const auto& [node, batch] : inboxes) got.Add(node, batch);
  CheckOutcome out = Compare(log, ExpectedJoin(log), got);
  if (latencies != nullptr) *latencies = got.FirstDepositLatencies();
  if (delivered_sets != nullptr) *delivered_sets = got.sets();
  return out;
}

double Percentile(std::vector<uint64_t>& values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double target = p / 100.0 * static_cast<double>(values.size());
  const size_t at = std::min(static_cast<size_t>(target), values.size() - 1);
  const auto [first, last] =
      std::equal_range(values.begin(), values.end(), values[at]);
  const double below = static_cast<double>(first - values.begin());
  const double count = static_cast<double>(last - first);
  return static_cast<double>(values[at]) - 0.5 + (target - below) / count;
}

}  // namespace perfbench
