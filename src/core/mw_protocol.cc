#include "core/mw_protocol.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "chord/node.h"
#include "common/logging.h"
#include "core/state.h"
#include "core/subscriber.h"

namespace contjoin::core::mw {

namespace {

struct PendingMwJoin {
  chord::NodeId vindex;
  std::shared_ptr<MwJoinPayload> payload;
};
using MwJoinMap = std::map<std::string, PendingMwJoin>;

/// Canonical content identity of a partial binding: query, bound set,
/// bound select values and the pending join values. Identical keys imply
/// identical downstream results, so evaluators deduplicate on it.
std::string MwPartialKey(const MwPartial& p) {
  std::string out = p.query->key();
  out += "#" + std::to_string(p.bound_mask);
  for (const auto& v : p.row) {
    out += '\x1f';
    out += v.has_value() ? v->ToKeyString() : std::string("?");
  }
  for (const auto& [edge, value] : p.pending) {
    out += '\x1e';
    out += std::to_string(edge) + ":" + value.ToKeyString();
  }
  return out;
}

/// Queues `p` (already targeted) into the per-evaluator groups.
void MwQueuePartial(MwPartial p, MwJoinMap* out) {
  const query::MwQuery& q = *p.query;
  const query::MwCondition& cond =
      q.conditions()[static_cast<size_t>(p.target_condition)];
  // The unbound endpoint of the chased condition.
  int bound_end = ((p.bound_mask >> cond.rel_a) & 1u) ? cond.rel_a
                                                      : cond.rel_b;
  int target_rel = cond.Other(bound_end);
  const query::MwRelation& rel =
      q.relations()[static_cast<size_t>(target_rel)];
  const std::string& attr =
      rel.schema->attribute(cond.AttrOn(target_rel)).name;
  const rel::Value& required = p.pending.at(p.target_condition);
  std::string value_key = required.ToKeyString();
  std::string vkey_full = ValueKeyOf(rel.relation, attr, value_key);

  PendingMwJoin& pending = (*out)[vkey_full];
  if (pending.payload == nullptr) {
    pending.vindex = HashKey(vkey_full);
    pending.payload = std::make_shared<MwJoinPayload>();
    pending.payload->level1 = AttrKey(rel.relation, attr);
    pending.payload->value_key = value_key;
  }
  pending.payload->entries.push_back(std::move(p));
}

/// Starts a fresh partial from a root-relation tuple (at the rewriter).
void MwTrigger(NodeState& state, const query::MwQueryPtr& q,
               const rel::Tuple& tuple, MwJoinMap* out) {
  int side = q->SideOfRelation(tuple.relation());
  CJ_CHECK(side >= 0);
  if (tuple.pub_time() < q->insertion_time()) return;
  if (!q->relations()[static_cast<size_t>(side)].SatisfiesPredicates(tuple)) {
    return;
  }
  MwPartial p;
  p.query = q;
  p.bound_mask = 1u << side;
  p.row.assign(q->select().size(), std::nullopt);
  for (size_t i = 0; i < q->select().size(); ++i) {
    if (q->select()[i].ref.side == side) {
      p.row[i] = tuple.at(q->select()[i].ref.attr_index);
    }
  }
  for (size_t c = 0; c < q->conditions().size(); ++c) {
    const query::MwCondition& cond = q->conditions()[c];
    if (!cond.Touches(side)) continue;
    const rel::Value& v = tuple.at(cond.AttrOn(side));
    if (v.is_null()) return;  // A null join value can never complete.
    p.pending.emplace(static_cast<int>(c), v);
  }
  p.min_pub = p.max_pub = tuple.pub_time();
  p.last_seq = tuple.seq();
  p.target_condition = q->NextCondition(p.bound_mask);
  CJ_CHECK(p.target_condition >= 0);
  p.partial_key = MwPartialKey(p);
  ++state.metrics.rewrites_sent;
  MwQueuePartial(std::move(p), out);
}

/// Extends `p` with a matched tuple: emits a notification when complete,
/// otherwise queues the next-hop partial.
void MwExtend(ProtocolContext& ctx, chord::Node& node, const MwPartial& p,
              const rel::Tuple& t2, MwJoinMap* out) {
  const query::MwQuery& q = *p.query;
  int side = q.SideOfRelation(t2.relation());
  CJ_CHECK(side >= 0);
  MwPartial np;
  np.query = p.query;
  np.bound_mask = p.bound_mask | (1u << side);
  np.row = p.row;
  for (size_t i = 0; i < q.select().size(); ++i) {
    if (q.select()[i].ref.side == side) {
      np.row[i] = t2.at(q.select()[i].ref.attr_index);
    }
  }
  np.pending = p.pending;
  np.pending.erase(p.target_condition);
  for (size_t c = 0; c < q.conditions().size(); ++c) {
    const query::MwCondition& cond = q.conditions()[c];
    if (!cond.Touches(side)) continue;
    int other = cond.Other(side);
    if ((np.bound_mask >> other) & 1u) continue;  // Already consumed.
    const rel::Value& v = t2.at(cond.AttrOn(side));
    if (v.is_null()) return;
    np.pending.emplace(static_cast<int>(c), v);
  }
  np.min_pub = std::min(p.min_pub, t2.pub_time());
  np.max_pub = std::max(p.max_pub, t2.pub_time());
  np.last_seq = std::max(p.last_seq, t2.seq());
  np.target_condition = q.NextCondition(np.bound_mask);
  if (np.target_condition < 0) {
    // Every relation bound: the combination is an answer.
    subscriber::EmitMwNotification(ctx, node, q, np.row, np.min_pub,
                                   np.max_pub);
    return;
  }
  np.partial_key = MwPartialKey(np);
  ++ctx.StateOf(node).metrics.rewrites_sent;
  MwQueuePartial(std::move(np), out);
}

void DispatchMwJoins(ProtocolContext& ctx, chord::Node& node,
                     MwJoinMap joins) {
  std::vector<chord::AppMessage> batch;
  for (auto& [vkey, pending] : joins) {
    chord::AppMessage msg;
    msg.target = pending.vindex;
    msg.cls = sim::MsgClass::kRewrittenQuery;
    msg.payload = std::move(pending.payload);
    batch.push_back(std::move(msg));
  }
  if (batch.size() == 1) {
    ctx.Send(node, std::move(batch[0]));
  } else if (!batch.empty()) {
    ctx.Multisend(node, std::move(batch), sim::MsgClass::kRewrittenQuery);
  }
}

}  // namespace

void TriggerAll(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                const std::string& mkey, const rel::Tuple& tuple) {
  auto mw_it = state.mw.alqt.find(mkey);
  if (mw_it == state.mw.alqt.end()) return;
  state.metrics.filter_ops_attr += mw_it->second.size();
  MwJoinMap mw_joins;
  for (const query::MwQueryPtr& q : mw_it->second) {
    MwTrigger(state, q, tuple, &mw_joins);
  }
  if (!mw_joins.empty()) DispatchMwJoins(ctx, node, std::move(mw_joins));
}

void MatchTupleVl(ProtocolContext& ctx, chord::Node& node, NodeState& state,
                  const TupleIndexPayload& p) {
  auto l1 = state.mw.vlqt.find(p.level1);
  if (l1 == state.mw.vlqt.end()) return;
  auto l2 = l1->second.find(p.value_key);
  if (l2 == l1->second.end()) return;
  const rel::Tuple& tuple = *p.tuple;
  MwJoinMap next;
  for (const auto& [partial_key, partial] : l2->second) {
    ++state.metrics.filter_ops_value;
    const query::MwQuery& q = *partial.query;
    if (tuple.pub_time() < q.insertion_time()) continue;
    rel::Timestamp span_min = std::min(partial.min_pub, tuple.pub_time());
    rel::Timestamp span_max = std::max(partial.max_pub, tuple.pub_time());
    if (ctx.options().window != 0 &&
        span_max - span_min > ctx.options().window) {
      continue;
    }
    int side = q.SideOfRelation(tuple.relation());
    if (side < 0) continue;
    if (!q.relations()[static_cast<size_t>(side)].SatisfiesPredicates(
            tuple)) {
      continue;
    }
    MwExtend(ctx, node, partial, tuple, &next);
  }
  if (!next.empty()) DispatchMwJoins(ctx, node, std::move(next));
}

void HandleQueryIndex(ProtocolContext& ctx, chord::Node& node,
                      const chord::AppMessage& msg) {
  const auto& p =
      *static_cast<const MwQueryIndexPayload*>(msg.payload.get());
  NodeState& state = ctx.StateOf(node);
  ++state.metrics.queries_received;
  state.mw.alqt[rewriter::MKey(p.level1, 0)].push_back(p.query);
  ++state.mw.alqt_size;
}

void HandleJoin(ProtocolContext& ctx, chord::Node& node,
                const chord::AppMessage& msg) {
  const auto& p = *static_cast<const MwJoinPayload*>(msg.payload.get());
  NodeState& state = ctx.StateOf(node);
  ++state.metrics.joins_received;
  ++state.metrics.filter_ops_value;
  MwJoinMap next;
  for (const MwPartial& entry : p.entries) {
    State::Bucket& bucket = state.mw.vlqt[p.level1][p.value_key];
    auto it = bucket.find(entry.partial_key);
    bool is_new = it == bucket.end();
    if (is_new) {
      bucket.emplace(entry.partial_key, entry);
      ++state.mw.vlqt_size;
    } else {
      // Identical content: keep the tightest publication span so windowed
      // matching stays maximally permissive for future tuples.
      if (entry.min_pub > it->second.min_pub) {
        it->second.min_pub = entry.min_pub;
        it->second.max_pub = entry.max_pub;
        it->second.last_seq = entry.last_seq;
      }
    }
    if (!is_new && ctx.options().window == 0) continue;
    // Match against already-stored tuples of the target relation/value.
    const auto* tuples = state.evaluator.vltt.Find(p.level1, p.value_key);
    if (tuples == nullptr) continue;
    const query::MwQuery& q = *entry.query;
    const query::MwCondition& cond =
        q.conditions()[static_cast<size_t>(entry.target_condition)];
    int bound_end = ((entry.bound_mask >> cond.rel_a) & 1u) ? cond.rel_a
                                                            : cond.rel_b;
    int target_rel = cond.Other(bound_end);
    const query::MwRelation& rel =
        q.relations()[static_cast<size_t>(target_rel)];
    for (const StoredTuple& st : *tuples) {
      ++state.metrics.filter_ops_value;
      const rel::Tuple& t2 = *st.tuple;
      if (t2.pub_time() < q.insertion_time()) continue;
      rel::Timestamp span_min = std::min(entry.min_pub, t2.pub_time());
      rel::Timestamp span_max = std::max(entry.max_pub, t2.pub_time());
      if (ctx.options().window != 0 &&
          span_max - span_min > ctx.options().window) {
        continue;
      }
      if (!rel.SatisfiesPredicates(t2)) continue;
      MwExtend(ctx, node, entry, t2, &next);
    }
  }
  if (!next.empty()) DispatchMwJoins(ctx, node, std::move(next));
}

}  // namespace contjoin::core::mw
