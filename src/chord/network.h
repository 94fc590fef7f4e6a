// The simulated overlay network: node registry, hop-counted transport,
// ground-truth oracle, ring construction (protocol-based and ideal) and
// maintenance driving.

#ifndef CONTJOIN_CHORD_NETWORK_H_
#define CONTJOIN_CHORD_NETWORK_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "chord/node.h"
#include "chord/types.h"
#include "common/rng.h"
#include "sim/net_stats.h"
#include "sim/simulator.h"

namespace contjoin::faults {
class FaultPlan;
}  // namespace contjoin::faults

namespace contjoin::chord {

class SimTransport;
class Transport;

/// Transport and protocol knobs.
struct NetworkOptions {
  /// Successor-list length r (paper §2.2: small values suffice).
  int successor_list_size = 4;
  /// Virtual-time latency of one overlay hop. Zero gives deterministic
  /// cascades (an insertion's consequences complete before the next event).
  sim::SimTime hop_latency = 0;
  /// Hop budget per routed message, and per stretch of a multisend batch
  /// between two nodes that deliver part of it; exceeded messages are
  /// dropped and counted (only reachable in inconsistent transitional
  /// rings).
  int max_route_hops = 512;
  /// Sender-side per-destination aggregation (Grappa-style): transmissions
  /// a handler issues to the same destination, class and latency ride one
  /// delivery event. Hop accounting and fault injection stay per logical
  /// message; only the event count shrinks. Off by default so historical
  /// runs stay bit-identical.
  bool coalesce = false;
};

/// Owns all nodes, counts traffic, and provides ring-construction helpers.
class Network {
 public:
  explicit Network(sim::Simulator* simulator, NetworkOptions options = {});
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulator* simulator() const { return simulator_; }
  sim::NetStats& stats() { return stats_; }
  const NetworkOptions& options() const { return options_; }

  // --- Node lifecycle -------------------------------------------------------

  /// Creates an unjoined node with the given application key (paper §2.2:
  /// e.g. derived from public key / IP). Identifier = SHA-1(key).
  Node* CreateNode(const std::string& key);

  /// Creates a node and joins it through `bootstrap` (protocol join).
  Node* CreateAndJoin(const std::string& key, Node* bootstrap);

  /// Builds an N-node ring with exact pointers: sorted successors,
  /// predecessors, successor lists and fingers computed directly. Routing
  /// over the result is identical to a converged protocol-built ring; only
  /// construction messages are skipped (used by the large benchmarks).
  /// Node keys are "node-<i>".
  std::vector<Node*> BuildIdealRing(size_t n);

  /// Recomputes every alive node's pointers to the ideal state (used after
  /// scripted churn in benchmarks).
  void RewireIdeal();

  // --- Introspection ---------------------------------------------------------

  /// Ground truth: first alive node whose identifier >= id (clockwise),
  /// i.e. Successor(id). nullptr if no node is alive.
  Node* OracleSuccessor(const NodeId& id) const;

  /// Exact-identifier lookup over every node ever created (dead included),
  /// in O(1): every hop resolves its destination through here. Read-only
  /// over an index that only grows at serial time, so event handlers on
  /// any shard may call it (the reliability layer routes acks to origins
  /// by identifier through here).
  Node* FindById(const NodeId& id) const {
    auto it = id_index_.find(id);
    return it == id_index_.end() ? nullptr : it->second;
  }

  std::vector<Node*> AliveNodes() const;
  size_t alive_count() const { return alive_count_; }
  const std::vector<std::unique_ptr<Node>>& all_nodes() const {
    return nodes_;
  }

  /// True iff every alive node's successor pointer matches the oracle.
  bool RingIsConsistent() const;

  /// True iff, additionally, all predecessor pointers and finger tables
  /// match the oracle.
  bool RingIsFullyConsistent() const;

  // --- Maintenance ------------------------------------------------------------

  /// One round: every alive node runs check-predecessor, stabilize, and
  /// fixes `fingers_per_round` fingers.
  void RunMaintenanceRound(int fingers_per_round = 1);

  /// Runs rounds until RingIsFullyConsistent() or `max_rounds` is hit.
  /// Returns the number of rounds executed.
  int StabilizeUntilConsistent(int max_rounds);

  // --- Transport (used by Node) -----------------------------------------------

  /// One overlay hop from `from` to `to`: counts a hop of class `cls` and
  /// schedules `deliver` (any copyable callable) to run at `to` after the
  /// hop latency, as exactly one simulator event. Messages to dead nodes
  /// are dropped and counted; the fault plan's drops, duplicates and
  /// delays and sender-side coalescing all apply here. Protocol hops reach
  /// this through SimTransport as typed frames (see TransmitHop); callers
  /// passing their own closure are the simulator-only interactions (DHT
  /// fetch replies, migration state transfers, engine result sinks).
  template <typename Deliver>
  void Transmit(Node* from, Node* to, sim::MsgClass cls, Deliver deliver);

  /// Ships one typed overlay hop to the node with identifier `to` through
  /// the installed transport (the one true send path for protocol
  /// messages). When a frame sizer is installed, the encoded size is
  /// accounted per message class first.
  void TransmitHop(Node* from, const NodeId& to, HopFrame frame);

  /// The hop-shipping seam. Defaults to the in-simulator transport;
  /// nullptr restores the default.
  Transport* transport() const { return transport_; }
  void set_transport(Transport* transport);

  /// The built-in in-simulator transport (always available; socket
  /// transports delegate locally-owned hops to it).
  Transport* sim_transport() const;

  /// Installs the bytes-on-wire meter: a callback returning the encoded
  /// size of a frame (wired up by the engine, which owns the codec; the
  /// chord layer cannot encode application payloads itself). Unset by
  /// default — hop accounting then stays byte-free and free of encoding
  /// cost.
  void set_frame_sizer(std::function<size_t(const HopFrame&)> sizer) {
    frame_sizer_ = std::move(sizer);
  }

  /// Hop accounting for synchronous probe RPCs (iterative lookups), which
  /// execute inline rather than through the event queue.
  void CountHop(sim::MsgClass cls) { stats_.AddHop(cls); }
  void CountDrop(sim::MsgClass cls) { stats_.AddDrop(cls); }

  /// Installs (or clears, with nullptr) the fault-injection plan consulted
  /// by Transmit. The plan must outlive the network. No plan means the
  /// historical loss-free transport.
  void set_fault_plan(faults::FaultPlan* plan) { fault_plan_ = plan; }
  faults::FaultPlan* fault_plan() const { return fault_plan_; }

  // --- Node lifecycle hooks (used by Node) ------------------------------------

  void OnNodeDeath() { --alive_count_; }
  void OnNodeBirth() { ++alive_count_; }

  /// Fresh address epoch for a node reconnecting from a new "IP".
  uint64_t AssignIp() { return next_ip_++; }

  /// Logical messages that shared a delivery event with an earlier one
  /// (only nonzero with options().coalesce).
  uint64_t coalesced_messages() const {
    return coalesced_messages_.load(std::memory_order_relaxed);
  }

 private:
  // What becomes of one transmission once it has been counted.
  struct Fate {
    bool deliver = false;
    sim::SimTime latency = 0;
    int duplicates = 0;
    bool delayed = false;  // The fault plan stretched the latency.
  };

  void WireIdeal(const std::vector<Node*>& sorted);

  /// Counts the hop (and any duplicate's), drops it on a dead or unknown
  /// destination, and draws the sender's next fault decision.
  Fate Admit(Node* from, Node* to, sim::MsgClass cls);

  /// Schedules the delivery event: `deliver` runs on `to`'s shard unless
  /// `to` died in flight, which counts a drop instead.
  template <typename Deliver>
  void ScheduleDelivery(Node* to, sim::MsgClass cls, sim::SimTime latency,
                        Deliver deliver);

  /// Appends `action` to the calling thread's open buffer for (to, cls,
  /// latency), opening the buffer (and scheduling its single flush event)
  /// on first use. Buffers seal when the current handler returns, via the
  /// simulator's post-action hook.
  void AppendCoalesced(Node* to, sim::MsgClass cls, sim::SimTime latency,
                       std::function<void()> action);
  void CloseCoalescingBuffers();

  sim::Simulator* simulator_;
  NetworkOptions options_;
  std::unique_ptr<SimTransport> sim_transport_;
  Transport* transport_;
  std::function<size_t(const HopFrame&)> frame_sizer_;
  sim::NetStats stats_;
  faults::FaultPlan* fault_plan_ = nullptr;
  std::vector<std::unique_ptr<Node>> nodes_;
  // All nodes ever created, dead included: ordered for OracleSuccessor's
  // clockwise scan, hashed for FindById.
  std::map<NodeId, Node*> by_id_;
  std::unordered_map<NodeId, Node*> id_index_;
  size_t alive_count_ = 0;
  uint64_t next_ip_ = 1;
  uint64_t next_key_serial_ = 0;
  std::atomic<uint64_t> coalesced_messages_{0};
};

template <typename Deliver>
void Network::Transmit(Node* from, Node* to, sim::MsgClass cls,
                       Deliver deliver) {
  const Fate fate = Admit(from, to, cls);
  if (!fate.deliver) return;
  for (int i = 0; i < fate.duplicates; ++i) {
    // The duplicate is real traffic (Admit counted its hop), delivered at
    // the same time as the original.
    ScheduleDelivery(to, cls, fate.latency, deliver);
  }
  // Delayed messages ride alone so the perturbed latency stays visible per
  // message.
  if (!fate.delayed && options_.coalesce && simulator_->InExecution()) {
    AppendCoalesced(to, cls, fate.latency, std::move(deliver));
    return;
  }
  ScheduleDelivery(to, cls, fate.latency, std::move(deliver));
}

template <typename Deliver>
void Network::ScheduleDelivery(Node* to, sim::MsgClass cls,
                               sim::SimTime latency, Deliver deliver) {
  simulator_->ScheduleSharded(
      latency, to->serial(),
      [this, to, cls, deliver = std::move(deliver)]() mutable {
        if (!to->alive()) {
          stats_.AddDrop(cls);
          return;
        }
        deliver();
      });
}

}  // namespace contjoin::chord

#endif  // CONTJOIN_CHORD_NETWORK_H_
