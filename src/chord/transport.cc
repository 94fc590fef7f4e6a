#include "chord/transport.h"

#include <utility>

#include "chord/network.h"
#include "chord/node.h"

namespace contjoin::chord {

// contjoin-check: hot
void SimTransport::SendHop(Node* from, const NodeId& to, HopFrame frame) {
  // Exact-identifier resolution (dead nodes included): Transmit counts the
  // hop and drops on a dead or unknown destination. The frame moves into
  // the single delivery event Transmit schedules.
  Node* dest = network_->FindById(to);
  const sim::MsgClass cls = frame.cls;
  network_->Transmit(from, dest, cls,
                     [dest, frame = std::move(frame)]() mutable {
                       dest->ApplyHop(std::move(frame));
                     });
}

}  // namespace contjoin::chord
