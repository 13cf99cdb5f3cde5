#include "routing/mutex.hpp"

#include <stdexcept>
#include <utility>

namespace lr {

LinkReversalMutex::LinkReversalMutex(const Graph& topology, NodeId initial_holder)
    : LinkReversalMutex(DynamicHeightsDag(topology, initial_holder)) {}

LinkReversalMutex::LinkReversalMutex(DynamicHeightsDag dag)
    : dag_(std::move(dag)), pending_(dag_.num_nodes(), false) {
  dag_.stabilize();
}

std::size_t LinkReversalMutex::request(NodeId u) {
  if (u >= dag_.num_nodes()) {
    throw std::invalid_argument("LinkReversalMutex::request: node out of range");
  }
  if (u == holder() || pending_[u]) return 0;
  const auto path = dag_.route(u);
  if (!path) {
    throw std::logic_error("LinkReversalMutex::request: no route to token holder");
  }
  pending_[u] = true;
  queue_.push_back(u);
  ++stats_.requests;
  stats_.total_request_hops += path->size() - 1;
  return path->size() - 1;
}

void LinkReversalMutex::link_up(NodeId u, NodeId v) {
  dag_.add_link(u, v);
  dag_.stabilize();
}

void LinkReversalMutex::link_down(NodeId u, NodeId v) {
  dag_.remove_link(u, v);
  dag_.stabilize();
}

NodeId LinkReversalMutex::release() {
  if (queue_.empty()) return holder();  // nobody waiting: keep the token
  const NodeId next = queue_.front();
  queue_.pop_front();
  pending_[next] = false;
  const std::uint64_t before = dag_.total_reversals();
  dag_.set_destination(next);
  dag_.stabilize();
  stats_.total_reversals += dag_.total_reversals() - before;
  ++stats_.grants;
  return next;
}

}  // namespace lr
