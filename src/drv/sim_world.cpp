#include "drv/sim_world.hpp"

#include <string>
#include <utility>

#include "drv/sim_driver.hpp"
#include "util/panic.hpp"

namespace nmad::drv {

SimWorld::SimWorld() : net_(engine_) {}
SimWorld::~SimWorld() = default;

NodeId SimWorld::add_node(const netmodel::HostProfile& host) {
  if (auto s = host.validate(); !s) NMAD_PANIC("invalid HostProfile");
  Node node;
  // Names are built without printf: a cold vsnprintf call costs about a
  // microsecond, while adding a node or a link otherwise costs a few.
  node.name = host.name + "#" + std::to_string(nodes_.size());
  node.cpu = std::make_unique<sim::SerialResource>(engine_, host.pio_cores,
                                                   node.name + ".cpu");
  node.bus = net_.add_constraint(host.bus_bandwidth_mbps, node.name + ".bus");
  nodes_.push_back(std::move(node));
  return NodeId{static_cast<std::uint32_t>(nodes_.size() - 1)};
}

std::pair<SimDriver*, SimDriver*> SimWorld::add_link(
    NodeId a, NodeId b, const netmodel::NicProfile& nic) {
  NMAD_ASSERT(a.value < nodes_.size() && b.value < nodes_.size(),
              "add_link on unknown node");
  NMAD_ASSERT(!(a == b), "add_link requires two distinct nodes");
  if (auto s = nic.validate(); !s) NMAD_PANIC("invalid NicProfile");

  const auto link_name = [&nic](NodeId from, NodeId to) {
    return nic.name + "." + std::to_string(from.value) + "->" +
           std::to_string(to.value);
  };
  const auto link_ab = net_.add_constraint(nic.dma_bandwidth_mbps, link_name(a, b));
  const auto link_ba = net_.add_constraint(nic.dma_bandwidth_mbps, link_name(b, a));

  auto drv_a = std::make_unique<SimDriver>(*this, a, nic, link_ab);
  auto drv_b = std::make_unique<SimDriver>(*this, b, nic, link_ba);
  drv_a->peer_ = drv_b.get();
  drv_b->peer_ = drv_a.get();
  nodes_[a.value].rails.push_back(drv_a.get());
  nodes_[b.value].rails.push_back(drv_b.get());

  SimDriver* pa = drv_a.get();
  SimDriver* pb = drv_b.get();
  drivers_.push_back(std::move(drv_a));
  drivers_.push_back(std::move(drv_b));
  return {pa, pb};
}

sim::SerialResource& SimWorld::cpu(NodeId node) {
  NMAD_ASSERT(node.value < nodes_.size(), "unknown node");
  return *nodes_[node.value].cpu;
}

sim::ConstraintId SimWorld::bus(NodeId node) const {
  NMAD_ASSERT(node.value < nodes_.size(), "unknown node");
  return nodes_[node.value].bus;
}

const std::vector<SimDriver*>& SimWorld::rails(NodeId node) const {
  NMAD_ASSERT(node.value < nodes_.size(), "unknown node");
  return nodes_[node.value].rails;
}

sim::TimeNs SimWorld::poll_penalty(NodeId node, const SimDriver* to_rail) const {
  NMAD_ASSERT(node.value < nodes_.size(), "unknown node");
  double penalty_us = 0.0;
  for (const SimDriver* rail : nodes_[node.value].rails) {
    if (rail != to_rail) penalty_us += rail->profile().poll_cost_us;
  }
  return sim::us_to_ns(penalty_us);
}

}  // namespace nmad::drv
