#include "dataplane/border_router.hpp"

namespace sdx::dp {

void BorderRouter::process_update(const bgp::UpdateMessage& update) {
  for (auto prefix : update.withdrawn) withdraw(prefix);
  if (update.attrs.has_value()) {
    for (auto prefix : update.nlri) {
      advertise(prefix, *update.attrs, update.attrs->next_hop);
    }
  }
}

std::optional<net::PacketHeader> BorderRouter::forward(
    net::PacketHeader payload, const ArpResponder& arp) const {
  const bgp::Route* route = rib_.lookup(payload.dst_ip());
  if (route == nullptr) {
    ++blackholed_;
    return std::nullopt;
  }
  auto next_hop_mac = arp.resolve(route->attrs.next_hop);
  if (!next_hop_mac) {
    ++blackholed_;
    return std::nullopt;
  }
  payload.set_src_mac(mac_);
  payload.set_dst_mac(*next_hop_mac);
  payload.set(net::Field::kEthType, net::kEthTypeIpv4);
  payload.set_port(port_);
  ++forwarded_;
  return payload;
}

}  // namespace sdx::dp
