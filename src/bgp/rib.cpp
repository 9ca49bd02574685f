#include "bgp/rib.hpp"

namespace sdx::bgp {

bool Rib::add(Route route) {
  const Ipv4Prefix prefix = route.prefix;
  return trie_.insert(prefix, std::move(route));
}

namespace {

/// True when \p held is the route an UPDATE carrying \p attrs would
/// install, next hop aside: same attributes and no provenance. Like
/// equal_but_next_hop(), the binding fails to compile if Route gains a
/// field that assign() does not write.
bool same_but_next_hop(const Route& held, const RouteAttributes& attrs) {
  const auto& [prefix, held_attrs, learned_from, peer_router_id] = held;
  static_cast<void>(prefix);
  return equal_but_next_hop(held_attrs, attrs) && learned_from == 0 &&
         peer_router_id == Ipv4Address{};
}

}  // namespace

bool Rib::assign(Ipv4Prefix prefix, const RouteAttributes& attrs,
                 Ipv4Address next_hop) {
  auto [route, fresh] = trie_.try_emplace(prefix);
  if (!fresh && same_but_next_hop(*route, attrs)) {
    if (route->attrs.next_hop == next_hop) return false;
    route->attrs.next_hop = next_hop;
    return true;
  }
  route->prefix = prefix;
  route->attrs = attrs;
  route->attrs.next_hop = next_hop;
  route->learned_from = 0;
  route->peer_router_id = Ipv4Address{};
  return true;
}

bool Rib::holds(Ipv4Prefix prefix, const RouteAttributes& attrs,
                Ipv4Address next_hop) const {
  const Route* held = trie_.find(prefix);
  return held != nullptr && held->attrs.next_hop == next_hop &&
         same_but_next_hop(*held, attrs);
}

bool Rib::withdraw(Ipv4Prefix prefix) { return trie_.erase(prefix); }

const Route* Rib::find(Ipv4Prefix prefix) const { return trie_.find(prefix); }

const Route* Rib::lookup(Ipv4Address addr) const {
  auto hit = trie_.lookup(addr);
  return hit ? hit->second : nullptr;
}

std::vector<Route> Rib::routes() const {
  std::vector<Route> out;
  out.reserve(trie_.size());
  trie_.for_each([&out](Ipv4Prefix, const Route& r) { out.push_back(r); });
  return out;
}

}  // namespace sdx::bgp
