#pragma once

/// \file rib.hpp
/// A routing information base for one BGP view: prefix → route, with
/// longest-prefix-match lookup. Border routers hold one Rib of the routes
/// the SDX route server advertised to them; the route server itself keeps a
/// multi-candidate table internally (route_server.hpp).

#include <optional>
#include <utility>
#include <vector>

#include "bgp/route.hpp"
#include "netbase/prefix_trie.hpp"

namespace sdx::bgp {

class Rib {
 public:
  /// Adds or replaces the route for its prefix. Returns true when new.
  bool add(Route route);

  /// Sets the route for \p prefix to \p attrs with the next hop replaced
  /// by \p next_hop — the route a router learns from an UPDATE, which
  /// carries no provenance. The stored route is compared in place and
  /// rewritten only when it differs, so re-advertising what a router
  /// already holds copies nothing. Returns true when the RIB changed.
  bool assign(Ipv4Prefix prefix, const RouteAttributes& attrs,
              Ipv4Address next_hop);

  /// True when assign() with these arguments would change nothing.
  bool holds(Ipv4Prefix prefix, const RouteAttributes& attrs,
             Ipv4Address next_hop) const;

  /// Removes the route for \p prefix. Returns true when present.
  bool withdraw(Ipv4Prefix prefix);

  /// Exact-prefix lookup.
  const Route* find(Ipv4Prefix prefix) const;

  /// Longest-prefix-match lookup for a destination address.
  const Route* lookup(Ipv4Address addr) const;

  std::size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.empty(); }
  void clear() { trie_.clear(); }

  /// All routes, in prefix order.
  std::vector<Route> routes() const;

  template <typename Fn>
  void for_each(Fn&& fn) const {
    trie_.for_each([&fn](Ipv4Prefix, const Route& r) { fn(r); });
  }

 private:
  net::PrefixTrie<Route> trie_;
};

}  // namespace sdx::bgp
