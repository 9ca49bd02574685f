#pragma once

/// \file route.hpp
/// BGP route model: path attributes and learned routes.
///
/// The SDX route server (paper §3.2) collects one route per (peer, prefix),
/// runs the BGP decision process per participant, and exposes both the best
/// route and the full set of feasible exported routes to the policy compiler.

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "netbase/as_path.hpp"
#include "netbase/ip.hpp"

namespace sdx::bgp {

using net::AsPath;
using net::Asn;
using net::Ipv4Address;
using net::Ipv4Prefix;

/// Identifies an SDX participant (an AS connected to the route server).
using ParticipantId = std::uint32_t;

/// RFC 4271 ORIGIN attribute values (lower is preferred).
enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

std::string_view origin_name(Origin o);

/// A BGP community value (RFC 1997), e.g. 0xFFFFFF01 = NO_EXPORT.
using Community = std::uint32_t;

/// Builds a community from its conventional "asn:value" notation.
constexpr Community make_community(std::uint16_t high, std::uint16_t low) {
  return (static_cast<Community>(high) << 16) | low;
}

/// RFC 1997 well-known communities.
inline constexpr Community kNoExport = 0xFFFFFF01;     ///< 65535:65281
inline constexpr Community kNoAdvertise = 0xFFFFFF02;  ///< 65535:65282

/// The default LOCAL_PREF applied when the attribute is absent.
inline constexpr std::uint32_t kDefaultLocalPref = 100;

/// The path attributes carried in an UPDATE (the subset the SDX uses).
struct RouteAttributes {
  Origin origin = Origin::kIgp;
  AsPath as_path;
  Ipv4Address next_hop;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  std::vector<Community> communities;

  std::uint32_t effective_local_pref() const {
    return local_pref.value_or(kDefaultLocalPref);
  }

  friend bool operator==(const RouteAttributes&,
                         const RouteAttributes&) = default;
};

/// operator== with the next hop left out: true when a router holding \p a
/// needs at most a next-hop rewrite to hold \p b. The structured binding
/// names every field, so adding one to RouteAttributes stops this from
/// compiling until the comparison covers it too.
inline bool equal_but_next_hop(const RouteAttributes& a,
                               const RouteAttributes& b) {
  const auto& [origin, as_path, next_hop, med, local_pref, communities] = a;
  static_cast<void>(next_hop);
  return origin == b.origin && as_path == b.as_path && med == b.med &&
         local_pref == b.local_pref && communities == b.communities;
}

/// A route as known by the route server: prefix + attributes + provenance
/// (which peer session it was learned over, for loop prevention and
/// tie-breaking).
struct Route {
  Ipv4Prefix prefix;
  RouteAttributes attrs;
  ParticipantId learned_from = 0;    ///< advertising SDX participant
  Ipv4Address peer_router_id;        ///< BGP identifier of that peer

  /// The neighboring AS the route points at (first AS of the path).
  Asn neighbor_as() const {
    return attrs.as_path.empty() ? 0 : attrs.as_path.first();
  }

  std::string to_string() const;

  friend bool operator==(const Route&, const Route&) = default;
};

std::ostream& operator<<(std::ostream& os, const Route& r);

}  // namespace sdx::bgp
