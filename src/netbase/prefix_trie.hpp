#pragma once

/// \file prefix_trie.hpp
/// A binary (unibit) trie over IPv4 prefixes with longest-prefix-match
/// lookup. Used for border-router FIBs, the route server's RPKI table and
/// the packet classifier's dst/src tuple prechecks.
///
/// Layout: nodes are 12 bytes — two 32-bit child indices and a 32-bit
/// index into a dense value array — so a walk touches only small, packed
/// nodes and the values (a whole bgp::Route in a FIB) live out of line.
/// Index 0 is the root, which is never anyone's child, so a child index of
/// 0 means "no child". Erasing a prefix releases its value slot and prunes
/// the branch it leaves empty; both kinds of slot are recycled through free
/// lists, so storage is bounded by the live prefix set, not by how many
/// distinct prefixes were ever inserted.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "netbase/ip.hpp"

namespace sdx::net {

template <typename V>
class PrefixTrie {
 public:
  PrefixTrie() { clear(); }

  /// Inserts or overwrites the value for \p prefix. Returns true when the
  /// prefix was newly inserted (false when overwritten).
  bool insert(Ipv4Prefix prefix, V value) {
    auto [slot, fresh] = try_emplace(prefix);
    *slot = std::move(value);
    return fresh;
  }

  /// The value slot for \p prefix, default-constructed when the prefix was
  /// absent (second = true). Lets a caller compare and update a value in
  /// place instead of building a replacement. The pointer is valid until
  /// the next insertion or erasure.
  std::pair<V*, bool> try_emplace(Ipv4Prefix prefix) {
    std::uint32_t node = 0;
    std::uint32_t bits = prefix.network().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (bits >> 31) & 1;
      bits <<= 1;
      std::uint32_t child = nodes_[node].child[bit];
      if (child == kNoChild) {
        child = alloc_node();
        nodes_[node].child[bit] = child;
      }
      node = child;
    }
    if (nodes_[node].value != kNoValue) {
      return {&values_[nodes_[node].value], false};
    }
    std::uint32_t slot;
    if (!free_values_.empty()) {
      slot = free_values_.back();
      free_values_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(values_.size());
      values_.emplace_back();
    }
    nodes_[node].value = slot;
    ++size_;
    return {&values_[slot], true};
  }

  /// Removes the value for \p prefix; returns true when present. Nodes left
  /// with neither a value nor a child are unlinked and recycled.
  bool erase(Ipv4Prefix prefix) {
    std::uint32_t path[33];
    path[0] = 0;
    std::uint32_t bits = prefix.network().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const std::uint32_t child = nodes_[path[depth]].child[(bits >> 31) & 1];
      if (child == kNoChild) return false;
      bits <<= 1;
      path[depth + 1] = child;
    }
    Node& target = nodes_[path[prefix.length()]];
    if (target.value == kNoValue) return false;
    values_[target.value] = V{};  // release whatever the value owns
    free_values_.push_back(target.value);
    target.value = kNoValue;
    --size_;
    const std::uint32_t net = prefix.network().value();
    for (int depth = prefix.length(); depth > 0; --depth) {
      const Node& n = nodes_[path[depth]];
      if (n.value != kNoValue || n.child[0] != kNoChild ||
          n.child[1] != kNoChild) {
        break;
      }
      nodes_[path[depth - 1]].child[(net >> (32 - depth)) & 1] = kNoChild;
      free_nodes_.push_back(path[depth]);
    }
    return true;
  }

  /// Exact-match lookup.
  const V* find(Ipv4Prefix prefix) const {
    std::uint32_t node = 0;
    std::uint32_t bits = prefix.network().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      node = nodes_[node].child[(bits >> 31) & 1];
      if (node == kNoChild) return nullptr;
      bits <<= 1;
    }
    const std::uint32_t slot = nodes_[node].value;
    return slot == kNoValue ? nullptr : &values_[slot];
  }

  V* find(Ipv4Prefix prefix) {
    return const_cast<V*>(std::as_const(*this).find(prefix));
  }

  /// Longest-prefix-match lookup for an address; returns the matched prefix
  /// and its value, or std::nullopt when nothing covers the address.
  std::optional<std::pair<Ipv4Prefix, const V*>> lookup(
      Ipv4Address addr) const {
    std::uint32_t node = 0;
    std::uint32_t best_slot = kNoValue;
    int best_depth = 0;
    std::uint32_t bits = addr.value();
    for (int depth = 0;; ++depth) {
      const Node& n = nodes_[node];
      if (n.value != kNoValue) {
        best_slot = n.value;
        best_depth = depth;
      }
      if (depth == 32) break;
      node = n.child[(bits >> 31) & 1];
      if (node == kNoChild) break;
      bits <<= 1;
    }
    if (best_slot == kNoValue) return std::nullopt;
    return std::pair<Ipv4Prefix, const V*>{
        Ipv4Prefix(Ipv4Address(addr.value() & netmask(best_depth)),
                   best_depth),
        &values_[best_slot]};
  }

  /// Visits every (prefix, value) pair in lexicographic prefix order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit(0, 0u, 0, fn);
  }

  /// Visits the value of every stored prefix that covers \p addr, shortest
  /// prefix first — one root-to-leaf walk, no allocation. This is the
  /// data-plane tuple precheck: the packet classifier ORs per-prefix tuple
  /// bitmaps along the path to decide which CIDR tuples can possibly hold a
  /// matching rule before probing any of them.
  template <typename Fn>
  void for_each_covering(Ipv4Address addr, Fn&& fn) const {
    std::uint32_t node = 0;
    std::uint32_t bits = addr.value();
    for (int depth = 0;; ++depth) {
      const Node& n = nodes_[node];
      if (n.value != kNoValue) fn(values_[n.value]);
      if (depth == 32) break;
      node = n.child[(bits >> 31) & 1];
      if (node == kNoChild) break;
      bits <<= 1;
    }
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Nodes currently linked into the trie, the root included.
  std::size_t node_count() const { return nodes_.size() - free_nodes_.size(); }
  /// Node slots held in storage, live or waiting on the free list.
  std::size_t node_capacity() const { return nodes_.size(); }

  void clear() {
    nodes_.assign(1, Node{});
    values_.clear();
    free_nodes_.clear();
    free_values_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kNoChild = 0;
  static constexpr std::uint32_t kNoValue = ~std::uint32_t{0};

  struct Node {
    std::uint32_t child[2] = {kNoChild, kNoChild};
    std::uint32_t value = kNoValue;
  };
  static_assert(sizeof(Node) == 12);

  std::uint32_t alloc_node() {
    if (!free_nodes_.empty()) {
      const std::uint32_t node = free_nodes_.back();
      free_nodes_.pop_back();
      nodes_[node] = Node{};
      return node;
    }
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  template <typename Fn>
  void visit(std::uint32_t node, std::uint32_t acc, int depth, Fn& fn) const {
    const Node& n = nodes_[node];
    if (n.value != kNoValue) {
      fn(Ipv4Prefix(Ipv4Address(acc), depth), values_[n.value]);
    }
    if (depth == 32) return;
    if (n.child[0] != kNoChild) visit(n.child[0], acc, depth + 1, fn);
    if (n.child[1] != kNoChild) {
      visit(n.child[1], acc | (1u << (31 - depth)), depth + 1, fn);
    }
  }

  std::vector<Node> nodes_;
  std::vector<V> values_;
  std::vector<std::uint32_t> free_nodes_;
  std::vector<std::uint32_t> free_values_;
  std::size_t size_ = 0;
};

}  // namespace sdx::net
