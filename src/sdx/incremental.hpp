#pragma once

/// \file incremental.hpp
/// Two-stage incremental recompilation (paper §4.3.2).
///
/// When a BGP update changes the best path for a prefix p, the fast stage
/// "restricts compilation to the parts of the policy related to p".
/// fast_update_batch() is that stage, for one prefix or a burst of them:
/// one pass over the dirty prefixes shares the clause scan and computes
/// each prefix's restricted signature (clause hits, default vector).
///
/// The paper "bypasses the actual computation of the VNH entirely by
/// simply assuming a new VNH is needed". Here a signature some prefix
/// already holds is reused instead: the engine keeps one binding per live
/// signature, and a dirty prefix whose signature is live takes that
/// binding — no VNH allocation, no synthesis, no new rules (the
/// signature's stage-1 rules match only its VMAC, so they serve every
/// holder). Only new signatures are grouped (a mini-FEC over the dirty
/// set) under one fresh (VNH, VMAC) each, synthesized, and composed
/// through the memoized stage-2 classifiers for installation at a higher
/// priority. A prefix that leaves its signature, or becomes unbound,
/// releases it; the last holder erases the entry, leaving its rules as
/// residue until the next recompile. The memo is dropped whenever its
/// rules or clause ids may stop meaning the same thing: by full_recompile(),
/// adopt() and recompile_partition(), and by the owner on any policy change
/// (forget_bindings()).
///
/// A batch of one is the paper's per-update setting; an N-update burst
/// costs at most one composition walk per new signature, not N. The
/// optimal recompilation (compute the true minimum disjoint sets, rebuild
/// the whole table) runs in the background between update bursts —
/// full_recompile(), or adopt() when the pipeline ran off-thread.

#include <map>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sdx/compiler.hpp"

namespace sdx::core {

class IncrementalEngine {
 public:
  explicit IncrementalEngine(SdxCompiler compiler)
      : compiler_(std::move(compiler)) {}

  /// The background stage: full pipeline, minimal rule table. Replaces the
  /// engine's current state. Runs the compiler's parallel pipeline at
  /// CompileOptions::threads width (see set_threads()).
  const CompiledSdx& full_recompile(VnhAllocator& vnh);

  /// Installs an externally-compiled result as the engine's current state,
  /// exactly as if full_recompile() had produced it — the swap half of the
  /// asynchronous background recompilation's double buffer. Clears the
  /// stage-2 memo (the policy view may have changed since it was built)
  /// and the signature memo (the rules behind it are gone).
  const CompiledSdx& adopt(CompiledSdx compiled);

  /// Drops the signature memo: the next fast pass binds every signature
  /// afresh. Call on any policy change (clause ids and clause contents may
  /// shift), or to measure the paper's "assume a new VNH" worst case.
  void forget_bindings();

  /// Re-sizes the parallel pipeline used by full_recompile() (0 = one
  /// thread per hardware thread). Output is unaffected.
  void set_threads(unsigned threads) { compiler_.set_threads(threads); }

  /// Attaches the measurement plane to the underlying compiler (see
  /// SdxCompiler::set_telemetry); nullptr detaches.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    compiler_.set_telemetry(telemetry);
  }

  bool has_compiled() const { return current_.has_value(); }
  const CompiledSdx& current() const { return *current_; }
  CompiledSdx& current() { return *current_; }

  /// One dirty prefix of a fast pass. Prefixes whose restricted
  /// signatures coincide share a binding (and their rules were emitted
  /// once, or earlier for a live signature); `additional_rules` attributes
  /// a new group's rule count to its first member so the per-item counts
  /// sum to the batch total.
  struct BatchItem {
    Ipv4Prefix prefix;
    std::optional<VnhBinding> binding;
    std::size_t additional_rules = 0;
  };

  struct BatchResult {
    std::vector<BatchItem> items;     ///< input order, deduplicated
    std::vector<policy::Rule> rules;  ///< combined, duplicate-free
    std::size_t additional_rules = 0;
    std::size_t groups = 0;           ///< new signatures given a binding
    std::size_t compositions = 0;     ///< stage-1 rules composed (whole batch)
    double seconds = 0;
  };

  /// The fast stage: one restricted-compilation pass over every prefix in
  /// \p prefixes (duplicates collapse to their first occurrence).
  BatchResult fast_update_batch(const std::vector<Ipv4Prefix>& prefixes,
                                VnhAllocator& vnh);

  /// Result of a single-partition recompilation: the replaced slot, the
  /// fresh attribute-encoded bindings to ARP-bind, and the prefixes whose
  /// advertisement (to this partition's owner) must be refreshed — the
  /// union of the old and new partition coverage.
  struct PartitionUpdate {
    std::size_t slot = 0;
    std::size_t rules = 0;         ///< new partition classifier size
    std::size_t compositions = 0;  ///< stage-1 × stage-2 rule visits
    double seconds = 0;
    std::vector<VnhBinding> bindings;
    std::vector<Ipv4Prefix> affected;  ///< sorted (deterministic order)
  };

  /// Recompiles exactly one participant's partition (partitioned mode only;
  /// throws std::logic_error otherwise): reach → partition FEC → fresh
  /// bindings (continuing the allocator watermark, like fast-path bindings
  /// — the next full recompile reclaims the leaked ids) → synthesis →
  /// targeted composition through the stage-2 memo. Swaps the partition
  /// into the current state and re-derives the fabric; every other
  /// partition and the shared band are untouched — the ≥10× work saving of
  /// a single-participant policy change. Drops the signature memo.
  PartitionUpdate recompile_partition(ParticipantId owner, VnhAllocator& vnh);

  const SdxCompiler& compiler() const { return compiler_; }

 private:
  struct Hit {
    const Participant* owner;
    const OutboundClause* clause;
    std::uint32_t id;  ///< global clause id (slot-major) — the signature key
  };

  /// (global clause ids of the hits, default vector): prefixes with equal
  /// signatures behave identically through the fabric.
  using SignatureKey =
      std::pair<std::vector<std::uint32_t>, DefaultVector>;
  /// One live signature: its binding and how many prefixes hold it.
  struct MemoEntry {
    VnhBinding binding;
    std::size_t holders = 0;
  };
  using Memo = std::map<SignatureKey, MemoEntry>;

  const policy::Classifier& stage2_cached(ParticipantId id);
  std::vector<Hit> hits_for(Ipv4Prefix prefix) const;
  /// Makes \p prefix a holder of \p entry, releasing what it held before.
  void hold(Ipv4Prefix prefix, Memo::iterator entry);
  /// Releases \p prefix's entry, if any; the last holder erases it.
  void release(Ipv4Prefix prefix);

  /// Synthesizes the restricted stage-1 rules for one (hits, defaults)
  /// signature under \p binding, composes them through the shared stage-2
  /// memo and appends the (deduplicated) result to \p out. Returns the
  /// number of rules appended; \p compositions accumulates the stage-1
  /// rules that went through a pull_back walk.
  std::size_t synth_and_compose(const std::vector<Hit>& hits,
                                const DefaultVector& defaults,
                                const VnhBinding& binding,
                                std::vector<policy::Rule>& out,
                                std::size_t& compositions);

  SdxCompiler compiler_;
  std::optional<CompiledSdx> current_;
  std::unordered_map<ParticipantId, policy::Classifier> stage2_cache_;
  /// Signature memo: live signature → binding, and prefix → the entry it
  /// holds (std::map iterators stay valid across other entries' erasure).
  Memo memo_;
  std::unordered_map<Ipv4Prefix, Memo::iterator> held_;
};

}  // namespace sdx::core
