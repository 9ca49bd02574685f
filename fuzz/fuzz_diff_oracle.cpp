/// libFuzzer entry for the differential oracle: the input decodes (totally)
/// into an update trace — announces, withdrawals, session drops, and
/// cross-participant steering — that is replayed through the oracle's
/// standing equivalences (fast path, parallel compile, crash recovery,
/// partitioning, classification, batching, safety verification, and
/// change-driven re-advertisement). The custom
/// mutator works on the decoded trace — resizing the exchange,
/// adding/removing/perturbing ops — so every mutant is a semantically
/// meaningful trace rather than a reframed byte string.

#include <algorithm>
#include <cstdint>

#include "fuzz/diff_oracle.hpp"
#include "fuzz/harness.hpp"
#include "fuzz/mutator.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return sdx::fuzz::run_diff_oracle(data, size);
}

extern "C" std::size_t LLVMFuzzerCustomMutator(std::uint8_t* data,
                                               std::size_t size,
                                               std::size_t max_size,
                                               unsigned int seed) {
  using sdx::fuzz::Trace;
  using sdx::fuzz::TraceOp;

  sdx::net::SplitMix64 rng(seed);
  Trace t = sdx::fuzz::decode_trace({data, size});

  switch (rng.below(6)) {
    case 0:  // resize the exchange
      t.participants = static_cast<std::uint8_t>(rng());
      t.prefixes = static_cast<std::uint8_t>(rng());
      break;
    case 1: {  // append an op
      TraceOp op;
      op.kind = static_cast<TraceOp::Kind>(rng.below(4));
      op.participant = static_cast<std::uint8_t>(rng());
      op.prefix = static_cast<std::uint8_t>(rng());
      op.variant = static_cast<std::uint8_t>(rng());
      if (t.ops.size() < sdx::fuzz::kMaxTraceOps) t.ops.push_back(op);
      break;
    }
    case 2:  // drop an op
      if (!t.ops.empty()) t.ops.erase(t.ops.begin() + rng.below(t.ops.size()));
      break;
    case 3:  // duplicate an op (re-announce churn)
      if (!t.ops.empty() && t.ops.size() < sdx::fuzz::kMaxTraceOps) {
        t.ops.push_back(t.ops[rng.below(t.ops.size())]);
      }
      break;
    case 4:  // perturb one op in place
      if (!t.ops.empty()) {
        TraceOp& op = t.ops[rng.below(t.ops.size())];
        switch (rng.below(4)) {
          case 0: op.kind = static_cast<TraceOp::Kind>(rng.below(4)); break;
          case 1: op.participant = static_cast<std::uint8_t>(rng()); break;
          case 2: op.prefix = static_cast<std::uint8_t>(rng()); break;
          default: op.variant = static_cast<std::uint8_t>(rng()); break;
        }
      }
      break;
    default:  // swap two ops (ordering sensitivity)
      if (t.ops.size() >= 2) {
        std::swap(t.ops[rng.below(t.ops.size())],
                  t.ops[rng.below(t.ops.size())]);
      }
      break;
  }

  const auto bytes = sdx::fuzz::encode_trace(t);
  const std::size_t n = std::min(bytes.size(), max_size);
  std::copy_n(bytes.begin(), n, data);
  return n;
}
