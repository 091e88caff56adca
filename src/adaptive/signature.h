// Workload signatures: the cache key of the adaptive policy governor.
//
// Calibration (adaptive/calibrator.h) measures every candidate
// ExecPolicy × inflight grid point on a sampled prefix of the real query.
// That measurement is worth reusing whenever "the same kind of query" is
// submitted again, so each op describes itself as a WorkloadSignature:
// the op kind (a hash of its type name — stable within one process, unique
// per instantiated operation type), the input-cardinality bucket (log2, so
// 60k and 62k probes share one calibration but 1k and 1M do not), and the
// per-lookup state footprint (a proxy for payload size: wider state means
// fewer useful in-flight slots per L1).  The Executor / QueryScheduler
// derive a signature automatically from the submitted operation type.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

#include "common/hash.h"

namespace amac {

struct WorkloadSignature {
  /// Hash of the op-kind name; 0 means "unknown" — the query still adapts,
  /// but its calibration is not cached.
  uint64_t op_kind = 0;
  /// ceil-log2 bucket of the input cardinality (bit width of n).
  uint32_t cardinality_log2 = 0;
  /// Per-lookup state footprint in bytes (sizeof(Op::State) by default).
  uint32_t payload_bytes = 0;

  bool valid() const { return op_kind != 0; }

  /// The cache key: all three fields mixed into one 64-bit value.
  uint64_t Key() const {
    uint64_t k = op_kind;
    k = Mix64(k ^ (uint64_t{cardinality_log2} << 32 | payload_bytes));
    return k;
  }

  /// FNV-1a over the kind name (e.g. a typeid().name() or a caller-chosen
  /// label), never returning the reserved 0.
  static uint64_t HashKind(std::string_view name) {
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h == 0 ? 1 : h;
  }

  static uint32_t CardinalityBucket(uint64_t num_inputs) {
    return static_cast<uint32_t>(std::bit_width(num_inputs));
  }

  static WorkloadSignature Make(std::string_view kind_name,
                                uint64_t num_inputs,
                                uint32_t payload_bytes) {
    WorkloadSignature sig;
    sig.op_kind = HashKind(kind_name);
    sig.cardinality_log2 = CardinalityBucket(num_inputs);
    sig.payload_bytes = payload_bytes;
    return sig;
  }
};

inline bool operator==(const WorkloadSignature& a,
                       const WorkloadSignature& b) {
  return a.op_kind == b.op_kind &&
         a.cardinality_log2 == b.cardinality_log2 &&
         a.payload_bytes == b.payload_bytes;
}

}  // namespace amac
