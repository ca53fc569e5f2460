#ifndef LIOD_WORKLOAD_WORKLOADS_H_
#define LIOD_WORKLOAD_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "kv/request.h"

namespace liod {

/// The six workload types of Section 5.2, plus the six YCSB core mixes used
/// by the concurrent engine benchmarks.
enum class WorkloadType {
  kLookupOnly,  ///< bulkload all keys; point lookups on existing keys
  kScanOnly,    ///< bulkload all keys; 100-element scans from existing keys
  kWriteOnly,   ///< bulkload a prefix sample; insert the rest
  kReadHeavy,   ///< 90% lookups / 10% inserts, pattern (2 ins, 18 lookups)
  kWriteHeavy,  ///< 10% lookups / 90% inserts, pattern (18 ins, 2 lookups)
  kBalanced,    ///< 50/50, pattern (10 ins, 10 lookups)
  // YCSB-style mixes. Key choice is scrambled-Zipfian with parameter
  // WorkloadSpec::zipf_theta (0 = uniform); A/B/C/F operate over the fully
  // bulkloaded dataset, D/E bulkload a sample and insert new keys.
  kYcsbA,  ///< 50% reads / 50% updates of existing keys
  kYcsbB,  ///< 95% reads / 5% updates
  kYcsbC,  ///< 100% reads
  kYcsbD,  ///< 95% reads skewed to the latest inserts / 5% inserts
  kYcsbE,  ///< 95% short scans / 5% inserts
  kYcsbF,  ///< 50% reads / 50% read-modify-writes
};

const char* WorkloadTypeName(WorkloadType type);
/// The paper's six types (Section 5.2), in presentation order.
const std::vector<WorkloadType>& AllWorkloadTypes();
/// The six YCSB core mixes, A through F.
const std::vector<WorkloadType>& YcsbWorkloadTypes();
/// The paper's six types, then the YCSB mixes: every type that has a name.
inline std::vector<WorkloadType> EveryWorkloadType() {
  std::vector<WorkloadType> all = AllWorkloadTypes();
  all.insert(all.end(), YcsbWorkloadTypes().begin(), YcsbWorkloadTypes().end());
  return all;
}
/// Parses any workload name ("balanced", "ycsb-a", ...). Returns false on an
/// unknown name.
bool WorkloadTypeFromName(const std::string& name, WorkloadType* out);

/// True when the workload introduces keys beyond the bulkloaded sample (the
/// paper's write types and YCSB D/E) -- its dataset must cover bulk_keys +
/// operations. False for workloads operating over the fully loaded set
/// (Lookup/Scan-Only, YCSB A/B/C/F), which bulkload the whole dataset.
bool WorkloadGrowsDataset(WorkloadType type);

struct WorkloadSpec {
  WorkloadType type = WorkloadType::kLookupOnly;
  /// Keys bulkloaded before the measured phase. For workloads operating over
  /// the loaded set (Lookup/Scan-Only, YCSB A/B/C/F) the full dataset is
  /// bulkloaded and this field is ignored; for insert-containing workloads
  /// (paper write types, YCSB D/E) the random sample loaded first.
  std::size_t bulk_keys = 1'000'000;
  /// Measured operations (paper: 200K searches / 10M writes).
  std::size_t operations = 100'000;
  std::size_t scan_length = 100;  ///< paper: lookup + scan of next 99
  std::uint64_t seed = 7;
  /// Zipfian skew of YCSB key choice (YCSB default 0.99; 0 = uniform).
  /// Values are clamped to [0, 0.999] during generation -- Gray's Zipf
  /// computation requires theta < 1. Paper workload types always draw
  /// uniformly.
  double zipf_theta = 0.99;
};

struct WorkloadOp {
  enum class Kind : std::uint8_t { kLookup, kInsert, kScan, kReadModifyWrite };
  Kind kind;
  Key key;
  Payload payload;  // for inserts and read-modify-writes

  friend bool operator==(const WorkloadOp&, const WorkloadOp&) = default;
};

/// A workload materialized for M client threads: one shared bulkload set plus
/// one deterministic op tape per thread (thread t's tape is generated from
/// DeriveSeed(spec.seed, t), and insert keys are dealt disjointly across
/// threads so every tape's lookups can be verified against its own inserts).
struct ConcurrentWorkload {
  std::vector<Record> bulk;  // sorted, unique
  std::vector<std::vector<WorkloadOp>> thread_ops;
  std::size_t scan_length = 100;
};

/// Materializes a workload over the given dataset keys (sorted, unique),
/// split across `num_threads` op tapes, following Section 5.2: write
/// workloads bulkload a uniform sample and insert the remaining keys in
/// random order; mixed workloads interleave in the paper's exact patterns;
/// lookups draw uniformly from live keys. YCSB mixes draw keys
/// scrambled-Zipfian and follow the standard read/write fractions documented
/// on WorkloadType. `spec.operations` is the total across threads; the paper
/// figures use one thread.
ConcurrentWorkload BuildConcurrentWorkload(const std::vector<Key>& dataset_keys,
                                           const WorkloadSpec& spec,
                                           std::size_t num_threads);

/// The kv::Request equivalent of one workload op (scans carry the workload's
/// scan_length, saturated at UINT32_MAX). The runner translates its tapes
/// through this, so the tape vocabulary and the unified KV vocabulary cannot
/// drift apart.
kv::Request ToRequest(const WorkloadOp& op, std::size_t scan_length);

}  // namespace liod

#endif  // LIOD_WORKLOAD_WORKLOADS_H_
