#include "workload/workloads.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/random.h"

namespace liod {

const char* WorkloadTypeName(WorkloadType type) {
  switch (type) {
    case WorkloadType::kLookupOnly: return "lookup-only";
    case WorkloadType::kScanOnly: return "scan-only";
    case WorkloadType::kWriteOnly: return "write-only";
    case WorkloadType::kReadHeavy: return "read-heavy";
    case WorkloadType::kWriteHeavy: return "write-heavy";
    case WorkloadType::kBalanced: return "balanced";
    case WorkloadType::kYcsbA: return "ycsb-a";
    case WorkloadType::kYcsbB: return "ycsb-b";
    case WorkloadType::kYcsbC: return "ycsb-c";
    case WorkloadType::kYcsbD: return "ycsb-d";
    case WorkloadType::kYcsbE: return "ycsb-e";
    case WorkloadType::kYcsbF: return "ycsb-f";
  }
  return "unknown";
}

const std::vector<WorkloadType>& AllWorkloadTypes() {
  static const std::vector<WorkloadType>* types = new std::vector<WorkloadType>{
      WorkloadType::kLookupOnly,  WorkloadType::kScanOnly, WorkloadType::kWriteOnly,
      WorkloadType::kReadHeavy, WorkloadType::kWriteHeavy, WorkloadType::kBalanced};
  return *types;
}

const std::vector<WorkloadType>& YcsbWorkloadTypes() {
  static const std::vector<WorkloadType>* types = new std::vector<WorkloadType>{
      WorkloadType::kYcsbA, WorkloadType::kYcsbB, WorkloadType::kYcsbC,
      WorkloadType::kYcsbD, WorkloadType::kYcsbE, WorkloadType::kYcsbF};
  return *types;
}

bool WorkloadTypeFromName(const std::string& name, WorkloadType* out) {
  for (const auto* list : {&AllWorkloadTypes(), &YcsbWorkloadTypes()}) {
    for (WorkloadType t : *list) {
      if (name == WorkloadTypeName(t)) {
        *out = t;
        return true;
      }
    }
  }
  return false;
}

namespace {
bool OperatesOverLoadedSet(WorkloadType type);
}  // namespace

bool WorkloadGrowsDataset(WorkloadType type) { return !OperatesOverLoadedSet(type); }

namespace {

/// Mixed-workload interleaving patterns (Section 5.2): (inserts, lookups)
/// per round.
void PatternFor(WorkloadType type, std::size_t* inserts, std::size_t* lookups) {
  switch (type) {
    case WorkloadType::kReadHeavy: *inserts = 2; *lookups = 18; return;
    case WorkloadType::kWriteHeavy: *inserts = 18; *lookups = 2; return;
    case WorkloadType::kBalanced: *inserts = 10; *lookups = 10; return;
    default: *inserts = 0; *lookups = 0; return;
  }
}

bool IsYcsb(WorkloadType type) {
  switch (type) {
    case WorkloadType::kYcsbA:
    case WorkloadType::kYcsbB:
    case WorkloadType::kYcsbC:
    case WorkloadType::kYcsbD:
    case WorkloadType::kYcsbE:
    case WorkloadType::kYcsbF:
      return true;
    default:
      return false;
  }
}

/// True when the workload bulkloads the full dataset and never introduces new
/// keys: the paper's search workloads and the YCSB read/update mixes.
bool OperatesOverLoadedSet(WorkloadType type) {
  switch (type) {
    case WorkloadType::kLookupOnly:
    case WorkloadType::kScanOnly:
    case WorkloadType::kYcsbA:
    case WorkloadType::kYcsbB:
    case WorkloadType::kYcsbC:
    case WorkloadType::kYcsbF:
      return true;
    default:
      return false;
  }
}

/// Fraction of write operations (updates, inserts, or RMWs) in a YCSB mix.
double YcsbWriteFraction(WorkloadType type) {
  switch (type) {
    case WorkloadType::kYcsbA:
    case WorkloadType::kYcsbF:
      return 0.5;
    case WorkloadType::kYcsbB:
    case WorkloadType::kYcsbD:
    case WorkloadType::kYcsbE:
      return 0.05;
    default:
      return 0.0;  // kYcsbC
  }
}

/// Salt for YCSB's ScrambledZipfian: the Zipf rank is hashed before indexing
/// so the hottest keys are spread across the key space instead of clustering
/// at the low end (which would also cluster them on one engine shard).
constexpr std::uint64_t kZipfScrambleSalt = 0x3C79AC492BA7B653ULL;

/// YCSB-D "latest" distribution: reads are Zipf-skewed toward the most
/// recently inserted keys within this window.
constexpr std::uint64_t kLatestWindow = 1024;

struct TapeParams {
  WorkloadType type = WorkloadType::kLookupOnly;
  std::size_t count = 0;
  double zipf_theta = 0.99;
  Key synth_base = 0;  ///< largest dataset key; synthesized inserts go past it
  std::size_t thread_index = 0;  ///< this tape's position in the thread group
  std::size_t num_threads = 1;   ///< tape count (strides synthesized keys)
  /// Shared loaded-set Zipf constants (zeta is computed once per workload
  /// build, not once per tape). Null when the type never picks loaded keys
  /// or the loaded set is empty.
  const ZipfGenerator* zipf_proto = nullptr;
};

/// Generates one operation tape. `loaded` holds the keys known to be present
/// when the tape starts (the bulkloaded set, shared read-only across tapes);
/// keys this tape inserts are tracked locally, so lookups only target keys
/// guaranteed live even when other tapes run concurrently. `share` is the
/// tape's private slice of the insert pool, consumed in order.
std::vector<WorkloadOp> GenerateTape(const TapeParams& p, Rng rng,
                                     const std::vector<Key>& loaded,
                                     std::vector<Key> share) {
  using Kind = WorkloadOp::Kind;
  std::vector<WorkloadOp> ops;
  ops.reserve(p.count);
  if (p.count == 0) return ops;
  // Loaded-set types always bulkload the full (non-empty) dataset; the
  // insert-containing types tolerate an empty bulkload sample (bulk_keys=0
  // benchmarks inserts into an empty index).
  if (loaded.empty() && OperatesOverLoadedSet(p.type)) return ops;

  const std::size_t loaded_count = loaded.size();
  std::vector<Key> appended;  // keys this tape has inserted so far
  auto live_size = [&]() { return loaded_count + appended.size(); };
  auto live_at = [&](std::size_t i) {
    return i < loaded_count ? loaded[i] : appended[i - loaded_count];
  };

  const bool scrambled = IsYcsb(p.type) && p.zipf_theta > 0.0;
  // Seeds are drawn unconditionally so the tape's random stream does not
  // depend on which generators the workload type needs.
  const std::uint64_t zipf_seed = rng.Next();
  const std::uint64_t latest_seed = rng.Next();
  std::optional<ZipfGenerator> zipf;
  if (p.zipf_proto != nullptr) zipf.emplace(*p.zipf_proto, zipf_seed);
  std::optional<ZipfGenerator> latest;
  if (p.type == WorkloadType::kYcsbD) {
    latest.emplace(kLatestWindow, p.zipf_theta, latest_seed);
  }

  std::size_t share_next = 0;
  std::uint64_t synth_count = 0;
  auto next_insert_key = [&]() -> Key {
    if (share_next < share.size()) return share[share_next++];
    // Pool exhausted: synthesize fresh keys beyond the dataset range,
    // strided by thread so tapes stay disjoint.
    return p.synth_base + 1 +
           (synth_count++ * p.num_threads + p.thread_index) * 37;
  };
  auto pick_loaded = [&]() -> Key {
    const std::uint64_t rank = zipf->Next();
    const std::size_t idx =
        scrambled ? static_cast<std::size_t>(DeriveSeed(kZipfScrambleSalt, rank) % loaded_count)
                  : static_cast<std::size_t>(rank);
    return loaded[idx];
  };

  switch (p.type) {
    case WorkloadType::kLookupOnly:
    case WorkloadType::kScanOnly:
    case WorkloadType::kYcsbC: {
      const Kind kind = p.type == WorkloadType::kScanOnly ? Kind::kScan : Kind::kLookup;
      for (std::size_t i = 0; i < p.count; ++i) {
        ops.push_back(WorkloadOp{kind, pick_loaded(), 0});
      }
      return ops;
    }
    case WorkloadType::kYcsbA:
    case WorkloadType::kYcsbB:
    case WorkloadType::kYcsbF: {
      const double write_fraction = YcsbWriteFraction(p.type);
      const Kind write_kind =
          p.type == WorkloadType::kYcsbF ? Kind::kReadModifyWrite : Kind::kInsert;
      for (std::size_t i = 0; i < p.count; ++i) {
        const Key k = pick_loaded();
        if (rng.NextDouble() < write_fraction) {
          ops.push_back(WorkloadOp{write_kind, k, PayloadFor(k)});
        } else {
          ops.push_back(WorkloadOp{Kind::kLookup, k, 0});
        }
      }
      return ops;
    }
    case WorkloadType::kYcsbD:
    case WorkloadType::kYcsbE: {
      const double write_fraction = YcsbWriteFraction(p.type);
      for (std::size_t i = 0; i < p.count; ++i) {
        // With an empty bulkload sample there is nothing to read (D) or to
        // start a scan from (E) until this tape has inserted something.
        const bool must_insert =
            p.type == WorkloadType::kYcsbD ? live_size() == 0 : !zipf.has_value();
        if (must_insert || rng.NextDouble() < write_fraction) {
          const Key k = next_insert_key();
          ops.push_back(WorkloadOp{Kind::kInsert, k, PayloadFor(k)});
          appended.push_back(k);
        } else if (p.type == WorkloadType::kYcsbD) {
          const std::uint64_t off = latest->Next();
          const std::size_t idx =
              live_size() - 1 - std::min<std::size_t>(off, live_size() - 1);
          ops.push_back(WorkloadOp{Kind::kLookup, live_at(idx), 0});
        } else {  // E: short scan with a Zipfian start over the loaded set
          ops.push_back(WorkloadOp{Kind::kScan, pick_loaded(), 0});
        }
      }
      return ops;
    }
    default:
      break;  // paper write workloads below
  }

  // Paper write workloads: the Section 5.2 interleaving patterns; lookups
  // draw uniformly from keys this tape knows are live.
  std::size_t per_round_inserts = 0, per_round_lookups = 0;
  PatternFor(p.type, &per_round_inserts, &per_round_lookups);
  if (p.type == WorkloadType::kWriteOnly) {
    per_round_inserts = 1;
    per_round_lookups = 0;
  }
  while (ops.size() < p.count) {
    for (std::size_t i = 0; i < per_round_inserts && ops.size() < p.count; ++i) {
      const Key k = next_insert_key();
      ops.push_back(WorkloadOp{Kind::kInsert, k, PayloadFor(k)});
      appended.push_back(k);
    }
    for (std::size_t i = 0; i < per_round_lookups && ops.size() < p.count; ++i) {
      ops.push_back(WorkloadOp{Kind::kLookup, live_at(rng.NextBounded(live_size())), 0});
    }
  }
  return ops;
}

}  // namespace

ConcurrentWorkload BuildConcurrentWorkload(const std::vector<Key>& dataset_keys,
                                           const WorkloadSpec& spec,
                                           std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  ConcurrentWorkload out;
  out.scan_length = spec.scan_length;
  if (dataset_keys.empty()) {  // nothing to load or insert: empty tapes
    out.thread_ops.resize(num_threads);
    return out;
  }

  // Bulk/pool derivation stream, shared by all threads (the bulkload set must
  // not depend on the thread count).
  Rng rng(spec.seed);
  std::vector<Key> bulk_keys;
  std::vector<Key> insert_pool;
  if (OperatesOverLoadedSet(spec.type)) {
    bulk_keys = dataset_keys;
  } else {
    const std::size_t bulk_count = std::min(spec.bulk_keys, dataset_keys.size());
    std::vector<std::uint32_t> order(dataset_keys.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<std::uint32_t>(i);
    Shuffle(order, rng);
    bulk_keys.resize(bulk_count);
    for (std::size_t i = 0; i < bulk_count; ++i) bulk_keys[i] = dataset_keys[order[i]];
    std::sort(bulk_keys.begin(), bulk_keys.end());
    insert_pool.reserve(dataset_keys.size() - bulk_count);
    for (std::size_t i = bulk_count; i < order.size(); ++i) {
      insert_pool.push_back(dataset_keys[order[i]]);
    }
  }
  out.bulk.reserve(bulk_keys.size());
  for (Key k : bulk_keys) out.bulk.push_back(Record{k, PayloadFor(k)});

  // Deal the insert pool round-robin so threads insert disjoint keys.
  std::vector<std::vector<Key>> shares(num_threads);
  for (std::size_t i = 0; i < insert_pool.size(); ++i) {
    shares[i % num_threads].push_back(insert_pool[i]);
  }

  // Gray's Zipf computation requires theta < 1 (alpha = 1/(1-theta)).
  const double zipf_theta = std::clamp(spec.zipf_theta, 0.0, 0.999);
  // Loaded-set Zipf constants: the zeta sum is O(min(n, 10M)) pow calls, so
  // compute it once here and let every tape reseed a copy. Only built for
  // types that pick keys from the loaded set (D reads "latest" instead).
  std::optional<ZipfGenerator> zipf_proto;
  if ((OperatesOverLoadedSet(spec.type) || spec.type == WorkloadType::kYcsbE) &&
      !bulk_keys.empty()) {
    zipf_proto.emplace(bulk_keys.size(), IsYcsb(spec.type) ? zipf_theta : 0.0, 0);
  }

  out.thread_ops.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    TapeParams params;
    params.type = spec.type;
    params.count =
        spec.operations / num_threads + (t < spec.operations % num_threads ? 1 : 0);
    params.zipf_theta = zipf_theta;
    params.synth_base = dataset_keys.back();
    params.thread_index = t;
    params.num_threads = num_threads;
    params.zipf_proto = zipf_proto.has_value() ? &*zipf_proto : nullptr;
    // Thread t draws from its own deterministic stream DeriveSeed(seed, t).
    out.thread_ops.push_back(
        GenerateTape(params, Rng(DeriveSeed(spec.seed, t)), bulk_keys, std::move(shares[t])));
  }
  return out;
}

kv::Request ToRequest(const WorkloadOp& op, std::size_t scan_length) {
  kv::Request req;
  req.key = op.key;
  switch (op.kind) {
    case WorkloadOp::Kind::kLookup:
      req.kind = kv::OpKind::kLookup;
      break;
    case WorkloadOp::Kind::kInsert:
      req.kind = kv::OpKind::kInsert;
      req.payload = op.payload;
      break;
    case WorkloadOp::Kind::kScan:
      req.kind = kv::OpKind::kScan;
      req.scan_count = static_cast<std::uint32_t>(
          std::min<std::size_t>(scan_length, std::numeric_limits<std::uint32_t>::max()));
      break;
    case WorkloadOp::Kind::kReadModifyWrite:
      req.kind = kv::OpKind::kReadModifyWrite;
      req.payload = op.payload;
      break;
  }
  return req;
}

}  // namespace liod
