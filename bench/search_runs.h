#ifndef LIOD_BENCH_SEARCH_RUNS_H_
#define LIOD_BENCH_SEARCH_RUNS_H_

// Shared execution of the Lookup-Only / Scan-Only runs used by Figure 3,
// Figure 4, Table 4, and Table 5: bulkload the full dataset, drop caches,
// execute the sampled operations, and keep exact I/O counters.

#include <map>

#include "bench_common.h"

namespace liod::bench {

struct SearchRun {
  ConcurrentRunResult lookup;
  ConcurrentRunResult scan;
};

/// Runs Lookup-Only and Scan-Only (Section 5.2) for one index on one dataset.
inline SearchRun RunSearchPair(const std::string& index_name, const std::string& dataset,
                               const BenchArgs& args, const IndexOptions& options) {
  const auto keys = MakeDataset(dataset, args.search_keys, args.seed);
  SearchRun out;
  for (int phase = 0; phase < 2; ++phase) {
    ShardedEngine engine({.index_name = index_name, .index = options});
    WorkloadSpec spec;
    spec.type = phase == 0 ? WorkloadType::kLookupOnly : WorkloadType::kScanOnly;
    spec.operations = args.search_ops;
    spec.seed = args.seed + 1;
    (phase == 0 ? out.lookup : out.scan) = MustRun(&engine, BuildConcurrentWorkload(keys, spec, 1));
  }
  return out;
}

}  // namespace liod::bench

#endif  // LIOD_BENCH_SEARCH_RUNS_H_
