#ifndef LIOD_KV_EXECUTE_H_
#define LIOD_KV_EXECUTE_H_

#include <span>

#include "common/status.h"
#include "core/index.h"
#include "kv/request.h"

namespace liod::kv {

/// THE per-operation dispatch of the tree: executes `requests` against a
/// single DiskIndex, in order, filling `responses` (which must be the same
/// length; each slot is Reset first). ShardedEngine::Execute calls it under
/// the owning shard's latch for every request it routes, the workload runner
/// included (at 1 thread x 1 shard for the paper figures) -- so there is
/// exactly one switch in the codebase that turns an OpKind into index calls.
///
/// Per-op outcomes land in responses[i].code. Execution never stops early:
/// a failed op does not prevent later ops in the span from running (the
/// server's per-op error contract). The returned Status is Ok unless some op
/// hit a hard failure -- any code other than kOk/kNotFound -- in which case
/// the FIRST such failure is returned (with its message) after the whole
/// span has been attempted. kNotFound is an answer, never a batch failure.
///
/// Semantics per kind (identical to the historical ad-hoc call sites):
///  - kLookup: found/payload filled; miss => code kNotFound, found=false.
///  - kInsert: upsert of (key, payload).
///  - kDelete: index->Delete (kUnimplemented without an update buffer).
///  - kScan: up to scan_count records from key's successor range into
///    records; scan_count == 0 => kInvalidArgument.
///  - kReadModifyWrite: read current value (found/payload report it), then
///    upsert the request payload -- one lookup plus one insert, the YCSB-F
///    recipe.
Status ExecuteOnIndex(DiskIndex* index, std::span<const Request> requests,
                      std::span<Response> responses);

}  // namespace liod::kv

#endif  // LIOD_KV_EXECUTE_H_
