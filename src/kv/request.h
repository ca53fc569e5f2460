#ifndef LIOD_KV_REQUEST_H_
#define LIOD_KV_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace liod::kv {

/// The unified KV operation vocabulary. Every caller in the tree -- the
/// ConcurrentRunner (and through it liod_cli, the paper-figure benches and
/// the examples) and the socket server -- expresses operations as these
/// requests and dispatches them through ONE path: ShardedEngine::Execute,
/// built on kv::ExecuteOnIndex (one bare DiskIndex).
/// Numeric values are the wire encoding (src/server/protocol.h): append-only,
/// never renumber.
enum class OpKind : std::uint8_t {
  kLookup = 0,           ///< point read; hit => kOk, miss => kNotFound
  kInsert = 1,           ///< upsert of (key, payload)
  kDelete = 2,           ///< delete; kUnimplemented without an update buffer
  kScan = 3,             ///< range scan of up to scan_count records from key
  kReadModifyWrite = 4,  ///< YCSB-F: read current value, then upsert payload
};

/// Number of OpKind values (they are dense from 0): sizes per-kind tables.
inline constexpr std::size_t kNumOpKinds = static_cast<std::size_t>(OpKind::kReadModifyWrite) + 1;

/// Stable display name ("lookup", ...); "unknown" for invalid values.
const char* OpKindName(OpKind kind);

/// True for the kinds that mutate the index (insert/delete/rmw): the engine
/// takes the owning shard's latch exclusively for any group containing one.
constexpr bool OpKindIsWrite(OpKind kind) {
  return kind == OpKind::kInsert || kind == OpKind::kDelete ||
         kind == OpKind::kReadModifyWrite;
}

/// Validates a raw byte from the wire. Returns false for values outside the
/// enum (the protocol fuzz contract: garbage op kinds are an error response,
/// never undefined behavior).
constexpr bool OpKindValid(std::uint8_t raw) {
  return raw <= static_cast<std::uint8_t>(OpKind::kReadModifyWrite);
}

/// One KV operation.
struct Request {
  OpKind kind = OpKind::kLookup;
  Key key = 0;
  Payload payload = 0;           ///< kInsert / kReadModifyWrite: value to write
  std::uint32_t scan_count = 0;  ///< kScan: max records (must be > 0)

  friend bool operator==(const Request&, const Request&) = default;
};

/// Per-operation result slot. `code` always reflects the individual op:
/// a lookup miss is kNotFound here even though batch execution continues and
/// the batch-level Status stays Ok for it (kNotFound is an answer, not a
/// failure -- see Status::Code).
struct Response {
  Status::Code code = Status::Code::kOk;
  bool found = false;           ///< kLookup/kRmw: key existed before the op
  Payload payload = 0;          ///< kLookup hit / kRmw: value read
  std::vector<Record> records;  ///< kScan results (empty otherwise)

  /// Clears result state while keeping `records` capacity, so a reused batch
  /// does not reallocate per operation.
  void Reset() {
    code = Status::Code::kOk;
    found = false;
    payload = 0;
    records.clear();
  }
};

/// A batch of requests plus their response slots. Execute resizes
/// `responses` to match `requests`; reusing one RequestBatch across calls
/// amortizes every allocation (the runners drive millions of ops through one
/// batch object).
struct RequestBatch {
  std::vector<Request> requests;
  std::vector<Response> responses;

  void Clear() { requests.clear(); }

  // Convenience appenders (tests, examples).
  void AddLookup(Key key) { requests.push_back({OpKind::kLookup, key, 0, 0}); }
  void AddInsert(Key key, Payload payload) {
    requests.push_back({OpKind::kInsert, key, payload, 0});
  }
  void AddDelete(Key key) { requests.push_back({OpKind::kDelete, key, 0, 0}); }
  void AddScan(Key key, std::uint32_t count) {
    requests.push_back({OpKind::kScan, key, 0, count});
  }
  void AddReadModifyWrite(Key key, Payload payload) {
    requests.push_back({OpKind::kReadModifyWrite, key, payload, 0});
  }
};

}  // namespace liod::kv

#endif  // LIOD_KV_REQUEST_H_
