#ifndef LIOD_SERVER_PROTOCOL_H_
#define LIOD_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "kv/request.h"

namespace liod::server {

/// Length-prefixed binary framing of kv::Request/Response batches. All
/// integers are little-endian. One frame is
///
///   u32 body_len | body
///
/// where body_len counts the body bytes only (not the prefix itself). A
/// request body is
///
///   u32 tag | u32 op_count | op_count * { u8 kind, u32 scan_count,
///                                         u64 key, u64 payload }
///
/// (21 bytes per op) and a response body is
///
///   u32 tag | u32 op_count | op_count * { u8 code, u8 found, u64 payload,
///                                         u32 record_count,
///                                         record_count * { u64 key,
///                                                          u64 payload } }
///
/// The tag is an opaque client token echoed verbatim in the response (the
/// memcached "opaque"): a client re-matches pipelined responses by tag, not
/// by position (KvServer happens to answer each connection in send order).
/// Response `code` bytes are Status::Code numeric values transported 1:1
/// (common/status.h documents the taxonomy as append-only for exactly this
/// reason).
///
/// Robustness contract (enforced by the fuzz tests): a malformed body --
/// bad op kind, op_count/body_len mismatch, oversized scan_count -- decodes
/// to an error Status that the server answers with an all-ops error response
/// before closing; a truncated length prefix or oversized frame can only be
/// handled by dropping the connection. Nothing a peer sends may crash the
/// server.

/// Hard ceiling on one frame's body bytes: covers the worst legal response
/// (kMaxBatchOps ops of capped scans) while keeping a hostile length prefix
/// from allocating unbounded memory.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;
/// Most ops one request frame may carry.
inline constexpr std::uint32_t kMaxBatchOps = 4096;
/// Largest accepted scan_count -- per op AND summed over a request frame, so
/// the worst legal response stays far below kMaxFrameBytes.
inline constexpr std::uint32_t kMaxScanCount = 65536;

/// Bytes of one encoded request op.
inline constexpr std::size_t kRequestOpBytes = 1 + 4 + 8 + 8;
/// Fixed bytes of one encoded response op (before its records).
inline constexpr std::size_t kResponseOpFixedBytes = 1 + 1 + 8 + 4;

/// Appends the body of a request frame (tag + ops) to `out` WITHOUT the
/// length prefix; FrameAndSend-style callers prepend it. Fails on an
/// oversized batch.
Status EncodeRequestBody(std::uint32_t tag, std::span<const kv::Request> requests,
                         std::vector<std::byte>* out);

/// Parses a request body. On success fills `tag` and `requests`. Any
/// malformed content (unknown op kind, count mismatch, oversized
/// scan_count/batch) is kInvalidArgument.
Status DecodeRequestBody(std::span<const std::byte> body, std::uint32_t* tag,
                         std::vector<kv::Request>* requests);

/// Appends the body of a response frame to `out` (no length prefix).
Status EncodeResponseBody(std::uint32_t tag, std::span<const kv::Response> responses,
                          std::vector<std::byte>* out);

/// Parses a response body (client side). Unknown code bytes are preserved
/// numerically -- the taxonomy is append-only, so a newer server's code
/// still round-trips.
Status DecodeResponseBody(std::span<const std::byte> body, std::uint32_t* tag,
                          std::vector<kv::Response>* responses);

/// Encodes a complete frame: length prefix + body. `body` must already be
/// a valid encoded body.
void FrameBody(std::span<const std::byte> body, std::vector<std::byte>* out);

/// Builds an all-ops-same-code response body (admission rejections: every op
/// of the batch gets `code`, no payloads). Convenience shared by server shed
/// paths and tests.
void EncodeRejectionBody(std::uint32_t tag, std::size_t op_count, Status::Code code,
                         std::vector<std::byte>* out);

// ---------------------------------------------------------------------------
// Stats admin op (append-only protocol extension).
//
// A stats request is a NORMAL one-op request frame whose single op carries
// the reserved kind byte kStatsOpKind -- a byte kv::OpKindValid rejects, so
// a server that predates this extension answers it exactly like any unknown
// op kind: a kInvalidArgument rejection body on a surviving connection.
// That pre-existing behavior IS the downgrade path; no handshake or version
// negotiation is needed, and a new client maps the rejection to
// kUnimplemented (KvClient::Stats).
//
// A stats response body is
//
//   u32 tag | u32 kStatsResponseMarker | u32 json_len | json_len JSON bytes
//
// where the marker occupies the op_count slot of a normal response and is
// far above kMaxBatchOps, so the two body shapes can never be confused: a
// new client probing an old server sees op_count <= kMaxBatchOps and knows
// it got a plain (rejection) response.

/// Reserved request op kind byte carrying the stats op.
inline constexpr std::uint8_t kStatsOpKind = 0xFF;
/// op_count sentinel marking a stats response body (>> kMaxBatchOps).
inline constexpr std::uint32_t kStatsResponseMarker = 0xFFFFFFFFu;

/// Appends a stats request body (one kStatsOpKind op) to `out`, no length
/// prefix.
void EncodeStatsRequestBody(std::uint32_t tag, std::vector<std::byte>* out);

/// True iff `body` is exactly a stats request (one op, kind kStatsOpKind).
/// Servers check this BEFORE DecodeRequestBody, which rejects the reserved
/// kind.
bool IsStatsRequestBody(std::span<const std::byte> body);

/// Appends a stats response body carrying `json` to `out`, no length prefix.
/// Fails only when the JSON would overflow the frame ceiling.
Status EncodeStatsResponseBody(std::uint32_t tag, const std::string& json,
                               std::vector<std::byte>* out);

/// Parses a stats response body into `tag` and `json`. A well-formed NORMAL
/// response body (op_count <= kMaxBatchOps -- an old server's rejection)
/// returns kUnimplemented so the client can report the downgrade; anything
/// else malformed is kInvalidArgument.
Status DecodeStatsResponseBody(std::span<const std::byte> body, std::uint32_t* tag,
                               std::string* json);

}  // namespace liod::server

#endif  // LIOD_SERVER_PROTOCOL_H_
