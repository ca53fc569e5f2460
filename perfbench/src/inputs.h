#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

// Benchmark-owned input generation. Keys, bulkload sets and per-client op
// tapes are derived from --seed here, not through src/workload, so the
// requests a run replays stay fixed while the library's own generators are
// refactored. Everything is a pure function of (spec, seed).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "kv/request.h"

namespace perfbench {

using liod::Key;
using liod::Payload;
using liod::Record;

/// SplitMix64: small, fast, and identical on every platform.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  /// Uniform in [0, bound); bound > 0. Multiply-shift (Lemire), bias < 2^-64
  /// per draw for the bounds used here.
  std::uint64_t Bounded(std::uint64_t bound);
  double Uniform();  ///< [0, 1)

 private:
  std::uint64_t state_;
};

/// Stateless 64-bit finaliser (the SplitMix64 output function).
std::uint64_t Mix64(std::uint64_t x);

/// Payloads carry a version in the top byte and a key-derived check value in
/// the low 56 bits: the bulkload stores version 0, upserts versions 1..255.
/// A lookup answer is correct iff its low 56 bits match the key, which is
/// exactly "one of the values the generator could have stored for the key"
/// whatever order concurrent upserts landed in.
inline constexpr Payload kCheckMask = (Payload{1} << 56) - 1;
inline Payload StoredPayload(Key key, std::uint8_t version) {
  return (Mix64(key) & kCheckMask) | (Payload{version} << 56);
}
inline bool PayloadValid(Key key, Payload payload) {
  return (payload & kCheckMask) == (Mix64(key) & kCheckMask);
}

/// `n` sorted unique keys shaped like Facebook user ids: cumulative gaps
/// whose scale switches regime (2^1..2^30) every ~40 keys on average, so the
/// local key density keeps changing -- the hardest shape for piecewise
/// linear models.
std::vector<Key> FbLikeKeys(std::size_t n, std::uint64_t seed);

/// YCSB's scrambled Zipfian: Zipf(theta) ranks over [0, n), hashed so the hot
/// items are spread across the key space (and therefore across shards).
class ScrambledZipf {
 public:
  ScrambledZipf(std::uint64_t n, double theta);
  std::uint64_t Next(SplitMix& rng) const;

 private:
  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
};

struct Op {
  liod::kv::OpKind kind = liod::kv::OpKind::kLookup;
  Key key = 0;
  Payload payload = 0;
};
using Tape = std::vector<Op>;

/// Shape of one workload's inputs.
struct InputSpec {
  std::size_t keys = 0;        ///< fb-like keys generated
  std::size_t bulk = 0;        ///< bulkloaded (uniform sample when < keys)
  std::size_t threads = 1;     ///< one tape per client
  std::size_t tape_len = 0;    ///< ops per tape (read/mix tapes; they wrap)
  double zipf_theta = 0.0;     ///< 0 = uniform
  double upsert_share = 0.0;   ///< share of upserts in read/mix tapes
  /// Tape t holds only keys in the t-th of `threads` equal-count slices of
  /// the bulkload set, which is the key range of shard t when the engine has
  /// one shard per client: uniform reads drawn from that slice, or the
  /// non-bulkloaded keys that fall into it. Not for Zipfian tapes.
  bool tape_per_slice = false;
};

struct Inputs {
  std::vector<Record> bulk;  ///< sorted by key, payload version 0
  /// Read/mix tapes (bulk == keys) may be replayed cyclically. Insert tapes
  /// (bulk < keys) hold the non-bulkloaded keys disjointly, once each, in
  /// random order.
  std::vector<Tape> tapes;
  bool tapes_wrap = true;
  std::uint64_t digest = 0;  ///< FNV-1a over every bulk record and tape op
};

Inputs MakeInputs(const InputSpec& spec, std::uint64_t seed);

/// Ops [offset, offset + ops[t]) of each tape t (cyclically), interleaved
/// round-robin into one tape: the waterfall replays a multi-client window's
/// ops on one thread.
Tape InterleaveExecuted(const Inputs& inputs, std::uint64_t offset,
                        const std::vector<std::uint64_t>& ops);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
