#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace perfbench {

using liod::kv::OpKind;

std::uint64_t Mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t SplitMix::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  return Mix64(state_);
}

std::uint64_t SplitMix::Bounded(std::uint64_t bound) {
  return static_cast<std::uint64_t>((static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double SplitMix::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

std::vector<Key> FbLikeKeys(std::size_t n, std::uint64_t seed) {
  SplitMix rng(seed);
  std::vector<Key> keys;
  keys.reserve(n);
  Key current = 1 + rng.Bounded(1000);
  unsigned scale_bits = 1;
  while (keys.size() < n) {
    if (rng.Uniform() < 0.025) scale_bits = 1 + static_cast<unsigned>(rng.Bounded(30));
    current += 1 + rng.Bounded(std::uint64_t{1} << scale_bits);
    keys.push_back(current);
  }
  return keys;
}

ScrambledZipf::ScrambledZipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  double zetan = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan);
}

std::uint64_t ScrambledZipf::Next(SplitMix& rng) const {
  const double u = rng.Uniform();
  const double uz = u * zetan_;
  std::uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<std::uint64_t>(static_cast<double>(n_) *
                                      std::pow(eta_ * u - eta_ + 1.0, alpha_));
    rank = std::min(rank, n_ - 1);
  }
  return Mix64(rank) % n_;
}

namespace {

class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

}  // namespace

Inputs MakeInputs(const InputSpec& spec, std::uint64_t seed) {
  SplitMix rng(seed);
  const std::vector<Key> keys = FbLikeKeys(spec.keys, rng.Next());
  Inputs in;
  in.tapes.resize(spec.threads);

  std::vector<Key> rest;
  if (spec.bulk >= keys.size()) {
    in.bulk.reserve(keys.size());
    for (Key k : keys) in.bulk.push_back(Record{k, StoredPayload(k, 0)});
  } else {
    // After a Fisher-Yates shuffle the first `bulk` keys are a uniform
    // sample and the rest, in random order, are the keys to insert.
    std::vector<Key> shuffled = keys;
    for (std::size_t i = 0; i < shuffled.size(); ++i) {
      std::swap(shuffled[i], shuffled[i + rng.Bounded(shuffled.size() - i)]);
    }
    std::vector<Key> sample(shuffled.begin(), shuffled.begin() + spec.bulk);
    std::sort(sample.begin(), sample.end());
    for (Key k : sample) in.bulk.push_back(Record{k, StoredPayload(k, 0)});
    rest.assign(shuffled.begin() + spec.bulk, shuffled.end());
  }

  if (!rest.empty()) {
    in.tapes_wrap = false;
    // bounds[t - 1] is the first key of bulkload slice t.
    std::vector<Key> bounds;
    for (std::size_t t = 1; t < spec.threads; ++t) {
      bounds.push_back(in.bulk[t * in.bulk.size() / spec.threads].key);
    }
    for (std::size_t i = 0; i < rest.size(); ++i) {
      const std::size_t t =
          spec.tape_per_slice
              ? static_cast<std::size_t>(std::upper_bound(bounds.begin(), bounds.end(), rest[i]) -
                                         bounds.begin())
              : i % spec.threads;
      in.tapes[t].push_back(Op{OpKind::kInsert, rest[i], StoredPayload(rest[i], 1)});
    }
  } else {
    const std::uint64_t n = in.bulk.size();
    std::optional<ScrambledZipf> zipf;
    if (spec.zipf_theta > 0.0) zipf.emplace(n, spec.zipf_theta);
    for (std::size_t t = 0; t < spec.threads; ++t) {
      SplitMix trng(rng.Next());
      Tape& tape = in.tapes[t];
      tape.reserve(spec.tape_len);
      const std::uint64_t lo = spec.tape_per_slice ? t * n / spec.threads : 0;
      const std::uint64_t hi = spec.tape_per_slice ? (t + 1) * n / spec.threads : n;
      for (std::size_t i = 0; i < spec.tape_len; ++i) {
        const std::uint64_t idx = zipf ? zipf->Next(trng) : lo + trng.Bounded(hi - lo);
        const Key key = in.bulk[idx].key;
        if (spec.upsert_share > 0.0 && trng.Uniform() < spec.upsert_share) {
          const auto version = static_cast<std::uint8_t>(1 + trng.Bounded(255));
          tape.push_back(Op{OpKind::kInsert, key, StoredPayload(key, version)});
        } else {
          tape.push_back(Op{OpKind::kLookup, key, 0});
        }
      }
    }
  }

  Fnv1a fnv;
  for (const Record& r : in.bulk) {
    fnv.Add(r.key);
    fnv.Add(r.payload);
  }
  for (const Tape& tape : in.tapes) {
    for (const Op& op : tape) {
      fnv.Add(static_cast<std::uint64_t>(op.kind));
      fnv.Add(op.key);
      fnv.Add(op.payload);
    }
  }
  in.digest = fnv.value();
  return in;
}

Tape InterleaveExecuted(const Inputs& inputs, std::uint64_t offset,
                        const std::vector<std::uint64_t>& ops) {
  Tape out;
  std::uint64_t total = 0;
  std::uint64_t longest = 0;
  for (std::uint64_t n : ops) {
    total += n;
    longest = std::max(longest, n);
  }
  out.reserve(total);
  for (std::uint64_t i = 0; i < longest; ++i) {
    for (std::size_t t = 0; t < ops.size(); ++t) {
      if (i < ops[t]) {
        const Tape& tape = inputs.tapes[t];
        out.push_back(tape[(offset + i) % tape.size()]);
      }
    }
  }
  return out;
}

}  // namespace perfbench
