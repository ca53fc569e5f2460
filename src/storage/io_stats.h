#ifndef LIOD_STORAGE_IO_STATS_H_
#define LIOD_STORAGE_IO_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace liod {

/// Classification of files/blocks for the paper's per-class breakdowns
/// (Table 4 splits fetched blocks into inner vs leaf).
enum class FileClass : std::uint8_t {
  kMeta = 0,   ///< Meta block(s): root address etc. (memory-resident in use).
  kInner = 1,  ///< Inner-node file.
  kLeaf = 2,   ///< Leaf/data-node file.
  kOther = 3,  ///< Auxiliary (e.g. PGM insert buffer).
  kWal = 4,    ///< Durability: write-ahead log + checkpoint files
               ///< (src/recovery/), so WAL overhead is reported separately.
};
inline constexpr int kNumFileClasses = 5;

const char* FileClassName(FileClass klass);

/// A point-in-time copy of the counters; subtract two to get a delta.
struct IoStatsSnapshot {
  std::array<std::uint64_t, kNumFileClasses> reads{};
  std::array<std::uint64_t, kNumFileClasses> writes{};
  /// Buffer-manager counters, also per file class: frame hits and misses
  /// (reads and writes both probe the pool), evictions, and write-backs
  /// (deferred device writes paid at eviction or flush; a subset of writes).
  std::array<std::uint64_t, kNumFileClasses> buffer_hits{};
  std::array<std::uint64_t, kNumFileClasses> buffer_misses{};
  std::array<std::uint64_t, kNumFileClasses> buffer_evictions{};
  std::array<std::uint64_t, kNumFileClasses> buffer_writebacks{};
  /// Logical node visits, incremented by index code (not by the pool):
  std::uint64_t inner_nodes_visited = 0;
  std::uint64_t leaf_nodes_visited = 0;
  /// Shard-latch contention: bumped by the engine when a read finds its
  /// shard latch held by a writer and blocks (always 0 at one thread).
  /// Timing-dependent: two runs of the same tape may count differently, so
  /// it is never tallied per thread (ThreadTally) and counted-I/O pins
  /// compare the other fields. Not device I/O -- the disk model ignores it.
  std::uint64_t read_lock_waits = 0;  ///< blocking shared acquisitions after contention

  std::uint64_t TotalReads() const;
  std::uint64_t TotalWrites() const;
  std::uint64_t TotalIo() const { return TotalReads() + TotalWrites(); }
  std::uint64_t ReadsFor(FileClass klass) const { return reads[static_cast<int>(klass)]; }
  std::uint64_t WritesFor(FileClass klass) const { return writes[static_cast<int>(klass)]; }
  std::uint64_t HitsFor(FileClass klass) const {
    return buffer_hits[static_cast<int>(klass)];
  }
  std::uint64_t MissesFor(FileClass klass) const {
    return buffer_misses[static_cast<int>(klass)];
  }
  std::uint64_t EvictionsFor(FileClass klass) const {
    return buffer_evictions[static_cast<int>(klass)];
  }
  std::uint64_t WritebacksFor(FileClass klass) const {
    return buffer_writebacks[static_cast<int>(klass)];
  }
  std::uint64_t TotalHits() const;
  std::uint64_t TotalMisses() const;
  std::uint64_t TotalEvictions() const;
  std::uint64_t TotalWritebacks() const;

  /// hits / (hits + misses) for one file class; 0 when the class saw no
  /// buffer traffic. Reported directly by the benches and liod_cli so sweeps
  /// never re-derive it from raw counters.
  double HitRateFor(FileClass klass) const;
  /// hits / (hits + misses) across all classes; 0 without buffer traffic.
  double OverallHitRate() const;

  IoStatsSnapshot operator-(const IoStatsSnapshot& rhs) const;
  IoStatsSnapshot& operator+=(const IoStatsSnapshot& rhs);
  friend bool operator==(const IoStatsSnapshot&, const IoStatsSnapshot&) = default;

  std::string ToString() const;
};

/// Mutable counter hub shared by all files of one index. The buffer manager
/// counts device reads/writes and frame hit/miss/evict/writeback here; index
/// code counts logical node visits.
///
/// Counters are relaxed atomics: with a cross-shard shared buffer budget
/// (engine/sharded_engine.h), one shard's eviction can write back another
/// shard's dirty frame and must bump the owning shard's counters while that
/// shard runs its own operation. Each counter is exact; a snapshot() taken
/// concurrently with updates may mix counters from different instants, which
/// only matters for in-flight per-op attribution (documented there).
class IoStats {
 public:
  /// Thread-exact I/O attribution. While a ThreadTally is alive, every
  /// counter bump the CURRENT THREAD performs on `target` is also added to
  /// `*sink` (a plain snapshot, touched only by this thread).
  ///
  /// Why it exists: it is the engine's per-op I/O attribution under both
  /// sides of the shard latch. A snapshot delta around an op is exact only
  /// while the shard latch is held exclusively: parallel readers holding it
  /// shared would each see the others' bumps inside their own delta and
  /// double-count. The tally routes each bump to exactly the thread that
  /// performed it. Bumps to OTHER IoStats instances (e.g. a cross-shard
  /// writeback under a shared buffer pool) are not tallied.
  ///
  /// Nests as a tee: the active tallies form a per-thread stack, and a bump
  /// is added to EVERY frame whose target matches, so an outer tally (the
  /// engine's per-op attribution) and an inner one (a PhaseScope inside the
  /// op) both see it. The lock-contention counter (read_lock_waits) is
  /// never tallied -- it describes the lock, not the operation.
  class ThreadTally {
   public:
    ThreadTally(const IoStats* target, IoStatsSnapshot* sink)
        : target_(target), sink_(sink), prev_(top_) {
      top_ = this;
    }
    ~ThreadTally() { top_ = prev_; }
    ThreadTally(const ThreadTally&) = delete;
    ThreadTally& operator=(const ThreadTally&) = delete;

   private:
    friend class IoStats;
    const IoStats* target_;
    IoStatsSnapshot* sink_;
    ThreadTally* prev_;
    static thread_local ThreadTally* top_;
  };

  void CountRead(FileClass klass) { Bump(reads_, &IoStatsSnapshot::reads, klass); }
  void CountWrite(FileClass klass) { Bump(writes_, &IoStatsSnapshot::writes, klass); }
  void CountHit(FileClass klass) { Bump(buffer_hits_, &IoStatsSnapshot::buffer_hits, klass); }
  void CountMiss(FileClass klass) {
    Bump(buffer_misses_, &IoStatsSnapshot::buffer_misses, klass);
  }
  void CountEviction(FileClass klass) {
    Bump(buffer_evictions_, &IoStatsSnapshot::buffer_evictions, klass);
  }
  void CountWriteback(FileClass klass) {
    Bump(buffer_writebacks_, &IoStatsSnapshot::buffer_writebacks, klass);
  }
  void CountInnerNodeVisit() {
    inner_nodes_visited_.fetch_add(1, std::memory_order_relaxed);
    for (ThreadTally* t = ThreadTally::top_; t != nullptr; t = t->prev_) {
      if (t->target_ == this) ++t->sink_->inner_nodes_visited;
    }
  }
  void CountLeafNodeVisit() {
    leaf_nodes_visited_.fetch_add(1, std::memory_order_relaxed);
    for (ThreadTally* t = ThreadTally::top_; t != nullptr; t = t->prev_) {
      if (t->target_ == this) ++t->sink_->leaf_nodes_visited;
    }
  }
  /// Engine read path, on a blocked shared acquisition (see IoStatsSnapshot).
  void CountReadLockWait() { read_lock_waits_.fetch_add(1, std::memory_order_relaxed); }

  IoStatsSnapshot snapshot() const;
  void Reset();

 private:
  using Counters = std::array<std::atomic<std::uint64_t>, kNumFileClasses>;
  using SnapshotCounters = std::array<std::uint64_t, kNumFileClasses>;

  void Bump(Counters& counters, SnapshotCounters IoStatsSnapshot::* field,
            FileClass klass) {
    counters[static_cast<int>(klass)].fetch_add(1, std::memory_order_relaxed);
    for (ThreadTally* t = ThreadTally::top_; t != nullptr; t = t->prev_) {
      if (t->target_ == this) ++(t->sink_->*field)[static_cast<int>(klass)];
    }
  }

  Counters reads_{};
  Counters writes_{};
  Counters buffer_hits_{};
  Counters buffer_misses_{};
  Counters buffer_evictions_{};
  Counters buffer_writebacks_{};
  std::atomic<std::uint64_t> inner_nodes_visited_{0};
  std::atomic<std::uint64_t> leaf_nodes_visited_{0};
  std::atomic<std::uint64_t> read_lock_waits_{0};
};

}  // namespace liod

#endif  // LIOD_STORAGE_IO_STATS_H_
