#include <algorithm>
#include <cstring>
#include <limits>
#include <list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "storage/block_device.h"
#include "storage/buffer_manager.h"
#include "storage/disk_model.h"
#include "storage/fault_injection_device.h"
#include "storage/io_stats.h"
#include "storage/paged_file.h"
#include "test_util.h"

namespace liod {
namespace {

constexpr std::size_t kBs = 4096;

std::vector<std::byte> Pattern(std::size_t size, unsigned char seed) {
  std::vector<std::byte> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((seed + i * 31) & 0xFF);
  }
  return data;
}

// --- MemoryBlockDevice --------------------------------------------------

TEST(MemoryBlockDevice, RoundTrip) {
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(4).ok());
  const auto data = Pattern(kBs, 7);
  ASSERT_TRUE(dev.Write(2, data.data()).ok());
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(dev.Read(2, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
}

TEST(MemoryBlockDevice, ReadPastEndFails) {
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(2).ok());
  std::vector<std::byte> out(kBs);
  EXPECT_EQ(dev.Read(2, out.data()).code(), Status::Code::kOutOfRange);
  EXPECT_EQ(dev.Write(5, out.data()).code(), Status::Code::kOutOfRange);
}

TEST(MemoryBlockDevice, GrowZeroFills) {
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(1).ok());
  std::vector<std::byte> out(kBs, std::byte{0xFF});
  ASSERT_TRUE(dev.Read(0, out.data()).ok());
  for (std::size_t i = 0; i < kBs; ++i) EXPECT_EQ(out[i], std::byte{0});
}

// --- FileBlockDevice ----------------------------------------------------

TEST(FileBlockDevice, RoundTripThroughRealFile) {
  const std::string path = ::testing::TempDir() + "/liod_fbd_test.bin";
  FileBlockDevice dev(path, kBs);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(3).ok());
  const auto data = Pattern(kBs, 99);
  ASSERT_TRUE(dev.Write(1, data.data()).ok());
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(dev.Read(1, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
  std::remove(path.c_str());
}

TEST(FileBlockDevice, ReopenPreservesContents) {
  const std::string path = ::testing::TempDir() + "/liod_fbd_reopen.bin";
  const auto data = Pattern(kBs, 55);
  {
    FileBlockDevice dev(path, kBs);
    ASSERT_TRUE(dev.ok());
    ASSERT_TRUE(dev.Grow(2).ok());
    ASSERT_TRUE(dev.Write(1, data.data()).ok());
  }
  {
    FileBlockDevice dev(path, kBs, {.truncate = false});
    ASSERT_TRUE(dev.ok());
    EXPECT_EQ(dev.num_blocks(), 2u);
    std::vector<std::byte> out(kBs);
    ASSERT_TRUE(dev.Read(1, out.data()).ok());
    EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
  }
  std::remove(path.c_str());
}

// --- BufferManager ------------------------------------------------------

/// One memory device + one registered file, per-file budget.
struct BufferedFile {
  MemoryBlockDevice dev{kBs};
  IoStats stats;
  BufferManager manager;
  FileHandle* file;

  explicit BufferedFile(std::size_t budget, BufferManager::Options options = {},
                        BlockId blocks = 8, FileClass klass = FileClass::kLeaf)
      : manager(options) {
    CheckOk(dev.Grow(blocks), "BufferedFile grow");
    file = manager.RegisterFile(&dev, &stats, klass, budget);
  }
};

TEST(BufferManager, CapacityOneReusesLastBlockOnly) {
  // The paper's default: only the last fetched block is reusable (Sec 6.5).
  BufferedFile f(1);
  std::vector<std::byte> out(kBs);

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 1u);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // miss, evicts 0
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss again
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
}

TEST(BufferManager, LruEvictionOrder) {
  BufferedFile f(2);
  std::vector<std::byte> out(kBs);

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // cache: {0}
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // cache: {1,0}
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit; cache: {0,1}
  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());  // evicts 1
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // still cached
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // was evicted: miss
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 4u);
}

TEST(BufferManager, HitMissAccountingAcrossEvictionBoundary) {
  // Capacity 2 with an access pattern that forces evict-then-refetch: the
  // hit/miss counters must stay consistent with the counted device reads.
  BufferedFile f(2);
  std::vector<std::byte> out(kBs);
  const auto hits = [&] { return f.stats.snapshot().TotalHits(); };
  const auto misses = [&] { return f.stats.snapshot().TotalMisses(); };

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss; cache {0}
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // miss; cache {1,0}
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit;  cache {0,1}
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(misses(), 2u);

  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());  // miss; evicts 1
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // miss: 1 must refetch
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(misses(), 4u);

  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // miss: 0 was evicted by 1
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit
  EXPECT_EQ(hits(), 2u);
  EXPECT_EQ(misses(), 5u);

  // Every miss is a counted device read; hits never touch the device.
  EXPECT_EQ(f.stats.snapshot().TotalReads(), misses());
  EXPECT_EQ(f.file->cached_blocks(), 2u);
  EXPECT_EQ(f.stats.snapshot().EvictionsFor(FileClass::kLeaf), 3u);
  EXPECT_DOUBLE_EQ(f.stats.snapshot().OverallHitRate(), 2.0 / 7.0);
}

TEST(BufferManager, WriteThroughCountsEveryWrite) {
  BufferedFile f(4);
  const auto data = Pattern(kBs, 1);
  ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 2u);
  EXPECT_EQ(f.stats.snapshot().WritebacksFor(FileClass::kLeaf), 0u);
  // The written block is cached: reading it costs no device read.
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
}

TEST(BufferManager, UncountedFileLeavesStatsUntouched) {
  BufferedFile f(1);  // holds the manager; the uncounted file pins unbounded
  MemoryBlockDevice dev(kBs);
  ASSERT_TRUE(dev.Grow(2).ok());
  FileHandle* inner =
      f.manager.RegisterFile(&dev, &f.stats, FileClass::kInner, 1, /*count_io=*/false);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(inner->ReadBlock(0, out.data()).ok());
  ASSERT_TRUE(inner->WriteBlock(1, out.data()).ok());
  ASSERT_TRUE(inner->ReadBlock(1, out.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalIo(), 0u);
  EXPECT_EQ(f.stats.snapshot().TotalHits() + f.stats.snapshot().TotalMisses(), 0u);
  // Unbounded: both blocks stayed cached.
  EXPECT_EQ(inner->cached_blocks(), 2u);
}

TEST(BufferManager, ClassifiedCounting) {
  MemoryBlockDevice inner_dev(kBs), leaf_dev(kBs);
  ASSERT_TRUE(inner_dev.Grow(1).ok());
  ASSERT_TRUE(leaf_dev.Grow(1).ok());
  IoStats stats;
  BufferManager manager{BufferManager::Options{}};
  FileHandle* inner = manager.RegisterFile(&inner_dev, &stats, FileClass::kInner, 1);
  FileHandle* leaf = manager.RegisterFile(&leaf_dev, &stats, FileClass::kLeaf, 1);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(inner->ReadBlock(0, out.data()).ok());
  ASSERT_TRUE(leaf->ReadBlock(0, out.data()).ok());
  ASSERT_TRUE(leaf->ReadBlock(0, out.data()).ok());
  EXPECT_EQ(stats.snapshot().ReadsFor(FileClass::kInner), 1u);
  EXPECT_EQ(stats.snapshot().ReadsFor(FileClass::kLeaf), 1u);
  EXPECT_EQ(stats.snapshot().HitsFor(FileClass::kLeaf), 1u);
  EXPECT_DOUBLE_EQ(stats.snapshot().HitRateFor(FileClass::kLeaf), 0.5);
}

TEST(BufferManager, ZeroBudgetIsRejected) {
  // Satellite fix: a 0-frame pool used to be silently clamped; it must fail.
  BufferedFile f(0);
  std::vector<std::byte> out(kBs);
  EXPECT_EQ(f.file->ReadBlock(0, out.data()).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(f.file->WriteBlock(0, out.data()).code(), Status::Code::kInvalidArgument);
  EXPECT_EQ(f.stats.snapshot().TotalIo(), 0u);
}

TEST(BufferManager, UnboundedSentinelNeverEvicts) {
  EXPECT_EQ(BufferManager::kUnbounded, std::numeric_limits<std::size_t>::max());
  BufferedFile f(BufferManager::kUnbounded);
  std::vector<std::byte> out(kBs);
  for (BlockId id = 0; id < 8; ++id) {
    ASSERT_TRUE(f.file->ReadBlock(id, out.data()).ok());
  }
  EXPECT_EQ(f.file->cached_blocks(), 8u);
  EXPECT_EQ(f.stats.snapshot().EvictionsFor(FileClass::kLeaf), 0u);
}

TEST(BufferManager, WriteBackDefersAndCoalescesDeviceWrites) {
  BufferManager::Options options;
  options.write_back = true;
  BufferedFile f(2, options);
  const auto data = Pattern(kBs, 9);

  // Three writes to the same block: zero device writes until flush.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  }
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 0u);
  EXPECT_EQ(f.file->dirty_blocks(), 1u);

  // A read of the dirty frame sees the buffered contents.
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));

  ASSERT_TRUE(f.file->Flush().ok());
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 1u);  // coalesced
  EXPECT_EQ(f.stats.snapshot().WritebacksFor(FileClass::kLeaf), 1u);
  EXPECT_EQ(f.file->dirty_blocks(), 0u);
  EXPECT_EQ(f.file->cached_blocks(), 1u);  // flush keeps the frame

  // Device now holds the data.
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(f.dev.Read(0, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

TEST(BufferManager, WriteBackPaysOnEviction) {
  BufferManager::Options options;
  options.write_back = true;
  BufferedFile f(1, options);
  const auto data = Pattern(kBs, 3);
  ASSERT_TRUE(f.file->WriteBlock(0, data.data()).ok());
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 0u);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // evicts dirty 0
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 1u);
  EXPECT_EQ(f.stats.snapshot().WritebacksFor(FileClass::kLeaf), 1u);
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(f.dev.Read(0, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

TEST(BufferManager, DropCachesFlushesDirtyFramesFirst) {
  BufferManager::Options options;
  options.write_back = true;
  BufferedFile f(4, options);
  const auto data = Pattern(kBs, 5);
  ASSERT_TRUE(f.file->WriteBlock(2, data.data()).ok());
  ASSERT_TRUE(f.file->DropCaches().ok());
  EXPECT_EQ(f.file->cached_blocks(), 0u);
  EXPECT_EQ(f.stats.snapshot().TotalWrites(), 1u);
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(f.dev.Read(2, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

TEST(BufferManager, SharedBudgetSpansFiles) {
  BufferManager::Options options;
  options.shared_budget_frames = 2;
  BufferManager manager(options);
  MemoryBlockDevice dev_a(kBs), dev_b(kBs);
  ASSERT_TRUE(dev_a.Grow(4).ok());
  ASSERT_TRUE(dev_b.Grow(4).ok());
  IoStats stats;
  // Per-file budget argument is ignored in shared mode.
  FileHandle* a = manager.RegisterFile(&dev_a, &stats, FileClass::kInner, 99);
  FileHandle* b = manager.RegisterFile(&dev_b, &stats, FileClass::kLeaf, 99);
  std::vector<std::byte> out(kBs);

  ASSERT_TRUE(a->ReadBlock(0, out.data()).ok());  // pool: {a0}
  ASSERT_TRUE(b->ReadBlock(0, out.data()).ok());  // pool: {b0,a0}
  EXPECT_EQ(manager.cached_frames(), 2u);
  ASSERT_TRUE(b->ReadBlock(1, out.data()).ok());  // evicts a0 (LRU across files)
  EXPECT_EQ(manager.cached_frames(), 2u);
  EXPECT_EQ(a->cached_blocks(), 0u);
  EXPECT_EQ(b->cached_blocks(), 2u);
  EXPECT_EQ(stats.snapshot().EvictionsFor(FileClass::kInner), 1u);
  ASSERT_TRUE(a->ReadBlock(0, out.data()).ok());  // miss: was evicted
  EXPECT_EQ(stats.snapshot().ReadsFor(FileClass::kInner), 2u);
}

TEST(BufferManager, FifoIgnoresRecency) {
  BufferManager::Options options;
  options.policy = BufferPolicy::kFifo;
  BufferedFile f(2, options);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // in: 0
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // in: 0,1
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit; order unchanged
  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());  // evicts 0 (oldest in)
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // 1 still cached: hit
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // 0 was evicted: miss
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 4u);
}

TEST(BufferManager, ClockGivesSecondChance) {
  BufferManager::Options options;
  options.policy = BufferPolicy::kClock;
  BufferedFile f(2, options);
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // ring: 0(ref=0)
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // ring: 0,1 (ref=0)
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit: ref(0)=1
  // Miss: hand at 0 -> 0 referenced, gets second chance; victim is 1.
  ASSERT_TRUE(f.file->ReadBlock(2, out.data()).ok());
  ASSERT_TRUE(f.file->ReadBlock(0, out.data()).ok());  // hit: survived
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 3u);
  ASSERT_TRUE(f.file->ReadBlock(1, out.data()).ok());  // evicted: miss
  EXPECT_EQ(f.stats.snapshot().TotalReads(), 4u);
}

TEST(BufferManager, EveryPolicyRoundTripsData) {
  for (BufferPolicy policy :
       {BufferPolicy::kLru, BufferPolicy::kClock, BufferPolicy::kFifo}) {
    for (bool write_back : {false, true}) {
      BufferManager::Options options;
      options.policy = policy;
      options.write_back = write_back;
      BufferedFile f(3, options, /*blocks=*/16);
      // Interleaved writes and reads over 16 blocks through a 3-frame pool.
      for (int round = 0; round < 3; ++round) {
        for (BlockId id = 0; id < 16; ++id) {
          const auto data = Pattern(kBs, static_cast<unsigned char>(id * 7 + round));
          ASSERT_TRUE(f.file->WriteBlock(id, data.data()).ok());
        }
        for (BlockId id = 0; id < 16; ++id) {
          const auto want = Pattern(kBs, static_cast<unsigned char>(id * 7 + round));
          std::vector<std::byte> got(kBs);
          ASSERT_TRUE(f.file->ReadBlock(id, got.data()).ok());
          ASSERT_EQ(0, std::memcmp(want.data(), got.data(), kBs))
              << BufferPolicyName(policy) << " wb=" << write_back << " id=" << id;
        }
      }
      ASSERT_TRUE(f.file->Flush().ok());
      // After flush the device holds the final contents.
      for (BlockId id = 0; id < 16; ++id) {
        const auto want = Pattern(kBs, static_cast<unsigned char>(id * 7 + 2));
        std::vector<std::byte> direct(kBs);
        ASSERT_TRUE(f.dev.Read(id, direct.data()).ok());
        ASSERT_EQ(0, std::memcmp(want.data(), direct.data(), kBs));
      }
    }
  }
}

/// Checks that `got` holds `want` followed by untouched guard bytes.
void ExpectExactCopy(const std::vector<std::byte>& got, const std::byte* want,
                     std::size_t length, const std::string& label) {
  ASSERT_EQ(0, std::memcmp(got.data(), want, length)) << label;
  for (std::size_t i = length; i < got.size(); ++i) {
    ASSERT_EQ(got[i], std::byte{0xEE}) << label << ": wrote past the range at " << i;
  }
}

TEST(BufferManager, RangedReadCopiesOnlyTheRequestedBytes) {
  // Twin files with the same contents and 2-frame pools: one serves ranged
  // reads, the other the whole-block ReadBlock calls they replace, so both
  // must count the same I/O after every read, miss and hit alike.
  BufferedFile ranged(2);
  BufferedFile whole(2);
  for (BlockId id = 0; id < 8; ++id) {
    const auto data = Pattern(kBs, static_cast<unsigned char>(id));
    ASSERT_TRUE(ranged.dev.Write(id, data.data()).ok());
    ASSERT_TRUE(whole.dev.Write(id, data.data()).ok());
  }
  struct Case {
    const char* name;
    BlockId block;
    std::size_t offset;
    std::size_t length;
  };
  const Case cases[] = {
      {"partial head", 1, kBs - 24, 24},
      {"partial tail", 2, 0, 40},
      {"interior", 3, 1000, 64},
      {"aligned shorter than a block", 4, 0, 512},
      {"whole block", 5, 0, kBs},
      {"empty", 6, kBs, 0},
  };
  std::vector<std::byte> block(kBs);
  for (const Case& c : cases) {
    const auto want = Pattern(kBs, static_cast<unsigned char>(c.block));
    for (const char* probe : {"miss", "hit"}) {
      const std::string label = std::string(c.name) + " " + probe;
      std::vector<std::byte> got(c.length + 16, std::byte{0xEE});
      ASSERT_TRUE(ranged.file->ReadBlockRange(c.block, c.offset, c.length, got.data()).ok())
          << label;
      ASSERT_TRUE(whole.file->ReadBlock(c.block, block.data()).ok()) << label;
      ExpectExactCopy(got, want.data() + c.offset, c.length, label);
      EXPECT_EQ(ranged.stats.snapshot(), whole.stats.snapshot())
          << label << ": " << ranged.stats.snapshot().ToString() << " vs "
          << whole.stats.snapshot().ToString();
    }
  }
  EXPECT_EQ(ranged.stats.snapshot().TotalMisses(), std::size(cases));
  EXPECT_EQ(ranged.stats.snapshot().TotalHits(), std::size(cases));
}

TEST(BufferManager, RangedReadPastTheBlockIsRejected) {
  BufferedFile f(2);
  std::vector<std::byte> out(2 * kBs);
  const std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const auto& [offset, length] :
       {std::pair<std::size_t, std::size_t>{0, kBs + 1}, {kBs - 8, 9}, {kBs + 1, 0},
        {1, kMax}, {kMax, 2}}) {
    EXPECT_EQ(f.file->ReadBlockRange(0, offset, length, out.data()).code(),
              Status::Code::kInvalidArgument)
        << "offset " << offset << " length " << length;
  }
  // Rejected before the probe: nothing counted, nothing cached.
  EXPECT_EQ(f.stats.snapshot(), IoStatsSnapshot{});
  EXPECT_EQ(f.file->cached_blocks(), 0u);
}

/// Reference eviction order of one pool, keyed by block. LRU and FIFO: a
/// plain recency list, front = newest. CLOCK: a second-chance ring of
/// (block, reference bit) entries swept by a hand, where an erased entry
/// leaves a tombstone and the ring is rebuilt in sweep order from the hand
/// once tombstones outnumber live entries by more than 8.
class PoolModel {
 public:
  PoolModel(BufferPolicy policy, std::size_t budget) : policy_(policy), budget_(budget) {}

  /// Returns whether `block` was cached, then applies the access.
  bool Access(BlockId block) {
    if (policy_ != BufferPolicy::kClock) {
      const auto it = std::find(list_.begin(), list_.end(), block);
      if (it != list_.end()) {
        if (policy_ == BufferPolicy::kLru) list_.splice(list_.begin(), list_, it);
        return true;
      }
      if (list_.size() == budget_) list_.pop_back();
      list_.push_front(block);
      return false;
    }
    for (Entry& entry : ring_) {
      if (entry.live && entry.block == block) {
        entry.ref = true;
        return true;
      }
    }
    if (live_ == budget_) Erase(ClockVictim());
    ring_.push_back({block, false, true});
    ++live_;
    return false;
  }

  /// Drops every block. The order does not matter: when the ring is rebuilt
  /// depends only on how many entries are live.
  void Clear() {
    list_.clear();
    for (std::size_t pos = 0; live_ > 0;) {
      if (ring_[pos].live) {
        Erase(pos);
        pos = 0;
      } else {
        ++pos;
      }
    }
  }

  std::size_t size() const { return policy_ == BufferPolicy::kClock ? live_ : list_.size(); }

 private:
  struct Entry {
    BlockId block;
    bool ref;
    bool live;
  };

  std::size_t ClockVictim() {
    while (true) {
      if (hand_ >= ring_.size()) hand_ = 0;
      Entry& entry = ring_[hand_];
      if (!entry.live) {
        ++hand_;
      } else if (entry.ref) {
        entry.ref = false;
        ++hand_;
      } else {
        return hand_;
      }
    }
  }

  void Erase(std::size_t pos) {
    ring_[pos].live = false;
    --live_;
    if (ring_.size() <= 2 * live_ + 8) return;
    std::vector<Entry> packed;
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      const Entry& entry = ring_[(hand_ + i) % ring_.size()];
      if (entry.live) packed.push_back(entry);
    }
    ring_ = std::move(packed);
    hand_ = 0;
  }

  BufferPolicy policy_;
  std::size_t budget_;
  std::list<BlockId> list_;
  std::vector<Entry> ring_;
  std::size_t hand_ = 0;
  std::size_t live_ = 0;
};

TEST(BufferManager, EvictionOrderMatchesAReferenceModelAcrossPools) {
  // Two files of one manager, each with its own pool, under random reads,
  // ranged reads and writes. Dropping one file's cache frees its slots, which
  // the other file's next misses take over, so slots move between pools.
  // Every access must hit or miss exactly as the reference model says.
  for (BufferPolicy policy : {BufferPolicy::kLru, BufferPolicy::kFifo, BufferPolicy::kClock}) {
    BufferManager::Options options;
    options.policy = policy;
    BufferManager manager(options);
    constexpr BlockId kBlocks = 12;
    const std::size_t budgets[2] = {3, 5};
    MemoryBlockDevice devs[2] = {MemoryBlockDevice(kBs), MemoryBlockDevice(kBs)};
    IoStats stats[2];
    FileHandle* files[2];
    PoolModel model[2] = {PoolModel(policy, budgets[0]), PoolModel(policy, budgets[1])};
    for (int f = 0; f < 2; ++f) {
      ASSERT_TRUE(devs[f].Grow(kBlocks).ok());
      files[f] = manager.RegisterFile(&devs[f], &stats[f], FileClass::kLeaf, budgets[f]);
    }
    Rng rng(2024);
    std::vector<std::byte> buf(kBs);
    for (int step = 0; step < 4000; ++step) {
      const int f = static_cast<int>(rng.NextBounded(2));
      const std::string label = std::string(BufferPolicyName(policy)) + " step " +
                                std::to_string(step) + " file " + std::to_string(f);
      if (rng.NextBounded(50) == 0) {
        ASSERT_TRUE(files[f]->DropCaches().ok());
        model[f].Clear();
        continue;
      }
      const BlockId block = static_cast<BlockId>(rng.NextBounded(kBlocks));
      const IoStatsSnapshot before = stats[f].snapshot();
      switch (rng.NextBounded(3)) {
        case 0: ASSERT_TRUE(files[f]->ReadBlock(block, buf.data()).ok()) << label; break;
        case 1:
          ASSERT_TRUE(files[f]->ReadBlockRange(block, 8, 16, buf.data()).ok()) << label;
          break;
        default: ASSERT_TRUE(files[f]->WriteBlock(block, buf.data()).ok()) << label; break;
      }
      const IoStatsSnapshot delta = stats[f].snapshot() - before;
      const bool hit = model[f].Access(block);
      ASSERT_EQ(delta.TotalHits(), hit ? 1u : 0u) << label;
      ASSERT_EQ(delta.TotalMisses(), hit ? 0u : 1u) << label;
      ASSERT_EQ(files[f]->cached_blocks(), model[f].size()) << label;
    }
    EXPECT_EQ(manager.cached_frames(), model[0].size() + model[1].size());
  }
}

TEST(BufferManager, MultiBlockReadCountsLikeThePerBlockLoop) {
  // A multi-block read fetches the blocks not cached at its start in one
  // submission, then probes block by block. Its counts, its bytes and the
  // cache it leaves must be those of one one-block read per block: also when
  // an earlier miss of the run evicts a block cached at its start (small
  // budgets), and when a victim is dirty (write-back).
  constexpr BlockId kBlocks = 10;
  const BlockId rewritten[] = {3, 6};
  const auto contents = Pattern(kBlocks * kBs, 7);
  const auto rewrite = Pattern(kBs, 91);
  std::vector<std::byte> want = contents;
  for (const BlockId b : rewritten) std::memcpy(want.data() + b * kBs, rewrite.data(), kBs);
  testing_util::ScopedTempDir dir;
  int device_files = 0;
  for (const bool file_device : {false, true}) {
    for (const bool write_back : {false, true}) {
      for (const std::size_t budget : {1u, 2u, 3u, 8u}) {
        const std::string label = std::string(file_device ? "file" : "memory") +
                                  (write_back ? " write-back" : " write-through") +
                                  " budget " + std::to_string(budget);
        BufferManager::Options options;
        options.write_back = write_back;
        BufferManager manager(options);
        IoStats stats[2];
        std::unique_ptr<PagedFile> files[2];
        for (int f = 0; f < 2; ++f) {
          std::unique_ptr<BlockDevice> device = std::make_unique<MemoryBlockDevice>(kBs);
          if (file_device) {
            device = std::make_unique<FileBlockDevice>(
                dir.path() + "/" + std::to_string(device_files++) + ".bin", kBs);
          }
          files[f] = std::make_unique<PagedFile>(std::move(device), &manager, &stats[f],
                                                 FileClass::kLeaf,
                                                 PagedFileOptions{.buffer_pool_blocks = budget});
          (void)files[f]->AllocateRun(kBlocks);
          ASSERT_TRUE(files[f]->WriteBytes(0, contents.size(), contents.data()).ok()) << label;
          for (const BlockId b : rewritten) {
            ASSERT_TRUE(files[f]->WriteBytes(b * kBs, kBs, rewrite.data()).ok()) << label;
          }
          stats[f].Reset();
        }
        // Blocks 1-8: one 8-block read, and eight one-block reads.
        std::vector<std::byte> run(8 * kBs);
        std::vector<std::byte> singles(8 * kBs);
        ASSERT_TRUE(files[0]->ReadBytes(kBs, run.size(), run.data()).ok()) << label;
        for (BlockId b = 0; b < 8; ++b) {
          ASSERT_TRUE(files[1]->ReadBytes((b + 1) * kBs, kBs, singles.data() + b * kBs).ok())
              << label;
        }
        EXPECT_EQ(stats[0].snapshot(), stats[1].snapshot())
            << label << ": " << stats[0].snapshot().ToString() << " vs "
            << stats[1].snapshot().ToString();
        EXPECT_EQ(0, std::memcmp(run.data(), want.data() + kBs, run.size())) << label;
        EXPECT_EQ(0, std::memcmp(singles.data(), want.data() + kBs, singles.size())) << label;
        // The same cache: a following pass over all ten blocks counts alike.
        std::vector<std::byte> all(kBlocks * kBs);
        for (int f = 0; f < 2; ++f) {
          stats[f].Reset();
          ASSERT_TRUE(files[f]->ReadBytes(0, all.size(), all.data()).ok()) << label;
          EXPECT_EQ(0, std::memcmp(all.data(), want.data(), all.size())) << label;
        }
        EXPECT_EQ(stats[0].snapshot(), stats[1].snapshot())
            << label << ": " << stats[0].snapshot().ToString() << " vs "
            << stats[1].snapshot().ToString();
      }
    }
  }
}

// --- PagedFile ----------------------------------------------------------

PagedFile MakeMemFile(IoStats* stats, PagedFileOptions options = {}) {
  return PagedFile(std::make_unique<MemoryBlockDevice>(kBs), stats, FileClass::kLeaf, options);
}

TEST(PagedFile, AllocateIsSequential) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  EXPECT_EQ(file.Allocate(), 0u);
  EXPECT_EQ(file.Allocate(), 1u);
  EXPECT_EQ(file.AllocateRun(3), 2u);
  EXPECT_EQ(file.Allocate(), 5u);
  EXPECT_EQ(file.allocated_blocks(), 6u);
}

TEST(PagedFile, FreedSpaceNotReusedByDefault) {
  // Paper behaviour (Section 6.3): freed blocks are invalid space.
  IoStats stats;
  auto file = MakeMemFile(&stats);
  const BlockId a = file.Allocate();
  file.Free(a);
  EXPECT_EQ(file.Allocate(), a + 1);
  EXPECT_EQ(file.freed_blocks(), 1u);
  EXPECT_EQ(file.live_blocks(), 1u);
  EXPECT_EQ(file.allocated_blocks(), 2u);
}

TEST(PagedFile, FreedSpaceReusedWhenEnabled) {
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId a = file.Allocate();
  (void)file.Allocate();
  file.Free(a);
  EXPECT_EQ(file.Allocate(), a);  // recycled
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, RunReuseBestFit) {
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId run = file.AllocateRun(8);
  (void)file.Allocate();
  file.Free(run, 8);
  // A 5-block request carves the 8-block hole; remainder stays free.
  EXPECT_EQ(file.AllocateRun(5), run);
  EXPECT_EQ(file.AllocateRun(3), run + 5);
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, ByteRangeAcrossBlocks) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.AllocateRun(3);
  // Write 6000 bytes starting inside block 0, spilling into block 1.
  std::vector<std::byte> data(6000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i & 0xFF);
  ASSERT_TRUE(file.WriteBytes(1000, data.size(), data.data()).ok());
  std::vector<std::byte> out(6000);
  ASSERT_TRUE(file.ReadBytes(1000, out.size(), out.data()).ok());
  EXPECT_EQ(data, out);
}

TEST(PagedFile, PartialBlockWriteIsReadModifyWrite) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.Allocate();
  std::vector<std::byte> small(10, std::byte{0xAB});
  stats.Reset();
  ASSERT_TRUE(file.WriteBytes(100, small.size(), small.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 1u);   // fetched for merge
  EXPECT_EQ(stats.snapshot().TotalWrites(), 1u);
}

TEST(PagedFile, FullBlockWriteSkipsRead) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.Allocate();
  std::vector<std::byte> block(kBs, std::byte{0x11});
  stats.Reset();
  ASSERT_TRUE(file.WriteBytes(0, kBs, block.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 1u);
}

TEST(PagedFile, RunReuseExactFitAndFallbackGrowth) {
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId run_a = file.AllocateRun(4);
  const BlockId run_b = file.AllocateRun(6);
  (void)file.Allocate();  // guard so freed runs are interior
  file.Free(run_a, 4);
  file.Free(run_b, 6);
  EXPECT_EQ(file.freed_blocks(), 10u);
  // Best-fit: a 6-block request takes the 6-run exactly, not the 4-run.
  EXPECT_EQ(file.AllocateRun(6), run_b);
  EXPECT_EQ(file.freed_blocks(), 4u);
  // Larger than any remaining hole: grows the high-water mark instead.
  const BlockId grown = file.AllocateRun(5);
  EXPECT_EQ(grown, 11u);
  EXPECT_EQ(file.allocated_blocks(), 16u);
  // The 4-run is still available for an exact fit.
  EXPECT_EQ(file.AllocateRun(4), run_a);
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, SingleBlockFreesDoNotSatisfyRunRequests) {
  // Free(1) goes to the single-block list; AllocateRun(n>1) must not stitch
  // singles together (contiguity is unknown) and grows instead.
  IoStats stats;
  PagedFileOptions opt;
  opt.reuse_freed_space = true;
  auto file = MakeMemFile(&stats, opt);
  const BlockId a = file.Allocate();
  const BlockId b = file.Allocate();
  file.Free(a);
  file.Free(b);
  EXPECT_EQ(file.AllocateRun(2), 2u);  // grew past the singles
  // But single allocations recycle them (LIFO).
  EXPECT_EQ(file.Allocate(), b);
  EXPECT_EQ(file.Allocate(), a);
  EXPECT_EQ(file.freed_blocks(), 0u);
}

TEST(PagedFile, RunRecyclingIgnoredWithoutReuseOption) {
  IoStats stats;
  auto file = MakeMemFile(&stats);  // paper default: no reuse
  const BlockId run = file.AllocateRun(8);
  file.Free(run, 8);
  EXPECT_EQ(file.AllocateRun(8), 8u);  // fresh space, hole stays invalid
  EXPECT_EQ(file.freed_blocks(), 8u);
  EXPECT_EQ(file.allocated_blocks(), 16u);
  EXPECT_EQ(file.live_blocks(), 8u);
}

TEST(PagedFile, ByteRangeSpanningPartialHeadAndTail) {
  // Write covering [100, 2*kBs+100): partial head block 0, full block 1,
  // partial tail block 2. Head and tail need read-modify-write; the full
  // middle block must skip the read.
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.AllocateRun(3);
  std::vector<std::byte> data(2 * kBs);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::byte>((i * 13 + 1) & 0xFF);
  }
  stats.Reset();
  ASSERT_TRUE(file.WriteBytes(100, data.size(), data.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 2u);   // head + tail RMW fetches
  EXPECT_EQ(stats.snapshot().TotalWrites(), 3u);  // all three touched blocks

  std::vector<std::byte> out(data.size());
  ASSERT_TRUE(file.ReadBytes(100, out.size(), out.data()).ok());
  EXPECT_EQ(data, out);

  // Bytes outside the written range stayed zero (Grow zero-fills).
  std::vector<std::byte> head(100);
  ASSERT_TRUE(file.ReadBytes(0, head.size(), head.data()).ok());
  for (std::byte b : head) EXPECT_EQ(b, std::byte{0});
  std::vector<std::byte> tail(kBs - 100);
  ASSERT_TRUE(file.ReadBytes(2 * kBs + 100, tail.size(), tail.data()).ok());
  for (std::byte b : tail) EXPECT_EQ(b, std::byte{0});
}

TEST(PagedFile, ReadBytesAlignedSpanSkipsRmw) {
  IoStats stats;
  auto file = MakeMemFile(&stats);
  (void)file.AllocateRun(4);
  std::vector<std::byte> data(4 * kBs, std::byte{0x5A});
  stats.Reset();
  // Fully aligned multi-block write: no RMW reads at all.
  ASSERT_TRUE(file.WriteBytes(0, data.size(), data.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 4u);
}

TEST(PagedFile, WriteBytesThroughWriteBackManagerDefersDeviceWrites) {
  // The façade composes with a write-back manager: byte-range writes dirty
  // frames and the device write is paid once per block at flush.
  BufferManager::Options options;
  options.write_back = true;
  BufferManager manager(options);
  IoStats stats;
  PagedFileOptions file_options;
  file_options.buffer_pool_blocks = 8;
  PagedFile file(std::make_unique<MemoryBlockDevice>(kBs), &manager, &stats,
                 FileClass::kLeaf, file_options);
  (void)file.AllocateRun(2);
  std::vector<std::byte> data(kBs / 2, std::byte{0x42});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(file.WriteBytes(i * data.size(), data.size(), data.data()).ok());
  }
  EXPECT_EQ(stats.snapshot().TotalWrites(), 0u);  // all deferred
  ASSERT_TRUE(file.Flush().ok());
  EXPECT_EQ(stats.snapshot().TotalWrites(), 2u);  // one per dirty block
  EXPECT_EQ(stats.snapshot().WritebacksFor(FileClass::kLeaf), 2u);
}

TEST(PagedFile, ReadBytesCopiesOnlyTheRequestedBytes) {
  // Twin single-frame files with the same contents: ReadBytes on one,
  // ReadBlock of every block the range touches on the other. The bytes must
  // match the range exactly and the counted I/O must match the twin's.
  IoStats ranged_stats;
  IoStats whole_stats;
  auto ranged = MakeMemFile(&ranged_stats);
  auto whole = MakeMemFile(&whole_stats);
  (void)ranged.AllocateRun(4);
  (void)whole.AllocateRun(4);
  std::vector<std::byte> contents(4 * kBs);
  for (std::size_t i = 0; i < contents.size(); ++i) {
    contents[i] = static_cast<std::byte>((i * 7 + i / kBs) & 0xFF);
  }
  ASSERT_TRUE(ranged.WriteBytes(0, contents.size(), contents.data()).ok());
  ASSERT_TRUE(whole.WriteBytes(0, contents.size(), contents.data()).ok());
  ranged_stats.Reset();
  whole_stats.Reset();

  struct Case {
    const char* name;
    std::uint64_t offset;
    std::uint64_t length;
  };
  const Case cases[] = {
      {"partial head and tail", kBs - 100, 300},
      {"interior", kBs + 1000, 64},
      {"aligned shorter than a block", 2 * kBs, 512},
      {"whole block", 3 * kBs, kBs},
      {"head, full middle, tail", kBs / 2, 3 * kBs},
  };
  std::vector<std::byte> block(kBs);
  for (const Case& c : cases) {
    for (const char* probe : {"first", "again"}) {
      const std::string label = std::string(c.name) + " " + probe;
      std::vector<std::byte> got(c.length + 16, std::byte{0xEE});
      ASSERT_TRUE(ranged.ReadBytes(c.offset, c.length, got.data()).ok()) << label;
      for (std::uint64_t b = c.offset / kBs; b <= (c.offset + c.length - 1) / kBs; ++b) {
        ASSERT_TRUE(whole.ReadBlock(static_cast<BlockId>(b), block.data()).ok()) << label;
      }
      ExpectExactCopy(got, contents.data() + c.offset, c.length, label);
      EXPECT_EQ(ranged_stats.snapshot(), whole_stats.snapshot())
          << label << ": " << ranged_stats.snapshot().ToString() << " vs "
          << whole_stats.snapshot().ToString();
    }
  }
  EXPECT_GT(ranged_stats.snapshot().TotalHits(), 0u);
  EXPECT_GT(ranged_stats.snapshot().TotalMisses(), 0u);
}

// --- FaultInjectionDevice ------------------------------------------------

TEST(FaultInjection, FailAfterCountsDown) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  FaultInjectionDevice dev(std::move(base));
  dev.FailAfter(2);
  std::vector<std::byte> buf(kBs);
  EXPECT_TRUE(dev.Read(0, buf.data()).ok());
  EXPECT_TRUE(dev.Write(1, buf.data()).ok());
  EXPECT_EQ(dev.Read(2, buf.data()).code(), Status::Code::kIoError);
  EXPECT_EQ(dev.injected_failures(), 1u);
}

TEST(FaultInjection, PoisonedBlock) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  FaultInjectionDevice dev(std::move(base));
  dev.FailBlock(3);
  std::vector<std::byte> buf(kBs);
  EXPECT_TRUE(dev.Read(0, buf.data()).ok());
  EXPECT_EQ(dev.Write(3, buf.data()).code(), Status::Code::kIoError);
  dev.ClearFailBlock();
  EXPECT_TRUE(dev.Write(3, buf.data()).ok());
}

TEST(FaultInjection, ManagerPropagatesErrorsWithoutCaching) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(2).ok());
  auto* raw = new FaultInjectionDevice(
      std::unique_ptr<BlockDevice>(std::move(base)));
  std::unique_ptr<BlockDevice> owned(raw);
  IoStats stats;
  BufferManager manager{BufferManager::Options{}};
  FileHandle* file = manager.RegisterFile(owned.get(), &stats, FileClass::kLeaf, 2);
  raw->FailBlock(1);
  std::vector<std::byte> buf(kBs);
  EXPECT_FALSE(file->ReadBlock(1, buf.data()).ok());
  raw->ClearFailBlock();
  // After the failure clears, the block must be readable (not a stale frame).
  EXPECT_TRUE(file->ReadBlock(1, buf.data()).ok());
}

TEST(FaultInjection, FailedReadBytesCachesNothingAndEvictsNothing) {
  // A miss reads straight into the new frame's buffer, before any eviction:
  // when that read fails, no frame is cached for the block and the pool's
  // victim keeps its slot.
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  auto* raw = new FaultInjectionDevice(std::unique_ptr<BlockDevice>(std::move(base)));
  IoStats stats;
  PagedFile file(std::unique_ptr<BlockDevice>(raw), &stats, FileClass::kLeaf, {});
  (void)file.AllocateRun(2);
  const auto data = Pattern(2 * kBs, 5);
  ASSERT_TRUE(file.WriteBytes(0, data.size(), data.data()).ok());  // caches block 1
  std::vector<std::byte> out(64);
  ASSERT_TRUE(file.ReadBytes(10, out.size(), out.data()).ok());  // block 0 now cached
  stats.Reset();

  raw->FailBlock(1);
  EXPECT_EQ(file.ReadBytes(kBs + 10, out.size(), out.data()).code(), Status::Code::kIoError);
  EXPECT_EQ(file.buffer().cached_blocks(), 1u);
  EXPECT_EQ(stats.snapshot().TotalEvictions(), 0u);
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  // Block 0 is still the cached frame: reading it again is a hit.
  ASSERT_TRUE(file.ReadBytes(20, out.size(), out.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalHits(), 1u);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data() + 20, out.size()));

  // Once the device recovers, the block reads from the device, not from a
  // frame the failed read left behind.
  raw->ClearFailBlock();
  ASSERT_TRUE(file.ReadBytes(kBs + 10, out.size(), out.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 1u);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data() + kBs + 10, out.size()));
}

TEST(FaultInjection, FailedMultiBlockReadCachesNothingAndEvictsNothing) {
  // A multi-block read fetches its misses before any frame changes: when the
  // fetch fails, nothing is cached, evicted or counted as read, and the
  // frames cached before it still hit.
  auto* raw = new FaultInjectionDevice(std::make_unique<MemoryBlockDevice>(kBs));
  IoStats stats;
  PagedFile file(std::unique_ptr<BlockDevice>(raw), &stats, FileClass::kLeaf,
                 {.buffer_pool_blocks = 2});
  (void)file.AllocateRun(6);
  const auto data = Pattern(6 * kBs, 13);
  ASSERT_TRUE(file.WriteBytes(0, data.size(), data.data()).ok());  // caches blocks 4-5
  stats.Reset();

  raw->FailBlock(2);
  std::vector<std::byte> out(4 * kBs);
  EXPECT_EQ(file.ReadBytes(0, out.size(), out.data()).code(), Status::Code::kIoError);
  EXPECT_EQ(file.buffer().cached_blocks(), 2u);
  EXPECT_EQ(stats.snapshot().TotalEvictions(), 0u);
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  std::vector<std::byte> cached(2 * kBs);
  ASSERT_TRUE(file.ReadBytes(4 * kBs, cached.size(), cached.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalHits(), 2u);
  EXPECT_EQ(0, std::memcmp(cached.data(), data.data() + 4 * kBs, cached.size()));

  raw->ClearFailBlock();
  ASSERT_TRUE(file.ReadBytes(0, out.size(), out.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 4u);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data(), out.size()));
}

TEST(FaultInjection, FailedMultiBlockWriteLeavesNoStaleFrame) {
  // A write-through run reaches the device as one batch. When the batch
  // fails part-way, the device may hold the new bytes of some blocks and the
  // old bytes of others, so afterwards every block must read as the device
  // holds it, not as a frame cached before the write.
  auto* raw = new FaultInjectionDevice(std::make_unique<MemoryBlockDevice>(kBs));
  IoStats stats;
  PagedFile file(std::unique_ptr<BlockDevice>(raw), &stats, FileClass::kLeaf,
                 {.buffer_pool_blocks = 4});
  (void)file.AllocateRun(4);
  const auto old_data = Pattern(4 * kBs, 17);
  ASSERT_TRUE(file.WriteBytes(0, old_data.size(), old_data.data()).ok());
  ASSERT_EQ(file.buffer().cached_blocks(), 4u);

  raw->FailBlock(2);
  const auto new_data = Pattern(4 * kBs, 61);
  EXPECT_EQ(file.WriteBytes(0, new_data.size(), new_data.data()).code(),
            Status::Code::kIoError);
  raw->ClearFailBlock();

  std::vector<std::byte> got(4 * kBs);
  ASSERT_TRUE(file.ReadBytes(0, got.size(), got.data()).ok());
  std::vector<std::byte> on_device(kBs);
  for (BlockId b = 0; b < 4; ++b) {
    ASSERT_TRUE(raw->Read(b, on_device.data()).ok());
    EXPECT_EQ(0, std::memcmp(got.data() + b * kBs, on_device.data(), kBs)) << "block " << b;
  }
}

TEST(FaultInjection, FailedReadLeavesVictimCachedAndDirty) {
  // A miss must fetch BEFORE evicting: if the device read fails, the would-be
  // victim (here a dirty frame in a 1-frame pool) keeps its slot, its dirty
  // data, and no eviction/write-back is counted for a read that never
  // happened.
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  auto* raw = new FaultInjectionDevice(
      std::unique_ptr<BlockDevice>(std::move(base)));
  std::unique_ptr<BlockDevice> owned(raw);
  IoStats stats;
  BufferManager::Options options;
  options.write_back = true;
  BufferManager manager(options);
  FileHandle* file = manager.RegisterFile(owned.get(), &stats, FileClass::kLeaf, 1);
  const auto data = Pattern(kBs, 21);
  ASSERT_TRUE(file->WriteBlock(0, data.data()).ok());  // dirty, deferred
  raw->FailBlock(1);
  std::vector<std::byte> buf(kBs);
  EXPECT_FALSE(file->ReadBlock(1, buf.data()).ok());
  EXPECT_EQ(file->cached_blocks(), 1u);  // victim survived
  EXPECT_EQ(file->dirty_blocks(), 1u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 0u);  // no write-back paid
  EXPECT_EQ(stats.snapshot().EvictionsFor(FileClass::kLeaf), 0u);
  // Block 0 is still served from the cache, not the device.
  ASSERT_TRUE(file->ReadBlock(0, buf.data()).ok());
  EXPECT_EQ(stats.snapshot().TotalReads(), 0u);
  EXPECT_EQ(0, std::memcmp(data.data(), buf.data(), kBs));
}

TEST(FaultInjection, FailedWritebackKeepsFrameDirty) {
  auto base = std::make_unique<MemoryBlockDevice>(kBs);
  ASSERT_TRUE(base->Grow(4).ok());
  auto* raw = new FaultInjectionDevice(
      std::unique_ptr<BlockDevice>(std::move(base)));
  std::unique_ptr<BlockDevice> owned(raw);
  IoStats stats;
  BufferManager::Options options;
  options.write_back = true;
  BufferManager manager(options);
  FileHandle* file = manager.RegisterFile(owned.get(), &stats, FileClass::kLeaf, 1);
  const auto data = Pattern(kBs, 77);
  ASSERT_TRUE(file->WriteBlock(0, data.data()).ok());  // deferred
  raw->FailBlock(0);
  std::vector<std::byte> buf(kBs);
  // Reading another block must evict-and-write-back block 0, which fails; the
  // dirty frame survives so no data is lost.
  EXPECT_FALSE(file->ReadBlock(1, buf.data()).ok());
  EXPECT_EQ(file->dirty_blocks(), 1u);
  EXPECT_EQ(stats.snapshot().TotalWrites(), 0u);
  raw->ClearFailBlock();
  EXPECT_TRUE(file->ReadBlock(1, buf.data()).ok());  // write-back now succeeds
  EXPECT_EQ(stats.snapshot().TotalWrites(), 1u);
  std::vector<std::byte> direct(kBs);
  ASSERT_TRUE(raw->Read(0, direct.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), direct.data(), kBs));
}

// --- DiskModel ----------------------------------------------------------

TEST(DiskModel, ChargesReadsAndWrites) {
  IoStatsSnapshot io;
  io.reads[static_cast<int>(FileClass::kLeaf)] = 10;
  io.writes[static_cast<int>(FileClass::kLeaf)] = 5;
  const DiskModel hdd = DiskModel::Hdd();
  EXPECT_DOUBLE_EQ(hdd.IoMicros(io), 10 * hdd.read_latency_us + 5 * hdd.write_latency_us);
  const DiskModel none = DiskModel::None();
  EXPECT_DOUBLE_EQ(none.IoMicros(io), 0.0);
}

TEST(DiskModel, SsdFasterThanHdd) {
  IoStatsSnapshot io;
  io.reads[0] = 100;
  EXPECT_LT(DiskModel::Ssd().IoMicros(io), DiskModel::Hdd().IoMicros(io));
}

TEST(DiskModel, ThroughputInvertsLatency) {
  IoStatsSnapshot io;
  io.reads[0] = 4;  // 4 blocks/op, 1 op
  const DiskModel ssd = DiskModel::Ssd();
  const double tput = ssd.ThroughputOps(1, /*cpu_micros=*/0.0, io);
  EXPECT_NEAR(tput, 1e6 / (4 * ssd.read_latency_us), 1e-6);
}

TEST(IoStatsSnapshotTest, DeltaArithmetic) {
  IoStats stats;
  stats.CountRead(FileClass::kInner);
  const IoStatsSnapshot before = stats.snapshot();
  stats.CountRead(FileClass::kInner);
  stats.CountWrite(FileClass::kLeaf);
  stats.CountLeafNodeVisit();
  const IoStatsSnapshot delta = stats.snapshot() - before;
  EXPECT_EQ(delta.ReadsFor(FileClass::kInner), 1u);
  EXPECT_EQ(delta.WritesFor(FileClass::kLeaf), 1u);
  EXPECT_EQ(delta.leaf_nodes_visited, 1u);
  EXPECT_EQ(delta.TotalIo(), 2u);
}

}  // namespace
}  // namespace liod
