// Real-I/O device tests: FileBlockDevice in direct mode (O_DIRECT and its
// counted fallback), vectored batching, byte-equality of the batch entry
// points against sequences of single-block ops on every device, and the
// bit-exact counted-I/O pin across modeled / file / direct backends.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/concurrent_runner.h"
#include "storage/block_device.h"
#include "storage/paged_file.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod {
namespace {

using testing_util::ExpectSameCountedIo;

constexpr std::size_t kBs = 4096;
constexpr FileDeviceOptions kDirectMode{.direct = true};

std::vector<std::byte> Pattern(std::size_t size, unsigned char seed) {
  std::vector<std::byte> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<std::byte>((seed + i * 31) & 0xFF);
  }
  return data;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/liod_dd_" + std::to_string(::getpid()) + "_" + name +
         ".bin";
}

// --- direct mode single-block ops --------------------------------------

TEST(DirectBlockDevice, RoundTrip) {
  const std::string path = TempPath("roundtrip");
  FileBlockDevice dev(path, kBs, kDirectMode);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(4).ok());
  const auto data = Pattern(kBs, 7);
  ASSERT_TRUE(dev.Write(2, data.data()).ok());
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(dev.Read(2, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
  std::remove(path.c_str());
}

TEST(DirectBlockDevice, GrowZeroFills) {
  const std::string path = TempPath("grow");
  FileBlockDevice dev(path, kBs, kDirectMode);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(3).ok());
  EXPECT_EQ(dev.num_blocks(), 3u);
  std::vector<std::byte> out(kBs, std::byte{0xFF});
  ASSERT_TRUE(dev.Read(2, out.data()).ok());
  for (std::size_t i = 0; i < kBs; ++i) ASSERT_EQ(out[i], std::byte{0});
  std::remove(path.c_str());
}

TEST(DirectBlockDevice, OutOfRangeFails) {
  const std::string path = TempPath("range");
  FileBlockDevice dev(path, kBs, kDirectMode);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(2).ok());
  std::vector<std::byte> buf(kBs);
  EXPECT_EQ(dev.Read(2, buf.data()).code(), Status::Code::kOutOfRange);
  EXPECT_EQ(dev.Write(5, buf.data()).code(), Status::Code::kOutOfRange);
  const BlockId bad_ids[] = {0, 7};
  std::byte* outs[] = {buf.data(), buf.data()};
  EXPECT_EQ(dev.ReadBatch(bad_ids, outs).code(), Status::Code::kOutOfRange);
  std::remove(path.c_str());
}

TEST(DirectBlockDevice, BufferedFallbackWhenODirectDisabled) {
  const std::string path = TempPath("noodirect");
  FileBlockDevice dev(path, kBs, {.direct = false});
  ASSERT_TRUE(dev.ok());
  EXPECT_FALSE(dev.using_o_direct());
  ASSERT_TRUE(dev.Grow(2).ok());
  const auto data = Pattern(kBs, 13);
  ASSERT_TRUE(dev.Write(1, data.data()).ok());
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(dev.Read(1, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
  std::remove(path.c_str());
}

TEST(DirectBlockDevice, ODirectOnTmpfsEitherWorksOrFallsBackCounted) {
  // Pre-6.4 kernels reject O_DIRECT on tmpfs (EINVAL at open); newer ones
  // quietly accept it. Either way the device must come up usable, and a
  // rejection must be visible as a counted fallback -- never silent.
  if (::access("/dev/shm", W_OK) != 0) GTEST_SKIP() << "/dev/shm not writable";
  const std::string path =
      "/dev/shm/liod_dd_" + std::to_string(::getpid()) + "_tmpfs.bin";
  FileBlockDevice dev(path, kBs, kDirectMode);
  ASSERT_TRUE(dev.ok());
  EXPECT_TRUE(dev.using_o_direct() || dev.telemetry().fallbacks() >= 1);
  ASSERT_TRUE(dev.Grow(2).ok());
  const auto data = Pattern(kBs, 21);
  ASSERT_TRUE(dev.Write(0, data.data()).ok());
  std::vector<std::byte> out(kBs);
  ASSERT_TRUE(dev.Read(0, out.data()).ok());
  EXPECT_EQ(0, std::memcmp(data.data(), out.data(), kBs));
  std::remove(path.c_str());
}

TEST(DirectBlockDevice, TruncatedFileSurfacesEofNotGarbage) {
  const std::string path = TempPath("eof");
  FileBlockDevice dev(path, kBs, kDirectMode);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(4).ok());
  // Yank the backing storage out from under the device: reads past the new
  // EOF must fail loudly (zero-byte transfer -> IoError), never return junk.
  // An EOF is no O_DIRECT rejection: the device stays in its mode and
  // counts no fallback.
  ASSERT_EQ(::truncate(path.c_str(), kBs), 0);
  const bool direct_before = dev.using_o_direct();
  const std::uint64_t fallbacks_before = dev.telemetry().fallbacks();
  std::vector<std::byte> out(kBs);
  EXPECT_FALSE(dev.Read(2, out.data()).ok());
  EXPECT_EQ(dev.using_o_direct(), direct_before);
  EXPECT_EQ(dev.telemetry().fallbacks(), fallbacks_before);
  std::remove(path.c_str());
}

// --- batch == sequence of singles, on every device ----------------------

/// Writes a distinct pattern to every block via WriteBatch over a scattered
/// id list, then verifies both ReadBatch and single Reads return the exact
/// bytes. Exercises contiguous runs, gaps, and singleton batches.
void ExpectBatchMatchesSingles(BlockDevice* dev) {
  constexpr BlockId kBlocks = 24;
  ASSERT_TRUE(dev->Grow(kBlocks).ok());

  // Contiguous run + gap + run + singleton, strictly increasing.
  const std::vector<BlockId> ids = {0, 1, 2, 3, 7, 8, 9, 15, 20, 21, 22, 23};
  std::vector<std::vector<std::byte>> payloads;
  std::vector<const std::byte*> datas;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    payloads.push_back(Pattern(kBs, static_cast<unsigned char>(3 * ids[i] + 1)));
    datas.push_back(payloads.back().data());
  }
  ASSERT_TRUE(dev->WriteBatch(ids, datas).ok());

  // Single-block reads see exactly what the batch wrote.
  std::vector<std::byte> single(kBs);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(dev->Read(ids[i], single.data()).ok()) << "block " << ids[i];
    ASSERT_EQ(0, std::memcmp(single.data(), payloads[i].data(), kBs))
        << "block " << ids[i];
  }

  // Batch reads (different grouping than the write) see the same bytes.
  std::vector<std::vector<std::byte>> outs(ids.size(), std::vector<std::byte>(kBs));
  std::vector<std::byte*> out_ptrs;
  for (auto& o : outs) out_ptrs.push_back(o.data());
  ASSERT_TRUE(dev->ReadBatch(ids, out_ptrs).ok());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(outs[i].data(), payloads[i].data(), kBs))
        << "block " << ids[i];
  }

  // Overwrite one block via a single Write; a following batch read must see
  // the new bytes (no stale bounce-buffer or ring reordering effects).
  const auto fresh = Pattern(kBs, 0xEE);
  ASSERT_TRUE(dev->Write(8, fresh.data()).ok());
  std::vector<std::byte> check(kBs);
  std::byte* check_ptr[] = {check.data()};
  const BlockId one[] = {8};
  ASSERT_TRUE(dev->ReadBatch(one, check_ptr).ok());
  EXPECT_EQ(0, std::memcmp(check.data(), fresh.data(), kBs));
}

TEST(BatchEquality, MemoryBlockDevice) {
  MemoryBlockDevice dev(kBs);
  ExpectBatchMatchesSingles(&dev);
}

TEST(BatchEquality, FileBlockDevice) {
  const std::string path = TempPath("file_batch");
  FileBlockDevice dev(path, kBs);
  ASSERT_TRUE(dev.ok());
  ExpectBatchMatchesSingles(&dev);
  std::remove(path.c_str());
}

TEST(BatchEquality, FileBlockDeviceUnbatched) {
  const std::string path = TempPath("file_nobatch");
  FileBlockDevice dev(path, kBs, {.batching = false});
  ASSERT_TRUE(dev.ok());
  ExpectBatchMatchesSingles(&dev);
  std::remove(path.c_str());
}

TEST(BatchEquality, DirectBlockDevice) {
  const std::string path = TempPath("direct_batch");
  FileBlockDevice dev(path, kBs, kDirectMode);
  ASSERT_TRUE(dev.ok());
  ExpectBatchMatchesSingles(&dev);
  std::remove(path.c_str());
}

// --- submission accounting ----------------------------------------------

TEST(DeviceTelemetry, ContiguousBatchIsOneSubmission) {
  const std::string path = TempPath("telemetry_file");
  FileBlockDevice dev(path, kBs);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(16).ok());

  std::vector<BlockId> ids(8);
  std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(kBs));
  std::vector<std::byte*> ptrs;
  for (std::size_t i = 0; i < 8; ++i) {
    ids[i] = static_cast<BlockId>(i);
    ptrs.push_back(bufs[i].data());
  }
  const std::uint64_t subs_before = dev.telemetry().submissions();
  const std::uint64_t coalesced_before = dev.telemetry().coalesced_blocks();
  ASSERT_TRUE(dev.ReadBatch(ids, ptrs).ok());
  EXPECT_EQ(dev.telemetry().submissions() - subs_before, 1u);
  EXPECT_EQ(dev.telemetry().coalesced_blocks() - coalesced_before, 7u);

  // Three runs ({0,1,2} {5,6} {9}) -> three submissions, three coalesced.
  const std::vector<BlockId> runs = {0, 1, 2, 5, 6, 9};
  std::vector<std::byte*> run_ptrs(ptrs.begin(), ptrs.begin() + 6);
  const std::uint64_t subs_mid = dev.telemetry().submissions();
  const std::uint64_t coalesced_mid = dev.telemetry().coalesced_blocks();
  ASSERT_TRUE(dev.ReadBatch(runs, run_ptrs).ok());
  EXPECT_EQ(dev.telemetry().submissions() - subs_mid, 3u);
  EXPECT_EQ(dev.telemetry().coalesced_blocks() - coalesced_mid, 3u);
  std::remove(path.c_str());
}

TEST(DeviceTelemetry, UnbatchedDeviceSubmitsPerBlock) {
  const std::string path = TempPath("telemetry_nobatch");
  FileBlockDevice dev(path, kBs, {.batching = false});
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(8).ok());
  std::vector<BlockId> ids(8);
  std::vector<std::vector<std::byte>> bufs(8, std::vector<std::byte>(kBs));
  std::vector<std::byte*> ptrs;
  for (std::size_t i = 0; i < 8; ++i) {
    ids[i] = static_cast<BlockId>(i);
    ptrs.push_back(bufs[i].data());
  }
  const std::uint64_t subs_before = dev.telemetry().submissions();
  ASSERT_TRUE(dev.ReadBatch(ids, ptrs).ok());
  EXPECT_EQ(dev.telemetry().submissions() - subs_before, 8u);
  EXPECT_EQ(dev.telemetry().coalesced_blocks(), 0u);
  std::remove(path.c_str());
}

TEST(DeviceTelemetry, BufferedRunIsOneSubmission) {
  // A contiguous run through the buffer manager reaches a batching device as
  // one submission: a write-through run's writes, and the fetch of a read's
  // uncached blocks. At one frame per file the write leaves only block 7
  // cached, so reading blocks 0-6 evicts no block of the run (one that was
  // would be read again on its own).
  testing_util::ScopedTempDir dir;
  auto owned = std::make_unique<FileBlockDevice>(dir.path() + "/run.bin", kBs);
  ASSERT_TRUE(owned->ok());
  const FileBlockDevice* dev = owned.get();
  IoStats stats;
  PagedFile file(std::move(owned), &stats, FileClass::kLeaf, {});
  (void)file.AllocateRun(8);
  const auto data = Pattern(8 * kBs, 3);
  std::uint64_t before = dev->telemetry().submissions();
  ASSERT_TRUE(file.WriteBytes(0, data.size(), data.data()).ok());
  EXPECT_EQ(dev->telemetry().submissions() - before, 1u);

  std::vector<std::byte> out(7 * kBs);
  before = dev->telemetry().submissions();
  ASSERT_TRUE(file.ReadBytes(0, out.size(), out.data()).ok());
  EXPECT_EQ(dev->telemetry().submissions() - before, 1u);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data(), out.size()));
}

TEST(DeviceTelemetry, DirectBatchCoalescesViaRingOrVectored) {
  const std::string path = TempPath("telemetry_direct");
  FileBlockDevice dev(path, kBs, kDirectMode);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.Grow(16).ok());
  std::vector<BlockId> ids(12);
  std::vector<std::vector<std::byte>> payloads;
  std::vector<const std::byte*> datas;
  for (std::size_t i = 0; i < 12; ++i) {
    ids[i] = static_cast<BlockId>(i);
    payloads.push_back(Pattern(kBs, static_cast<unsigned char>(i)));
    datas.push_back(payloads.back().data());
  }
  const std::uint64_t subs_before = dev.telemetry().submissions();
  const std::uint64_t coalesced_before = dev.telemetry().coalesced_blocks();
  ASSERT_TRUE(dev.WriteBatch(ids, datas).ok());
  // One contiguous 12-block run is one pwritev, out of the bounce arena.
  EXPECT_EQ(dev.telemetry().submissions() - subs_before, 1u);
  EXPECT_EQ(dev.telemetry().coalesced_blocks() - coalesced_before, 11u);
  std::remove(path.c_str());
}

// --- counted I/O is bit-exact across devices ----------------------------

/// The modeled evaluation numbers must be reproducible on real hardware:
/// the same YCSB-A tape over the same index must count the exact same block
/// I/O on the simulated device, buffered files, and the O_DIRECT device.
class DevicePinTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DevicePinTest, YcsbACountedIoIdenticalAcrossDevices) {
  const std::string name = GetParam();
  const auto keys = MakeDataset("fb", 3000, 24);

  WorkloadSpec spec;
  spec.type = WorkloadType::kYcsbA;
  spec.operations = 2000;
  spec.seed = 11;
  const ConcurrentWorkload workload = BuildConcurrentWorkload(keys, spec, 1);

  auto run_on = [&](DeviceKind kind) {
    IndexOptions options;
    options.alex_max_data_node_slots = 1024;
    options.device = kind;
    testing_util::ScopedTempDir dir;
    if (kind != DeviceKind::kModeled) options.device_path = dir.path();
    ShardedEngine engine({.index_name = name, .index = options});
    ConcurrentRunResult result;
    EXPECT_TRUE(RunConcurrentWorkload(&engine, workload, {}, &result).ok())
        << name << " on " << DeviceKindName(kind);
    return result;
  };

  const ConcurrentRunResult modeled = run_on(DeviceKind::kModeled);
  const ConcurrentRunResult file = run_on(DeviceKind::kFile);
  const ConcurrentRunResult direct = run_on(DeviceKind::kDirect);

  ExpectSameCountedIo(modeled.io, file.io, name + ": modeled vs file");
  ExpectSameCountedIo(modeled.io, direct.io, name + ": modeled vs direct");
  ExpectSameCountedIo(modeled.bulkload_io, file.bulkload_io,
                      name + ": bulkload modeled vs file");
  ExpectSameCountedIo(modeled.bulkload_io, direct.bulkload_io,
                      name + ": bulkload modeled vs direct");
}

INSTANTIATE_TEST_SUITE_P(Indexes, DevicePinTest,
                         ::testing::Values("btree", "fiting", "pgm", "alex", "lipp"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

}  // namespace
}  // namespace liod
