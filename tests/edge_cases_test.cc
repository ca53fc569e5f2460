// Edge-case battery shared by every index: malformed bulkloads, boundary
// keys, degenerate scans, and exotic block sizes.

#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_factory.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace liod {
namespace {

using testing_util::ToRecords;
using testing_util::UniformKeys;

IndexOptions Small() {
  IndexOptions options;
  options.alex_max_data_node_slots = 1024;
  options.pgm_insert_buffer_records = 64;
  options.fiting_buffer_capacity = 32;
  return options;
}

class EdgeCaseTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EdgeCaseTest, RejectsUnsortedBulkload) {
  auto index = MakeIndex(GetParam(), Small());
  std::vector<Record> bad{{10, 1}, {5, 2}, {20, 3}};
  EXPECT_EQ(index->Bulkload(bad).code(), Status::Code::kInvalidArgument);
}

TEST_P(EdgeCaseTest, RejectsDuplicateBulkload) {
  auto index = MakeIndex(GetParam(), Small());
  std::vector<Record> bad{{10, 1}, {10, 2}};
  EXPECT_EQ(index->Bulkload(bad).code(), Status::Code::kInvalidArgument);
}

TEST_P(EdgeCaseTest, RejectsDoubleBulkload) {
  auto index = MakeIndex(GetParam(), Small());
  const auto records = ToRecords(UniformKeys(100, 1));
  ASSERT_TRUE(index->Bulkload(records).ok());
  EXPECT_EQ(index->Bulkload(records).code(), Status::Code::kFailedPrecondition);
}

TEST_P(EdgeCaseTest, SingleRecordIndex) {
  auto index = MakeIndex(GetParam(), Small());
  std::vector<Record> one{{12345, 99}};
  ASSERT_TRUE(index->Bulkload(one).ok());
  Payload p = 0;
  bool found = false;
  ASSERT_TRUE(index->Lookup(12345, &p, &found).ok());
  EXPECT_TRUE(found);
  EXPECT_EQ(p, 99u);
  ASSERT_TRUE(index->Lookup(12344, &p, &found).ok());
  EXPECT_FALSE(found);
  ASSERT_TRUE(index->Lookup(12346, &p, &found).ok());
  EXPECT_FALSE(found);
  std::vector<Record> out;
  ASSERT_TRUE(index->Scan(0, 5, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].key, 12345u);
}

TEST_P(EdgeCaseTest, ZeroLengthScan) {
  auto index = MakeIndex(GetParam(), Small());
  ASSERT_TRUE(index->Bulkload(ToRecords(UniformKeys(500, 2))).ok());
  std::vector<Record> out{{1, 1}};  // pre-populated: must be cleared
  ASSERT_TRUE(index->Scan(0, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(EdgeCaseTest, ScanBeyondMaxKeyIsEmpty) {
  auto index = MakeIndex(GetParam(), Small());
  const auto keys = UniformKeys(500, 3);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  std::vector<Record> out;
  ASSERT_TRUE(index->Scan(keys.back() + 1, 10, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_P(EdgeCaseTest, ScanCoveringWholeIndex) {
  auto index = MakeIndex(GetParam(), Small());
  const auto keys = UniformKeys(800, 4);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  std::vector<Record> out;
  ASSERT_TRUE(index->Scan(0, 10'000, &out).ok());
  ASSERT_EQ(out.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_EQ(out[i].key, keys[i]);
  }
}

TEST_P(EdgeCaseTest, AdjacentKeyProbes) {
  auto index = MakeIndex(GetParam(), Small());
  const auto keys = UniformKeys(2000, 5);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  // Probe key-1 and key+1 around stored keys: must not false-positive.
  for (std::size_t i = 100; i < 160; ++i) {
    Payload p;
    bool found = true;
    if (keys[i] - 1 != (i > 0 ? keys[i - 1] : 0)) {
      ASSERT_TRUE(index->Lookup(keys[i] - 1, &p, &found).ok());
      EXPECT_FALSE(found) << GetParam() << " key-1 of " << keys[i];
    }
    if (keys[i] + 1 != keys[i + 1]) {
      ASSERT_TRUE(index->Lookup(keys[i] + 1, &p, &found).ok());
      EXPECT_FALSE(found) << GetParam() << " key+1 of " << keys[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, EdgeCaseTest,
                         ::testing::Values("btree", "fiting", "pgm", "alex", "lipp",
                                           "hybrid-fiting", "hybrid-pgm", "hybrid-alex",
                                           "hybrid-lipp"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           std::string name = param.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Writable indexes under unusual block sizes. The index name is a std::string
// so gtest prints it by value; a const char* tuple element would print as a
// load-address-dependent pointer and make the test names differ per build.
class BlockSizeEdgeTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::size_t>> {};

TEST_P(BlockSizeEdgeTest, InsertLookupAtBlockSize) {
  const auto [name, block_size] = GetParam();
  IndexOptions options = Small();
  options.block_size = block_size;
  auto index = MakeIndex(name, options);
  const auto keys = UniformKeys(1500, 6);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(index->Insert(1 + rng.NextBounded(1ULL << 55), 1).ok())
        << name << " bs=" << block_size;
  }
  Payload p;
  bool found;
  ASSERT_TRUE(index->Lookup(keys[700], &p, &found).ok());
  EXPECT_TRUE(found);
  std::vector<Record> out;
  ASSERT_TRUE(index->Scan(keys[700], 50, &out).ok());
  EXPECT_EQ(out.size(), 50u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlockSizeEdgeTest,
    ::testing::Combine(::testing::Values("btree", "fiting", "pgm", "alex", "lipp"),
                       ::testing::Values(1024u, 8192u, 16384u)),
    [](const ::testing::TestParamInfo<BlockSizeEdgeTest::ParamType>& param) {
      return std::get<0>(param.param) + "_bs" +
             std::to_string(std::get<1>(param.param));
    });

TEST(EdgeCases, LippRejectsOversizedKeys) {
  auto index = MakeIndex("lipp", IndexOptions{});
  std::vector<Record> bad{{1ULL << 63, 1}};
  EXPECT_EQ(index->Bulkload(bad).code(), Status::Code::kInvalidArgument);
  auto ok_index = MakeIndex("lipp", IndexOptions{});
  ASSERT_TRUE(ok_index->Bulkload(ToRecords(UniformKeys(10, 8))).ok());
  EXPECT_EQ(ok_index->Insert(1ULL << 63, 1).code(), Status::Code::kInvalidArgument);
}

TEST(EdgeCases, DropCachesKeepsAnswersStable) {
  auto index = MakeIndex("alex", IndexOptions{});
  const auto keys = UniformKeys(3000, 9);
  ASSERT_TRUE(index->Bulkload(ToRecords(keys)).ok());
  Payload p1, p2;
  bool f1, f2;
  ASSERT_TRUE(index->Lookup(keys[123], &p1, &f1).ok());
  index->DropCaches();
  ASSERT_TRUE(index->Lookup(keys[123], &p2, &f2).ok());
  EXPECT_EQ(f1, f2);
  EXPECT_EQ(p1, p2);
}

}  // namespace
}  // namespace liod
