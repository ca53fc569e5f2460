// Cross-index integration tests: every index must produce identical results
// on identical operation tapes, on every dataset flavour, including when
// backed by real files instead of the simulated disk.

#include <map>
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/index_factory.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/workloads.h"

namespace liod {
namespace {

IndexOptions SmallNodes() {
  IndexOptions options;
  options.alex_max_data_node_slots = 1024;
  options.pgm_insert_buffer_records = 96;
  options.fiting_buffer_capacity = 48;
  return options;
}

/// Runs the same random op tape against all five indexes and a std::map
/// reference; all six must agree on every result.
class CrossIndexTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossIndexTest, IdenticalResultsOnSharedTape) {
  const std::string dataset = GetParam();
  const auto keys = MakeDataset(dataset, 4000, 21);
  std::vector<Record> bulk(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) bulk[i] = {keys[i], PayloadFor(keys[i])};

  std::vector<std::unique_ptr<DiskIndex>> indexes;
  for (const auto& name : StudiedIndexNames()) {
    indexes.push_back(MakeIndex(name, SmallNodes()));
    ASSERT_TRUE(indexes.back()->Bulkload(bulk).ok()) << name;
  }
  std::map<Key, Payload> reference;
  for (const auto& r : bulk) reference[r.key] = r.payload;

  Rng rng(2024);
  for (int op = 0; op < 2500; ++op) {
    const std::uint64_t dice = rng.NextBounded(100);
    const Key key = 1 + rng.NextBounded(1ULL << 52);
    if (dice < 45) {
      for (auto& index : indexes) {
        ASSERT_TRUE(index->Insert(key, key * 3).ok()) << index->name() << " op " << op;
      }
      reference[key] = key * 3;
    } else if (dice < 80) {
      const auto it = reference.find(key);
      for (auto& index : indexes) {
        Payload p = 0;
        bool found = false;
        ASSERT_TRUE(index->Lookup(key, &p, &found).ok()) << index->name();
        ASSERT_EQ(found, it != reference.end()) << index->name() << " op " << op;
        if (found) {
          ASSERT_EQ(p, it->second) << index->name();
        }
      }
    } else {
      std::vector<Record> expected;
      for (auto it = reference.lower_bound(key);
           it != reference.end() && expected.size() < 15; ++it) {
        expected.push_back({it->first, it->second});
      }
      for (auto& index : indexes) {
        std::vector<Record> out;
        ASSERT_TRUE(index->Scan(key, 15, &out).ok()) << index->name();
        ASSERT_EQ(out.size(), expected.size()) << index->name() << " op " << op;
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i].key, expected[i].key) << index->name() << " op " << op;
          ASSERT_EQ(out[i].payload, expected[i].payload) << index->name();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, CrossIndexTest,
                         ::testing::Values("ycsb", "fb", "osm", "genome", "stack"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

/// The hybrids must agree with the B+-tree on search-only tapes.
TEST(CrossIndex, HybridsMatchBTreeOnSearch) {
  const auto keys = MakeDataset("osm", 15000, 22);
  std::vector<Record> bulk(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) bulk[i] = {keys[i], PayloadFor(keys[i])};

  auto btree = MakeIndex("btree", IndexOptions{});
  ASSERT_TRUE(btree->Bulkload(bulk).ok());
  std::vector<std::unique_ptr<DiskIndex>> hybrids;
  for (const auto& name : HybridIndexNames()) {
    hybrids.push_back(MakeIndex(name, IndexOptions{}));
    ASSERT_TRUE(hybrids.back()->Bulkload(bulk).ok()) << name;
  }
  Rng rng(23);
  for (int op = 0; op < 800; ++op) {
    const Key key = 1 + rng.NextBounded(keys.back() + 1000);
    Payload expect_p = 0;
    bool expect_found = false;
    ASSERT_TRUE(btree->Lookup(key, &expect_p, &expect_found).ok());
    std::vector<Record> expect_scan;
    ASSERT_TRUE(btree->Scan(key, 10, &expect_scan).ok());
    for (auto& hybrid : hybrids) {
      Payload p = 0;
      bool found = false;
      ASSERT_TRUE(hybrid->Lookup(key, &p, &found).ok()) << hybrid->name();
      ASSERT_EQ(found, expect_found) << hybrid->name() << " key " << key;
      if (found) {
        ASSERT_EQ(p, expect_p) << hybrid->name();
      }
      std::vector<Record> scan;
      ASSERT_TRUE(hybrid->Scan(key, 10, &scan).ok()) << hybrid->name();
      ASSERT_EQ(scan.size(), expect_scan.size()) << hybrid->name() << " key " << key;
      for (std::size_t i = 0; i < scan.size(); ++i) {
        ASSERT_EQ(scan[i].key, expect_scan[i].key) << hybrid->name();
      }
    }
  }
}

/// Every index behaves identically when backed by real files.
class RealFileTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RealFileTest, FileBackedMatchesSimulated) {
  const std::string name = GetParam();
  const auto keys = MakeDataset("fb", 3000, 24);
  std::vector<Record> bulk(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) bulk[i] = {keys[i], PayloadFor(keys[i])};

  IndexOptions mem_options = SmallNodes();
  IndexOptions file_options = SmallNodes();
  file_options.device = DeviceKind::kFile;
  testing_util::ScopedTempDir dir;
  file_options.device_path = dir.path();

  auto mem_index = MakeIndex(name, mem_options);
  auto file_index = MakeIndex(name, file_options);
  ASSERT_TRUE(mem_index->Bulkload(bulk).ok());
  ASSERT_TRUE(file_index->Bulkload(bulk).ok());

  Rng rng(25);
  for (int op = 0; op < 600; ++op) {
    const Key key = 1 + rng.NextBounded(1ULL << 52);
    if (rng.NextBounded(2) == 0) {
      ASSERT_TRUE(mem_index->Insert(key, key).ok());
      ASSERT_TRUE(file_index->Insert(key, key).ok());
    } else {
      Payload p1 = 0, p2 = 0;
      bool f1 = false, f2 = false;
      ASSERT_TRUE(mem_index->Lookup(key, &p1, &f1).ok());
      ASSERT_TRUE(file_index->Lookup(key, &p2, &f2).ok());
      ASSERT_EQ(f1, f2) << name << " op " << op;
      if (f1) {
        ASSERT_EQ(p1, p2);
      }
    }
  }
  // I/O accounting must be identical regardless of the backing device.
  EXPECT_EQ(mem_index->io_stats().snapshot().TotalReads(),
            file_index->io_stats().snapshot().TotalReads())
      << name;
}

INSTANTIATE_TEST_SUITE_P(AllIndexes, RealFileTest,
                         ::testing::Values("btree", "fiting", "pgm", "alex", "lipp"),
                         [](const ::testing::TestParamInfo<const char*>& param) {
                           return std::string(param.param);
                         });

}  // namespace
}  // namespace liod
