// Smoke test for core/index_factory: every registered index name must
// construct, bulkload 10k keys, and round-trip point lookups.

#include "core/index_factory.h"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/options.h"
#include "common/types.h"
#include "test_util.h"

namespace liod {
namespace {

std::vector<std::string> AllRegisteredNames() {
  std::vector<std::string> names = StudiedIndexNames();
  names.push_back("alex-l1");
  for (const std::string& hybrid : HybridIndexNames()) names.push_back(hybrid);
  return names;
}

TEST(FactoryTest, UnknownNameReturnsNull) {
  EXPECT_EQ(MakeIndex("no-such-index", IndexOptions{}), nullptr);
  EXPECT_EQ(MakeIndex("", IndexOptions{}), nullptr);
}

TEST(FactoryTest, StudiedNamesAreFiveAndHybridsFour) {
  EXPECT_EQ(StudiedIndexNames().size(), 5u);
  EXPECT_EQ(HybridIndexNames().size(), 4u);
  EXPECT_EQ(IndexNames(), AllRegisteredNames());
}

TEST(FactoryTest, EveryNameConstructsBulkloadsAndRoundTrips) {
  const std::vector<Key> keys = testing_util::UniformKeys(10'000);
  const std::vector<Record> records = testing_util::ToRecords(keys);

  for (const std::string& name : AllRegisteredNames()) {
    SCOPED_TRACE(name);
    std::unique_ptr<DiskIndex> index = MakeIndex(name, IndexOptions{});
    ASSERT_NE(index, nullptr);
    EXPECT_FALSE(index->name().empty());

    ASSERT_TRUE(index->Bulkload(records).ok());

    // Round-trip every 97th key plus the extremes.
    for (std::size_t i = 0; i < keys.size(); i += 97) {
      Payload payload = 0;
      bool found = false;
      ASSERT_TRUE(index->Lookup(keys[i], &payload, &found).ok());
      ASSERT_TRUE(found) << "key index " << i;
      EXPECT_EQ(payload, PayloadFor(keys[i]));
    }
    Payload payload = 0;
    bool found = false;
    ASSERT_TRUE(index->Lookup(keys.back(), &payload, &found).ok());
    EXPECT_TRUE(found);
    EXPECT_EQ(payload, PayloadFor(keys.back()));

    // A key absent from the load set must not be found.
    ASSERT_TRUE(index->Lookup(0, &payload, &found).ok());
    EXPECT_FALSE(found);
  }
}

}  // namespace
}  // namespace liod
