#include "core/index_factory.h"

#include <optional>

#include "alex/alex_index.h"
#include "btree/btree_index.h"
#include "fiting/fiting_tree_index.h"
#include "hybrid/hybrid_index.h"
#include "lipp/lipp_index.h"
#include "pgm/dynamic_pgm_index.h"
#include "updates/buffered_index.h"

namespace liod {

namespace {

enum class Group { kStudied, kVariant, kHybrid };

struct FactoryEntry {
  const char* name;
  Group group;  ///< which of the name lists below holds it
  std::unique_ptr<DiskIndex> (*make)(const IndexOptions& options);
};

template <typename Index>
std::unique_ptr<DiskIndex> Make(const IndexOptions& options) {
  return std::make_unique<Index>(options);
}

template <HybridInner kInner>
std::unique_ptr<DiskIndex> MakeHybrid(const IndexOptions& options) {
  return std::make_unique<HybridIndex>(options, kInner);
}

std::unique_ptr<DiskIndex> MakeAlexLayout1(const IndexOptions& options) {
  IndexOptions layout1 = options;
  layout1.alex_layout = AlexLayout::kSingleFile;
  return std::make_unique<AlexIndex>(layout1);
}

/// The one table of factory names: MakeIndex and every name list read it.
/// The studied five keep the paper's presentation order.
constexpr FactoryEntry kFactory[] = {
    {"btree", Group::kStudied, Make<BTreeIndex>},
    {"fiting", Group::kStudied, Make<FitingTreeIndex>},
    {"pgm", Group::kStudied, Make<DynamicPgmIndex>},
    {"alex", Group::kStudied, Make<AlexIndex>},
    {"lipp", Group::kStudied, Make<LippIndex>},
    {"alex-l1", Group::kVariant, MakeAlexLayout1},
    {"hybrid-fiting", Group::kHybrid, MakeHybrid<HybridInner::kFiting>},
    {"hybrid-pgm", Group::kHybrid, MakeHybrid<HybridInner::kPgm>},
    {"hybrid-alex", Group::kHybrid, MakeHybrid<HybridInner::kAlex>},
    {"hybrid-lipp", Group::kHybrid, MakeHybrid<HybridInner::kLipp>},
};

/// The table's names, in table order; only `group`'s when given.
const std::vector<std::string>* NewNameList(std::optional<Group> group) {
  auto* names = new std::vector<std::string>;
  for (const FactoryEntry& entry : kFactory) {
    if (!group || entry.group == *group) names->emplace_back(entry.name);
  }
  return names;
}

}  // namespace

std::unique_ptr<DiskIndex> MakeIndex(const std::string& name, const IndexOptions& options) {
  const FactoryEntry* entry = nullptr;
  for (const FactoryEntry& candidate : kFactory) {
    if (name == candidate.name) entry = &candidate;
  }
  if (entry == nullptr) return nullptr;
  std::unique_ptr<DiskIndex> index = entry->make(options);
  // Out-of-place update mode: one decorator gives every factory index the
  // buffered write path with zero per-index changes. Disabled (the paper's
  // in-place default) constructs nothing, keeping I/O bit-exact. Durability
  // is a property of that buffered path, so asking for it alone also wraps
  // (with the decorator's minimal 1-block staging area).
  if (options.update_buffer_blocks > 0 || options.durability != DurabilityPolicy::kNone) {
    index = std::make_unique<UpdateBufferedIndex>(options, std::move(index));
  }
  return index;
}

const std::vector<std::string>& IndexNames() {
  static const std::vector<std::string>* names = NewNameList(std::nullopt);
  return *names;
}

const std::vector<std::string>& StudiedIndexNames() {
  static const std::vector<std::string>* names = NewNameList(Group::kStudied);
  return *names;
}

const std::vector<std::string>& HybridIndexNames() {
  static const std::vector<std::string>* names = NewNameList(Group::kHybrid);
  return *names;
}

}  // namespace liod
