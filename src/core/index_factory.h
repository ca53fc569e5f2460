#ifndef LIOD_CORE_INDEX_FACTORY_H_
#define LIOD_CORE_INDEX_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/options.h"
#include "core/index.h"

namespace liod {

/// Constructs the index `name` names (one of IndexNames()); null for any
/// other name.
std::unique_ptr<DiskIndex> MakeIndex(const std::string& name, const IndexOptions& options);

/// Every name MakeIndex accepts: the five studied indexes, "alex-l1" (ALEX
/// Layout#1) and the four hybrids, in that order.
const std::vector<std::string>& IndexNames();

/// The five studied indexes (Table 1), in the paper's presentation order.
const std::vector<std::string>& StudiedIndexNames();

/// The four hybrid variants of Section 6.1.2.
const std::vector<std::string>& HybridIndexNames();

}  // namespace liod

#endif  // LIOD_CORE_INDEX_FACTORY_H_
