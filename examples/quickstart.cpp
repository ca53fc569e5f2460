// Quickstart: build any of the studied disk-resident indexes, run point
// lookups, inserts and range scans, and inspect the exact block I/O that
// every operation performed.
//
//   ./quickstart [index-name] [--device modeled|file|direct --device-path DIR]
//
// index-name: btree | fiting | pgm | alex | lipp | hybrid-* (default: alex)
// --device: storage backend of the index files -- "modeled" (default) is the
//           in-RAM simulated disk with exact counted I/O; "file"/"direct"
//           issue real syscalls under --device-path (required for those
//           kinds). Counted block I/O is identical across all three.
// --on-disk DIR: back-compat alias for --device file --device-path DIR.

#include <cstdio>
#include <string>

#include "core/index_factory.h"
#include "kv/execute.h"
#include "kv/request.h"
#include "storage/disk_model.h"
#include "workload/datasets.h"

using namespace liod;

int main(int argc, char** argv) {
  std::string index_name = "alex";
  IndexOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--on-disk" && i + 1 < argc) {
      options.device = DeviceKind::kFile;
      options.device_path = argv[++i];
    } else if (arg == "--device" && i + 1 < argc) {
      if (!DeviceKindFromName(argv[++i], &options.device)) {
        std::fprintf(stderr, "unknown device '%s' (modeled|file|direct)\n", argv[i]);
        return 2;
      }
    } else if (arg == "--device-path" && i + 1 < argc) {
      options.device_path = argv[++i];
    } else {
      index_name = arg;
    }
  }
  if (options.device != DeviceKind::kModeled && options.device_path.empty()) {
    std::fprintf(stderr, "--device %s requires --device-path DIR\n",
                 DeviceKindName(options.device));
    return 2;
  }

  auto index = MakeIndex(index_name, options);
  if (index == nullptr) {
    std::fprintf(stderr, "unknown index '%s'\n", index_name.c_str());
    return 2;
  }
  std::printf("index: %s (device: %s)\n", index->name().c_str(),
              DeviceKindName(options.device));

  // 1. Bulkload 100k keys from the fb-like dataset (payload = key + 1).
  const auto records = MakeDatasetRecords("fb", 100'000);
  CheckOk(index->Bulkload(records), "bulkload");
  index->DropCaches();
  std::printf("bulkloaded %zu records, on-disk size %.1f MiB\n", records.size(),
              index->GetIndexStats().disk_bytes / (1024.0 * 1024.0));

  // 2. Operations go through the unified KV request/response vocabulary: one
  //    batch holding a lookup, an insert, and a 10-element scan, dispatched
  //    through kv::ExecuteOnIndex (the same path the engine, runners, and
  //    server use). Per-op outcomes land in the paired responses.
  index->io_stats().Reset();
  kv::RequestBatch batch;
  batch.AddLookup(records[4242].key);
  batch.AddInsert(records[4242].key + 1, 777);  // hybrids are search-only
  batch.AddScan(records[4242].key, 10);
  batch.responses.resize(batch.requests.size());
  (void)kv::ExecuteOnIndex(index.get(), batch.requests, batch.responses);

  const kv::Response& lookup = batch.responses[0];
  CheckOk(Status(lookup.code, "lookup"), "lookup");
  std::printf("lookup key=%llu -> found=%d payload=%llu\n",
              static_cast<unsigned long long>(records[4242].key), lookup.found,
              static_cast<unsigned long long>(lookup.payload));

  // 3. Insert outcome (hybrids reject writes, matching Section 6.1.2).
  const kv::Response& insert = batch.responses[1];
  std::printf("insert: %s\n", Status::CodeName(insert.code));

  // 4. The scan's records ride back in its response slot.
  const kv::Response& scan = batch.responses[2];
  std::printf("scan of 10 from key=%llu: code=%s, %llu total block reads; first keys:",
              static_cast<unsigned long long>(records[4242].key),
              Status::CodeName(scan.code),
              static_cast<unsigned long long>(index->io_stats().snapshot().TotalReads()));
  for (std::size_t i = 0; i < scan.records.size() && i < 4; ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(scan.records[i].key));
  }
  std::printf(" ...\n");

  // 5. What would this cost on real hardware? Apply the disk cost models.
  const auto stats = index->GetIndexStats();
  std::printf("index stats: height=%llu nodes=%llu smos=%llu\n",
              static_cast<unsigned long long>(stats.height),
              static_cast<unsigned long long>(stats.node_count),
              static_cast<unsigned long long>(stats.smo_count));
  std::printf("a 4-block lookup costs ~%.2f ms on HDD, ~%.2f ms on SSD\n",
              4 * DiskModel::Hdd().read_latency_us / 1000.0,
              4 * DiskModel::Ssd().read_latency_us / 1000.0);
  return 0;
}
