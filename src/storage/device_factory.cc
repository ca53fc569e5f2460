#include "storage/device_factory.h"

#include <unistd.h>

#include <atomic>

namespace liod {

namespace {
std::atomic<std::uint64_t> g_device_counter{0};
}  // namespace

Status MakeBlockDevice(const IndexOptions& options, const std::string& label,
                       std::unique_ptr<BlockDevice>* out) {
  if (options.device == DeviceKind::kModeled) {
    *out = std::make_unique<MemoryBlockDevice>(options.block_size);
    return Status::Ok();
  }
  const std::string& dir = options.device_path;
  if (dir.empty()) {
    return Status::InvalidArgument(
        "device_path must be set when device != modeled (the CLI creates a "
        "temporary directory; library callers pass their own)");
  }
  const std::uint64_t id = g_device_counter.fetch_add(1);
  const std::string path = dir + "/liod_" + std::to_string(::getpid()) + "_" +
                           std::to_string(id) + "_" + label + ".bin";
  auto device = std::make_unique<FileBlockDevice>(
      path, options.block_size,
      FileDeviceOptions{.direct = options.device == DeviceKind::kDirect,
                        .batching = options.device_batching,
                        .metrics = options.metrics});
  if (!device->ok()) return Status::IoError("cannot create " + path);
  *out = std::move(device);
  return Status::Ok();
}

}  // namespace liod
