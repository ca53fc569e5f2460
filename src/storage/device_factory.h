#ifndef LIOD_STORAGE_DEVICE_FACTORY_H_
#define LIOD_STORAGE_DEVICE_FACTORY_H_

#include <memory>
#include <string>

#include "common/options.h"
#include "common/status.h"
#include "storage/block_device.h"

namespace liod {

/// Builds the block device every paged file sits on, honoring
/// options.device / device_path / device_batching. A real device is a
/// FileBlockDevice (kDirect: in direct mode) on a file named from the pid, a
/// process-wide counter, and `label` (e.g. the FileClass name), and binds its
/// submission telemetry to options.metrics. Fails with kIoError when the
/// backing file cannot be created.
Status MakeBlockDevice(const IndexOptions& options, const std::string& label,
                       std::unique_ptr<BlockDevice>* out);

}  // namespace liod

#endif  // LIOD_STORAGE_DEVICE_FACTORY_H_
