#include "fpm/miner.h"

namespace scube {
namespace fpm {

Status ValidateMinerOptions(const MinerOptions& options) {
  if (options.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (options.max_length < 1) {
    return Status::InvalidArgument("max_length must be >= 1");
  }
  for (uint8_t c : options.item_class) {
    if (c > 1) return Status::InvalidArgument("item classes must be 0 or 1");
  }
  return Status::OK();
}

}  // namespace fpm
}  // namespace scube
