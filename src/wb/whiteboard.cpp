#include "src/wb/whiteboard.h"

namespace wb {

void Whiteboard::rewind_cache(std::size_t new_count) {
  if (cache_->rollback != nullptr && cache_.use_count() == 1) {
    cache_->rollback(*cache_, *entries_, new_count);
  } else {
    cache_.reset();
  }
}

}  // namespace wb
