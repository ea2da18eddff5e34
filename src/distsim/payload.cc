#include "distsim/payload.h"

#include <algorithm>

#include "util/logging.h"

namespace kcore::distsim {

void Payload::Grow(std::size_t need) {
  KCORE_CHECK_MSG(need <= kMaxSize, "payload of " << need
                                        << " entries exceeds the "
                                        << kMaxSize << "-entry limit");
  // Geometric growth for push_back sequences, exact for a one-shot
  // resize/reserve that more than doubles.
  const std::size_t cap =
      std::max(need, std::min<std::size_t>(std::size_t{cap_} * 2, kMaxSize));
  double* block = new double[cap];
  const double* old = data();
  std::copy(old, old + size_, block);
  FreeHeap();
  heap_ = block;
  cap_ = static_cast<std::uint32_t>(cap);
}

}  // namespace kcore::distsim
