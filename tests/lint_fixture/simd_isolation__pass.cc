// simd-isolation pass fixture: merge and sort work routed through the
// portable common/small_sort.h helpers keeps raw intrinsics out of this
// file.

#include <cstdint>

#include "disttrack/common/small_sort.h"

namespace disttrack {

uint64_t MergeHeads(const uint64_t* a, const uint64_t* b, uint64_t* out) {
  MergeSorted(a, 4, b, 4, out);
  return out[0];
}

void SortShortRun(uint64_t* v, size_t n) { SortRun(v, n); }

}  // namespace disttrack
