// Sorted-run helpers for the rank feed: a branch-light sort for the short
// runs the batched feed produces between events, a two-array merge, and
// selection by sorted position in the merge of two arrays.
//
// A site's eventless run is sorted once before it enters the run-merge
// ladder, and at large k (small per-site spans) those sorts are short
// enough that std::sort's dispatch and pivot branches dominate. SortRun
// routes short inputs through data-independent compare-exchange networks
// (Batcher's merge-exchange, Knuth 5.2.2 Algorithm M — every compare
// compiles to min/max cmovs, no data-dependent branch) and everything
// longer through std::sort. Sorted and merged uint64 output is a pure
// function of the input multiset, so none of these helpers can change a
// tracker estimate.

#ifndef DISTTRACK_COMMON_SMALL_SORT_H_
#define DISTTRACK_COMMON_SMALL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace disttrack {

namespace small_sort_internal {

inline void CompareExchange(uint64_t* v, size_t i, size_t j) {
  uint64_t a = v[i];
  uint64_t b = v[j];
  v[i] = a < b ? a : b;  // cmov pair, no branch
  v[j] = a < b ? b : a;
}

// Batcher merge-exchange: a sorting network for any n, O(n log^2 n)
// data-independent compare-exchanges.
inline void NetworkSort(uint64_t* v, size_t n) {
  size_t t = 1;
  while ((size_t{1} << t) < n) ++t;  // t = ceil(log2 n), n >= 2
  size_t p = size_t{1} << (t - 1);
  while (p > 0) {
    size_t q = size_t{1} << (t - 1);
    size_t r = 0;
    size_t d = p;
    for (;;) {
      for (size_t i = 0; i + d < n; ++i) {
        if ((i & p) == r) CompareExchange(v, i, i + d);
      }
      if (q == p) break;
      d = q - p;
      q >>= 1;
      r = p;
    }
    p >>= 1;
  }
}

}  // namespace small_sort_internal

/// Sorts v[0, n) ascending; tuned for the short-run regime (see file
/// comment). Identical output to std::sort for any input. Measured on
/// the reference container, the network wins up to ~2x below 16
/// elements and std::sort wins beyond, so that is the cutover.
inline void SortRun(uint64_t* v, size_t n) {
  if (n < 2) return;
  if (n <= 16) {
    small_sort_internal::NetworkSort(v, n);
  } else {
    std::sort(v, v + n);
  }
}

/// Merges ascending a[0,na) and b[0,nb) into out[0, na+nb), ascending.
/// `out` must not alias the inputs. Byte-identical to std::merge output.
inline void MergeSorted(const uint64_t* a, size_t na, const uint64_t* b,
                        size_t nb, uint64_t* out) {
  size_t i = 0;
  size_t j = 0;
  while (i < na && j < nb) *out++ = a[i] <= b[j] ? a[i++] : b[j++];
  while (i < na) *out++ = a[i++];
  while (j < nb) *out++ = b[j++];
}

/// Element at sorted position i (< a + b) of the merge of ascending
/// A[0,a) and B[0,b), without materializing the merge: binary-search the
/// split point j — elements taken from A among the first i+1 of the
/// merge — in O(log min(a, b)). Equal values are interchangeable, so tie
/// placement cannot matter.
inline uint64_t TwoViewSelect(const uint64_t* A, size_t a, const uint64_t* B,
                              size_t b, size_t i) {
  size_t need = i + 1;
  size_t lo = need > b ? need - b : 0;
  size_t hi = need < a ? need : a;
  while (lo < hi) {
    size_t j = (lo + hi) / 2;
    if (A[j] < B[need - j - 1]) {
      lo = j + 1;
    } else {
      hi = j;
    }
  }
  size_t j = lo;
  if (j == 0) return B[need - 1];
  if (need == j) return A[j - 1];
  uint64_t va = A[j - 1];
  uint64_t vb = B[need - j - 1];
  return va > vb ? va : vb;
}

}  // namespace disttrack

#endif  // DISTTRACK_COMMON_SMALL_SORT_H_
