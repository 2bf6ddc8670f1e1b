// CPU capability stamp for benchmark environment records. Nothing in the
// library branches on it: the library is portable scalar code (see
// docs/ARCHITECTURE.md "SIMD verdict"). Benchmark harnesses call it to
// stamp which hardware a measurement ran on.

#ifndef DISTTRACK_COMMON_SIMD_H_
#define DISTTRACK_COMMON_SIMD_H_

namespace disttrack {
namespace simd {

/// True when cpuid reports AVX2 on this machine (false off x86-64).
inline bool Avx2Active() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace simd
}  // namespace disttrack

#endif  // DISTTRACK_COMMON_SIMD_H_
