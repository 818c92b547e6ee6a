#include "exec/vector_kernels.h"

#if defined(__x86_64__) || defined(_M_X64)
#define SJOS_KERNELS_X86 1
#include <emmintrin.h>
#else
#define SJOS_KERNELS_X86 0
#endif

// The scalar references are the measured baseline and the fuzz oracle;
// keep them honestly scalar even at -O3 / -march=native so the speedups
// in BENCH_kernels.json compare like with like.
#if defined(__clang__)
#define SJOS_NO_AUTOVEC
#define SJOS_NO_AUTOVEC_LOOP _Pragma("clang loop vectorize(disable)")
#elif defined(__GNUC__)
#define SJOS_NO_AUTOVEC \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#define SJOS_NO_AUTOVEC_LOOP
#else
#define SJOS_NO_AUTOVEC
#define SJOS_NO_AUTOVEC_LOOP
#endif

namespace sjos {

const char* SimdIsa() { return SJOS_KERNELS_X86 ? "sse2" : "scalar"; }

namespace kernels {

// --------------------------------------------------------------------------
// Plain loops (branchless compaction where the kernel selects).

size_t SelEqualsU32(const uint32_t* vals, size_t n, uint32_t v,
                    uint32_t* sel) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    sel[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(vals[i] == v);
  }
  return k;
}

size_t RunLengthEnd(const NodeId* col, size_t n, size_t i) {
  const NodeId v = col[i];
  size_t j = i + 1;
  while (j < n && col[j] == v) ++j;
  return j;
}

void GatherU32(const uint32_t* src, const uint32_t* idx, size_t n,
               uint32_t* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[idx[i]];
}

// --------------------------------------------------------------------------
// Scalar references of the SSE2 kernels (kept un-vectorized, see above).

SJOS_NO_AUTOVEC
size_t SelEqualsU16Scalar(const uint16_t* vals, size_t n, uint16_t v,
                          uint32_t* sel) {
  size_t k = 0;
  SJOS_NO_AUTOVEC_LOOP
  for (size_t i = 0; i < n; ++i) {
    sel[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(vals[i] == v);
  }
  return k;
}

SJOS_NO_AUTOVEC
bool IsNonDecreasingScalar(const NodeId* col, size_t n) {
  SJOS_NO_AUTOVEC_LOOP
  for (size_t i = 1; i < n; ++i) {
    if (col[i - 1] > col[i]) return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// SSE2 kernels. x86-64 guarantees SSE2.

#if SJOS_KERNELS_X86

size_t SelEqualsU16(const uint16_t* vals, size_t n, uint16_t v,
                    uint32_t* sel) {
  size_t k = 0;
  size_t i = 0;
  const __m128i target = _mm_set1_epi16(static_cast<short>(v));
  for (; i + 8 <= n; i += 8) {
    const __m128i eq = _mm_cmpeq_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(vals + i)), target);
    const unsigned mask = static_cast<unsigned>(_mm_movemask_epi8(eq));
    if (mask == 0) continue;
    for (unsigned b = 0; b < 8; ++b) {
      sel[k] = static_cast<uint32_t>(i + b);
      k += (mask >> (2 * b)) & 1u;
    }
  }
  for (; i < n; ++i) {
    sel[k] = static_cast<uint32_t>(i);
    k += static_cast<size_t>(vals[i] == v);
  }
  return k;
}

bool IsNonDecreasing(const NodeId* col, size_t n) {
  if (n < 2) return true;
  size_t i = 0;
  // SSE2 has only a signed 32-bit compare; flipping the sign bit (the
  // bias) maps unsigned order onto signed order.
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  for (; i + 5 <= n; i += 4) {
    const __m128i a = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i)), bias);
    const __m128i b = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i + 1)), bias);
    if (_mm_movemask_ps(_mm_castsi128_ps(_mm_cmpgt_epi32(a, b))) != 0) {
      return false;
    }
  }
  for (; i + 1 < n; ++i) {
    if (col[i] > col[i + 1]) return false;
  }
  return true;
}

#else  // !SJOS_KERNELS_X86: the scalar references are the kernels.

size_t SelEqualsU16(const uint16_t* vals, size_t n, uint16_t v,
                    uint32_t* sel) {
  return SelEqualsU16Scalar(vals, n, v, sel);
}

bool IsNonDecreasing(const NodeId* col, size_t n) {
  return IsNonDecreasingScalar(col, n);
}

#endif  // SJOS_KERNELS_X86

}  // namespace kernels
}  // namespace sjos
