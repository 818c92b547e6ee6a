// Branch-light columnar kernels for the hot execution loops: selection-
// vector builders for tag and level equality, run detection for join
// group building, the sortedness sweep over join inputs, and the gather
// that applies sort permutations and selection vectors.
//
// Each kernel has exactly one production body, chosen by measurement
// (BENCH_kernels.json, written by `bench_join_micro --json`):
//   * SelEqualsU16 and IsNonDecreasing are SSE2, the x86-64 baseline,
//     where they run 2-4x faster than the scalar loop. On other
//     architectures they are their scalar references.
//   * SelEqualsU32, RunLengthEnd and GatherU32 are plain loops; their
//     SSE2 bodies lost to or tied with the loop.
// SelEqualsU16Scalar and IsNonDecreasingScalar are the references the
// SSE2 bodies must match bit for bit. They are compiled without auto-
// vectorization so that bench_join_micro's speedup compares against an
// honestly scalar loop, and the kernel tests fuzz against them.

#ifndef SJOS_EXEC_VECTOR_KERNELS_H_
#define SJOS_EXEC_VECTOR_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "xml/node.h"

namespace sjos {

/// The instruction set the SSE2 kernels were compiled for: "sse2", or
/// "scalar" on non-x86 builds, where they are the scalar references.
const char* SimdIsa();

namespace kernels {

// --------------------------------------------------------------------------
// Selection-vector builders. Each writes the indices in [0, n) whose value
// passes the predicate into `sel` (ascending) and returns the count. `sel`
// must have room for n entries.

/// Equality selection over a 32-bit column (tag filtering).
size_t SelEqualsU32(const uint32_t* vals, size_t n, uint32_t v,
                    uint32_t* sel);

/// Equality selection over a 16-bit column (parent-child level filtering).
size_t SelEqualsU16(const uint16_t* vals, size_t n, uint16_t v,
                    uint32_t* sel);
size_t SelEqualsU16Scalar(const uint16_t* vals, size_t n, uint16_t v,
                          uint32_t* sel);

// --------------------------------------------------------------------------
// Column sweeps.

/// End (exclusive) of the maximal run col[i..j) of values equal to col[i].
/// Requires i < n. Join group boundaries on sorted columns.
size_t RunLengthEnd(const NodeId* col, size_t n, size_t i);

/// True when col[0..n) is non-decreasing (the join input contract).
bool IsNonDecreasing(const NodeId* col, size_t n);
bool IsNonDecreasingScalar(const NodeId* col, size_t n);

// --------------------------------------------------------------------------
// Data movement.

/// dst[i] = src[idx[i]] for i in [0, n) — sort permutation application.
void GatherU32(const uint32_t* src, const uint32_t* idx, size_t n,
               uint32_t* dst);

}  // namespace kernels
}  // namespace sjos

#endif  // SJOS_EXEC_VECTOR_KERNELS_H_
