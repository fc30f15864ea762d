// The vector scan kernels. Include this header ONLY from a translation
// unit that may legitimately be compiled with widened ISA flags (today:
// storage/relation.cc and eval/apply.cc — see LINREC_SIMD_AVX2 in
// CMakeLists.txt). Everything here has internal linkage, so each TU gets
// its own copy compiled with its own flags and the linker can never leak
// an AVX2 instantiation into a baseline TU.
//
// Implementation notes:
//  * GCC/Clang generic vector extensions, no intrinsics: the same source
//    lowers to SSE2 pairs on baseline x86-64, single 256-bit ops under
//    -mavx2, and scalar code on any other target.
//  * All loads are unaligned-capable (the aligned(8) typedef); the pool
//    allocator's 32-byte alignment makes the common case aligned anyway.
//  * Tail blocks are loaded FULL and masked in the result, never in the
//    load: every Relation pool keeps a pad block free past its rows
//    (Relation::PoolFits), so the over-read stays inside the allocation.
//    Callers must only hand these kernels pointers into a Relation pool
//    (or another buffer padded the same way).

#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd.h"

#if LINREC_SIMD

namespace linrec {
namespace simd {
namespace {

typedef std::int64_t VecI64 __attribute__((vector_size(32)));
typedef std::int64_t VecI64Unaligned
    __attribute__((vector_size(32), aligned(8)));

inline VecI64 LoadU(const std::int64_t* p) {
  return *reinterpret_cast<const VecI64Unaligned*>(p);
}

inline VecI64 Broadcast(std::int64_t v) { return VecI64{v, v, v, v}; }

/// One block (kLanes rows) of a strided column as a vector. stride 1 is a
/// straight load; stride 2 (the ubiquitous binary-relation case) is two
/// loads and a compile-time de-interleave; wider strides gather by scalar
/// insert — still one vector compare per four rows downstream.
inline VecI64 GatherColumn(const std::int64_t* col, std::size_t stride) {
  if (stride == 1) return LoadU(col);
  if (stride == 2) {
    VecI64 lo = LoadU(col);      // rows 0,1: lanes 0 and 2
    VecI64 hi = LoadU(col + 4);  // rows 2,3: lanes 0 and 2
    return __builtin_shufflevector(lo, hi, 0, 2, 4, 6);
  }
  return VecI64{col[0], col[stride], col[2 * stride], col[3 * stride]};
}

/// Equality mask of one full block: bit i set iff col[i * stride] == v.
/// Reads kLanes rows unconditionally (see the tail-padding note above).
inline unsigned BlockEqMask(const std::int64_t* col, std::size_t stride,
                            std::int64_t v) {
  VecI64 eq = GatherColumn(col, stride) == Broadcast(v);
  return static_cast<unsigned>((eq[0] & 1) | ((eq[1] & 1) << 1) |
                               ((eq[2] & 1) << 2) | ((eq[3] & 1) << 3));
}

}  // namespace
}  // namespace simd
}  // namespace linrec

#endif  // LINREC_SIMD
