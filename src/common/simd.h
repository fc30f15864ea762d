// SIMD scan-kernel support: pool-layout constants, the aligned pool
// allocator, and the always-compiled scalar reference kernel.
//
// The actual vector kernels live in common/simd_kernels.h, which is
// included ONLY by the two hot translation units (storage/relation.cc and
// eval/apply.cc) — those TUs may be compiled with wider ISA flags (see
// LINREC_SIMD_AVX2 in CMakeLists.txt), and keeping the kernels out of
// shared headers means no other TU can pick up an over-qualified
// instantiation through the linker.
//
// LINREC_SIMD is a compile-time toggle (CMake option, default ON). The
// scalar fallback is bit-identical: every kernel pair (vector, scalar)
// examines the same rows in the same order and produces the same matches,
// so closures computed by the two builds are equal row for row. CI runs the
// full test suite on both settings.
//
// The scalar kernel below is deliberately defined out of line in
// common/simd_scalar.cc, which is never compiled with the widened ISA
// flags: it is the honest baseline the scan_sigma microbench and the
// property tests compare the vector kernels against, so the compiler must
// not be allowed to auto-vectorize it into the thing it measures.

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#ifndef LINREC_SIMD
#define LINREC_SIMD 0
#endif

#ifndef LINREC_POOL_ALIGNMENT
#define LINREC_POOL_ALIGNMENT 32
#endif

namespace linrec {
namespace simd {

/// 64-bit lanes per vector block. Fixed at 4 (one 256-bit vector) in every
/// build — the scalar fallback processes the same 4-row blocks — so pool
/// padding, microbench block counts and lane-utilization stats mean the
/// same thing whichever kernel ran.
inline constexpr std::size_t kLanes = 4;

/// Rows every Relation pool capacity is rounded up to a multiple of. A
/// full-block vector load issued at the scan tail (the last `rows % kLanes`
/// rows) reads up to kLanes - 1 rows past the end; rounding the capacity —
/// not the size — up to this stride keeps that read inside the allocation
/// in every build, SIMD or not, so ASan stays clean and the kernels need no
/// tail special-case on the load side (tail lanes are masked out of the
/// *result* instead).
inline constexpr std::size_t kPadRows = kLanes;

#if LINREC_SIMD
inline constexpr bool kEnabled = true;
#else
inline constexpr bool kEnabled = false;
#endif

static_assert(!kEnabled || LINREC_POOL_ALIGNMENT >= 32,
              "LINREC_SIMD requires the pool allocation to be at least "
              "32-byte (256-bit vector) aligned; configure with "
              "-DLINREC_POOL_ALIGNMENT=32 or higher (CMake enforces this)");

/// Allocator for Relation's flat value pool: over-aligns every allocation
/// to LINREC_POOL_ALIGNMENT so a vector load of the first block is aligned
/// and no block load ever splits more cache lines than it must. Routes
/// through the aligned global operator new so the allocation-counting
/// tests (tests/join_alloc_test.cc) still observe pool growth.
template <typename T>
struct PoolAllocator {
  using value_type = T;

  static constexpr std::size_t kAlign =
      LINREC_POOL_ALIGNMENT > alignof(T) ? LINREC_POOL_ALIGNMENT : alignof(T);

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlign)));
  }
  void deallocate(T* p, std::size_t n) {
    ::operator delete(p, n * sizeof(T), std::align_val_t(kAlign));
  }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>&) const {
    return false;
  }
};

/// Scalar reference kernel (defined in common/simd_scalar.cc; see the
/// header comment for why it lives in its own TU).
///
/// Equality mask of one block of kLanes consecutive rows: bit i set iff
/// col[i * stride] == v. Never reads past row kLanes - 1.
unsigned BlockEqMaskScalar(const std::int64_t* col, std::size_t stride,
                           std::int64_t v);

}  // namespace simd
}  // namespace linrec
