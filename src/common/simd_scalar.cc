// Scalar reference kernel for the SIMD scans. This TU is compiled WITHOUT
// the widened ISA flags the kernel TUs may get (see LINREC_SIMD_AVX2), so
// its loop stays the honest portable baseline: what a scalar-fallback
// build runs, and what the scan_sigma microbench measures the vector
// kernels against.

#include "common/simd.h"

namespace linrec {
namespace simd {

unsigned BlockEqMaskScalar(const std::int64_t* col, std::size_t stride,
                           std::int64_t v) {
  unsigned mask = 0;
  for (std::size_t i = 0; i < kLanes; ++i) {
    mask |= static_cast<unsigned>(col[i * stride] == v) << i;
  }
  return mask;
}

}  // namespace simd
}  // namespace linrec
