#pragma once
// Dense kernels used by the translation operators.
//
// Anderson's translations are K x K matrix actions on potential vectors
// (Section 3.3.3 of the paper): applied one box at a time they are BLAS-2
// (gemv); aggregated over boxes sharing a translation matrix they become
// BLAS-3 (gemm), and aggregating over independent subgrid slices yields
// multiple-instance gemm — the CMSSL feature the paper exploits. We provide
// portable equivalents with identical call shapes so the aggregation
// experiments (Table 3, Section 3.3.3) can compare the three forms.
//
// Conventions: row-major storage, C[m x n] (+)= A[m x k] * B[k x n].

#include <cstddef>
#include <cstdint>
#include <span>

namespace hfmm::blas {

/// y (+)= A x.  A is m x n row-major with leading dimension lda.
/// If accumulate is false, y is overwritten.
void gemv(const double* a, std::size_t lda, const double* x, double* y,
          std::size_t m, std::size_t n, bool accumulate);

/// C (+)= A B.  A: m x k (lda), B: k x n (ldb), C: m x n (ldc), row-major.
/// Each row of C depends only on its own row of A and on B (every tile runs
/// the same micro-kernel), so its bits do not depend on its position in A.
void gemm(const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, std::size_t m, std::size_t n,
          std::size_t k, bool accumulate);

/// Multiple-instance gemm: `count` independent products with the SAME shape,
/// each instance i using a + i*stride_a etc. Matches the CMSSL
/// multiple-instance matrix-multiplication call used in Section 3.3.3.
void gemm_batch(const double* a, std::size_t lda, std::size_t stride_a,
                const double* b, std::size_t ldb, std::size_t stride_b,
                double* c, std::size_t ldc, std::size_t stride_c,
                std::size_t m, std::size_t n, std::size_t k,
                std::size_t count, bool accumulate);

/// Floating-point operation counts (multiply+add counted separately, the
/// convention used in the paper's efficiency metric).
constexpr std::uint64_t gemv_flops(std::size_t m, std::size_t n) {
  return 2ull * m * n;
}
constexpr std::uint64_t gemm_flops(std::size_t m, std::size_t n,
                                   std::size_t k) {
  return 2ull * m * n * k;
}

/// Measured single-core peak flop rate (flops/s) from a resident gemm of the
/// given size. This calibrates the "efficiency of floating point operations"
/// metric the paper proposes for cross-machine comparison.
double measure_peak_flops(std::size_t size = 96, double min_seconds = 0.05);

/// Measured flop rate (flops/s) of the ACTIVE kernel backend (see
/// kernels.hpp) on a resident m x n x k gemm. bench_kernels pairs this with
/// select_kernel() to report per-kernel GFLOP/s in BENCH_kernels.json.
double measure_gemm_flops(std::size_t m, std::size_t n, std::size_t k,
                          double min_seconds = 0.05);

}  // namespace hfmm::blas
