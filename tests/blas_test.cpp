// Unit tests for the dense kernels: gemv/gemm against a naive reference,
// the multiple-instance batch, and the small factorizations.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "hfmm/blas/blas.hpp"
#include "hfmm/blas/kernels.hpp"
#include "hfmm/blas/linalg.hpp"
#include "hfmm/util/rng.hpp"

namespace hfmm::blas {
namespace {

std::vector<double> random_matrix(std::size_t rows, std::size_t cols,
                                  std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<double> m(rows * cols);
  for (double& v : m) v = rng.uniform(-1.0, 1.0);
  return m;
}

void naive_gemm(const double* a, const double* b, double* c, std::size_t m,
                std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      for (std::size_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j];
      c[i * n + j] += s;
    }
}

using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;

class GemmShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GemmShapes, MatchesNaive) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix(m, k, 1);
  const auto b = random_matrix(k, n, 2);
  std::vector<double> c(m * n, 0.0), ref(m * n, 0.0);
  gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, false);
  naive_gemm(a.data(), b.data(), ref.data(), m, n, k);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST_P(GemmShapes, AccumulateAddsToExisting) {
  const auto [m, n, k] = GetParam();
  const auto a = random_matrix(m, k, 3);
  const auto b = random_matrix(k, n, 4);
  std::vector<double> c(m * n, 1.0), ref(m * n, 1.0);
  gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, true);
  naive_gemm(a.data(), b.data(), ref.data(), m, n, k);
  for (std::size_t i = 0; i < m * n; ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(Shape{1, 1, 1}, Shape{3, 5, 2}, Shape{4, 4, 4},
                      Shape{12, 12, 12}, Shape{13, 12, 12}, Shape{72, 72, 72},
                      Shape{100, 12, 12}, Shape{5, 7, 11}, Shape{64, 12, 72}));

TEST(GemvTest, MatchesNaive) {
  const std::size_t m = 12, n = 12;
  const auto a = random_matrix(m, n, 5);
  const auto x = random_matrix(n, 1, 6);
  std::vector<double> y(m, 0.5), ref(m, 0.5);
  gemv(a.data(), n, x.data(), y.data(), m, n, true);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) ref[i] += a[i * n + j] * x[j];
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(y[i], ref[i], 1e-13);
}

TEST(GemvTest, OverwriteMode) {
  const auto a = random_matrix(4, 4, 7);
  const auto x = random_matrix(4, 1, 8);
  std::vector<double> y(4, 99.0);
  gemv(a.data(), 4, x.data(), y.data(), 4, 4, false);
  for (std::size_t i = 0; i < 4; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 4; ++j) s += a[i * 4 + j] * x[j];
    EXPECT_NEAR(y[i], s, 1e-13);
  }
}

TEST(GemmBatchTest, EqualsLoopOfGemms) {
  const std::size_t m = 6, n = 12, k = 12, count = 5;
  const auto a = random_matrix(count * m, k, 9);
  const auto b = random_matrix(k, n, 10);
  std::vector<double> c(count * m * n, 0.0), ref(count * m * n, 0.0);
  gemm_batch(a.data(), k, m * k, b.data(), n, 0, c.data(), n, m * n, m, n, k,
             count, false);
  for (std::size_t inst = 0; inst < count; ++inst)
    gemm(a.data() + inst * m * k, k, b.data(), n, ref.data() + inst * m * n,
         n, m, n, k, false);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST(GemmBatchTest, StridedInstancesWithSharedB) {
  // stride_b = 0 shares one matrix across instances (the translation case).
  const std::size_t m = 4, n = 3, k = 3, count = 2;
  const auto a = random_matrix(count * m, k, 11);
  const auto b = random_matrix(k, n, 12);
  std::vector<double> c(count * m * n, 0.0);
  gemm_batch(a.data(), k, m * k, b.data(), n, 0, c.data(), n, m * n, m, n, k,
             count, false);
  // Second instance must use the same B as the first.
  std::vector<double> ref(m * n, 0.0);
  gemm(a.data() + m * k, k, b.data(), n, ref.data(), n, m, n, k, false);
  for (std::size_t i = 0; i < m * n; ++i)
    EXPECT_NEAR(c[m * n + i], ref[i], 1e-12);
}

// Every m x n tail combination in 1..9 at a small and a large k: exercises
// the micro-kernel full tiles and the partial-width and row-tail staging
// paths of the blocked driver in one sweep.
TEST(GemmTailTest, AllSmallShapesMatchNaive) {
  for (const std::size_t k : {1, 7, 12}) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t n = 1; n <= 9; ++n) {
        const auto a = random_matrix(m, k, 100 * m + 10 * n + k);
        const auto b = random_matrix(k, n, 200 * m + 10 * n + k);
        for (const bool accumulate : {false, true}) {
          std::vector<double> c(m * n, 0.25), ref(m * n, 0.25);
          if (!accumulate) {
            std::fill(c.begin(), c.end(), -3.0);  // must be overwritten
            std::fill(ref.begin(), ref.end(), 0.0);
          }
          gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, accumulate);
          naive_gemm(a.data(), b.data(), ref.data(), m, n, k);
          for (std::size_t i = 0; i < m * n; ++i)
            ASSERT_NEAR(c[i], ref[i], 1e-12)
                << "m=" << m << " n=" << n << " k=" << k
                << " acc=" << accumulate;
        }
      }
    }
  }
}

// The gathered translations rely on this: a row of C has the same bits
// whether it lands in a full row tile or in the tail of a product, so a
// target's result does not depend on how the targets were blocked.
TEST(GemmTest, RowBitsDoNotDependOnRowPosition) {
  const KernelKind before = active_kernel_kind();
  for (const KernelKind kind : {KernelKind::kPortable, KernelKind::kAvx2}) {
    if (!kernel_supported(kind)) continue;
    ASSERT_TRUE(select_kernel(kind));
    for (const std::size_t k : {7, 12}) {
      const std::size_t m = 11, n = 13;
      const auto a = random_matrix(m, k, 61 + k);
      const auto b = random_matrix(k, n, 62 + k);
      for (const bool accumulate : {false, true}) {
        std::vector<double> c(m * n, 0.375);
        gemm(a.data(), k, b.data(), n, c.data(), n, m, n, k, accumulate);
        for (std::size_t i = 0; i < m; ++i) {
          std::vector<double> row(n, 0.375);
          gemm(a.data() + i * k, k, b.data(), n, row.data(), n, 1, n, k,
               accumulate);
          for (std::size_t j = 0; j < n; ++j)
            ASSERT_EQ(c[i * n + j], row[j])
                << active_kernel().name << " k=" << k << " row=" << i
                << " acc=" << accumulate;
        }
      }
    }
  }
  select_kernel(before);
}

TEST(GemmTest, RespectsLeadingDimensions) {
  // Submatrix product inside larger row-major buffers.
  const std::size_t m = 6, n = 10, k = 9, lda = 15, ldb = 17, ldc = 21;
  const auto abuf = random_matrix(m, lda, 31);
  const auto bbuf = random_matrix(k, ldb, 32);
  std::vector<double> cbuf(m * ldc, 0.5), ref(m * ldc, 0.5);
  gemm(abuf.data(), lda, bbuf.data(), ldb, cbuf.data(), ldc, m, n, k, true);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t p = 0; p < k; ++p)
        ref[i * ldc + j] += abuf[i * lda + p] * bbuf[p * ldb + j];
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(cbuf[i * ldc + j], ref[i * ldc + j], 1e-12);
  // Untouched tail columns beyond n stay as initialized.
  EXPECT_EQ(cbuf[n], 0.5);
}

TEST(GemmBatchTest, StridedInstancesWithDistinctB) {
  // stride_b != 0: per-instance B matrices (no packing reuse).
  const std::size_t m = 5, n = 6, k = 4, count = 3;
  const auto a = random_matrix(count * m, k, 41);
  const auto b = random_matrix(count * k, n, 42);
  std::vector<double> c(count * m * n, 0.0), ref(count * m * n, 0.0);
  gemm_batch(a.data(), k, m * k, b.data(), n, k * n, c.data(), n, m * n, m, n,
             k, count, false);
  for (std::size_t inst = 0; inst < count; ++inst)
    gemm(a.data() + inst * m * k, k, b.data() + inst * k * n, n,
         ref.data() + inst * m * n, n, m, n, k, false);
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

TEST(GemmBatchTest, StridedLeadingDimensionInstances) {
  // A stride-2 child geometry as instances: A rows spaced lda = 2k apart,
  // C rows spaced ldc = 2k, shared B.
  const std::size_t m = 4, n = 3, k = 3, count = 2;
  const std::size_t lda = 2 * k, ldc = 2 * k;
  const auto a = random_matrix(count * m, lda, 43);
  const auto b = random_matrix(k, n, 44);
  std::vector<double> c(count * m * ldc, 1.0), ref(count * m * ldc, 1.0);
  gemm_batch(a.data(), lda, m * lda, b.data(), n, 0, c.data(), ldc, m * ldc,
             m, n, k, count, true);
  for (std::size_t inst = 0; inst < count; ++inst)
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        for (std::size_t p = 0; p < k; ++p)
          ref[(inst * m + i) * ldc + j] +=
              a[(inst * m + i) * lda + p] * b[p * n + j];
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-12);
}

// The portable and AVX2 backends must agree to rounding noise on every
// shape; both use the same panel packing and summation order, so the
// tolerance is ulp-scale, not truncation-scale.
TEST(KernelDispatchTest, PortableAndAvx2Agree) {
  if (!kernel_supported(KernelKind::kAvx2))
    GTEST_SKIP() << "no AVX2/FMA on this CPU";
  const KernelKind before = active_kernel_kind();
  for (const auto& [m, n, k] :
       {Shape{72, 72, 72}, Shape{100, 12, 12}, Shape{9, 9, 9},
        Shape{33, 17, 5}}) {
    const auto a = random_matrix(m, k, 51);
    const auto b = random_matrix(k, n, 52);
    std::vector<double> cp(m * n, 0.125), ca(m * n, 0.125);
    ASSERT_TRUE(select_kernel(KernelKind::kPortable));
    gemm(a.data(), k, b.data(), n, cp.data(), n, m, n, k, true);
    ASSERT_TRUE(select_kernel(KernelKind::kAvx2));
    gemm(a.data(), k, b.data(), n, ca.data(), n, m, n, k, true);
    for (std::size_t i = 0; i < m * n; ++i) {
      const double scale = std::max(1.0, std::abs(cp[i]));
      ASSERT_NEAR(cp[i], ca[i], 1e-14 * scale);
    }
  }
  select_kernel(before);
}

TEST(KernelDispatchTest, SelectionRoundTrips) {
  const KernelKind before = active_kernel_kind();
  EXPECT_TRUE(kernel_supported(KernelKind::kPortable));
  EXPECT_TRUE(select_kernel(KernelKind::kPortable));
  EXPECT_EQ(active_kernel_kind(), KernelKind::kPortable);
  EXPECT_STREQ(active_kernel().name, "portable");
  if (kernel_supported(KernelKind::kAvx2)) {
    EXPECT_TRUE(select_kernel(KernelKind::kAvx2));
    EXPECT_STREQ(active_kernel().name, "avx2");
  }
  select_kernel(before);
}

TEST(FlopCountTest, Formulas) {
  EXPECT_EQ(gemv_flops(3, 4), 24u);
  EXPECT_EQ(gemm_flops(2, 3, 4), 48u);
}

TEST(PeakTest, MeasuresPositiveRate) {
  const double peak = measure_peak_flops(48, 0.01);
  EXPECT_GT(peak, 1e7);  // any machine manages 10 Mflop/s
}

TEST(CholeskyTest, FactorsSpdMatrix) {
  // A = L L^T for a known L.
  std::vector<double> a{4, 2, 2, 2, 5, 3, 2, 3, 6};
  ASSERT_TRUE(cholesky(a.data(), 3));
  EXPECT_NEAR(a[0], 2.0, 1e-12);       // L00 = sqrt(4)
  EXPECT_NEAR(a[3], 1.0, 1e-12);       // L10 = 2/2
}

TEST(CholeskyTest, RejectsIndefinite) {
  std::vector<double> a{1, 2, 2, 1};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky(a.data(), 2));
}

TEST(SolveSpdTest, SolvesKnownSystem) {
  const std::vector<double> a{4, 2, 2, 3};
  const std::vector<double> b{10, 8};
  std::vector<double> x(2);
  ASSERT_TRUE(solve_spd(a, 2, b.data(), x.data()));
  EXPECT_NEAR(4 * x[0] + 2 * x[1], 10.0, 1e-12);
  EXPECT_NEAR(2 * x[0] + 3 * x[1], 8.0, 1e-12);
}

TEST(MinNormTest, SatisfiesConstraints) {
  // One constraint, three unknowns: w0 + w1 + w2 = 1.
  const std::vector<double> m{1, 1, 1};
  const double t = 1.0;
  std::vector<double> w(3);
  ASSERT_TRUE(min_norm_solve(m, 1, 3, &t, w.data()));
  EXPECT_NEAR(w[0] + w[1] + w[2], 1.0, 1e-12);
  // Minimum-norm solution is uniform.
  EXPECT_NEAR(w[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(w[1], 1.0 / 3.0, 1e-12);
}

}  // namespace
}  // namespace hfmm::blas
