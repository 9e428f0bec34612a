#pragma once
// Internal machinery shared by the kernel backends: aligned thread-local
// packing scratch, B panel packing, partial-tile staging, and the blocked
// gemm / gemm_batch drivers templated on the 4x8 micro-kernel. Not installed.

#include <cstddef>
#include <cstdlib>
#include <cstring>

#include "hfmm/blas/blas.hpp"

namespace hfmm::blas::detail {

inline constexpr std::size_t kMR = 4;  // rows of C per micro-kernel call
inline constexpr std::size_t kNR = 8;  // columns of C per micro-kernel call

/// 64-byte-aligned thread-local scratch, grown geometrically and reused
/// across calls (the K x K translation matrices make packing buffers small
/// and hot, so reuse matters more than footprint).
inline double* packed_scratch(std::size_t doubles) {
  struct AlignedBuf {
    double* p = nullptr;
    std::size_t cap = 0;
    ~AlignedBuf() { std::free(p); }
    double* ensure(std::size_t n) {
      if (n > cap) {
        std::free(p);
        std::size_t bytes = (n * sizeof(double) + 63) & ~std::size_t{63};
        p = static_cast<double*>(std::aligned_alloc(64, bytes));
        cap = n;
      }
      return p;
    }
  };
  thread_local AlignedBuf buf;
  return buf.ensure(doubles);
}

inline std::size_t padded_n(std::size_t n) {
  return (n + kNR - 1) / kNR * kNR;
}

/// Packs B[k x n] (leading dimension ldb) into kNR-wide column panels:
/// panel jp holds k consecutive rows of kNR doubles, zero-padded past n, so
/// the micro-kernel streams it with unit stride.
inline void pack_b_panels(const double* b, std::size_t ldb, std::size_t k,
                          std::size_t n, double* packed) {
  for (std::size_t jp = 0; jp < n; jp += kNR) {
    const std::size_t nr = (n - jp < kNR) ? (n - jp) : kNR;
    double* dst = packed + jp * k;
    const double* src = b + jp;
    for (std::size_t p = 0; p < k; ++p, dst += kNR, src += ldb) {
      std::memcpy(dst, src, nr * sizeof(double));
      for (std::size_t j = nr; j < kNR; ++j) dst[j] = 0.0;
    }
  }
}

/// Blocked multiply over an already-packed B. `Micro::run` computes one full
/// kMR x kNR tile of C with accumulators held in registers for the whole k
/// loop. Partial tiles run the same micro-kernel into an aligned staging
/// tile that is merged into C after: a partial-width tile reads the
/// zero-padded panel, and the < kMR row tail is first copied into the
/// zero-padded A staging tile `as` (kMR x k). So each row of C depends only
/// on its own row of A and on B, not on its position in A.
template <class Micro>
void gemm_packed(const double* a, std::size_t lda, const double* bp,
                 double* as, double* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k, bool accumulate) {
  const std::size_t full = m / kMR * kMR;
  if (full < m) {
    std::memset(as, 0, kMR * k * sizeof(double));
    for (std::size_t r = 0; r < m - full; ++r)
      std::memcpy(as + r * k, a + (full + r) * lda, k * sizeof(double));
  }
  alignas(64) double tile[kMR * kNR];
  // Merges the first mr x nr of the staging tile into C at crow0.
  const auto merge = [&](double* crow0, std::size_t mr, std::size_t nr) {
    for (std::size_t r = 0; r < mr; ++r) {
      double* crow = crow0 + r * ldc;
      const double* trow = tile + r * kNR;
      if (accumulate)
        for (std::size_t j = 0; j < nr; ++j) crow[j] += trow[j];
      else
        for (std::size_t j = 0; j < nr; ++j) crow[j] = trow[j];
    }
  };
  for (std::size_t jp = 0; jp < n; jp += kNR) {
    const std::size_t nr = (n - jp < kNR) ? (n - jp) : kNR;
    const double* panel = bp + jp * k;
    if (nr == kNR) {
      for (std::size_t i = 0; i < full; i += kMR)
        Micro::run(a + i * lda, lda, panel, c + i * ldc + jp, ldc, k,
                   accumulate);
    } else {
      for (std::size_t i = 0; i < full; i += kMR) {
        Micro::run(a + i * lda, lda, panel, tile, kNR, k, false);
        merge(c + i * ldc + jp, kMR, nr);
      }
    }
    if (full < m) {
      Micro::run(as, k, panel, tile, kNR, k, false);
      merge(c + full * ldc + jp, m - full, nr);
    }
  }
}

/// Packing scratch of one product: the B panels, then the A staging tile.
inline double* gemm_scratch(std::size_t n, std::size_t k) {
  return packed_scratch((padded_n(n) + kMR) * (k > 0 ? k : 1));
}

template <class Micro>
void gemm_driver(const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double* c, std::size_t ldc, std::size_t m,
                 std::size_t n, std::size_t k, bool accumulate) {
  if (m == 0 || n == 0) return;
  double* bp = gemm_scratch(n, k);
  pack_b_panels(b, ldb, k, n, bp);
  gemm_packed<Micro>(a, lda, bp, bp + padded_n(n) * k, c, ldc, m, n, k,
                     accumulate);
}

/// Multiple-instance driver: when every instance shares one B (stride_b ==
/// 0, the translation-matrix case) the packing is done once and amortized
/// over all `count` products instead of re-entering gemm per instance.
template <class Micro>
void gemm_batch_driver(const double* a, std::size_t lda, std::size_t stride_a,
                       const double* b, std::size_t ldb, std::size_t stride_b,
                       double* c, std::size_t ldc, std::size_t stride_c,
                       std::size_t m, std::size_t n, std::size_t k,
                       std::size_t count, bool accumulate) {
  if (m == 0 || n == 0 || count == 0) return;
  if (stride_b == 0) {
    double* bp = gemm_scratch(n, k);
    pack_b_panels(b, ldb, k, n, bp);
    for (std::size_t inst = 0; inst < count; ++inst)
      gemm_packed<Micro>(a + inst * stride_a, lda, bp, bp + padded_n(n) * k,
                         c + inst * stride_c, ldc, m, n, k, accumulate);
  } else {
    for (std::size_t inst = 0; inst < count; ++inst)
      gemm_driver<Micro>(a + inst * stride_a, lda, b + inst * stride_b, ldb,
                         c + inst * stride_c, ldc, m, n, k, accumulate);
  }
}

}  // namespace hfmm::blas::detail

namespace hfmm::blas {

struct KernelBackend;

// Backend tables defined in kernel_portable.cpp / kernel_avx2.cpp.
const KernelBackend& portable_backend();
const KernelBackend& avx2_backend();
bool avx2_cpu_supported();

}  // namespace hfmm::blas
