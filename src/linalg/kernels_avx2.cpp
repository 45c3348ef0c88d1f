/// \file kernels_avx2.cpp
/// AVX2 implementations of the dispatch-table kernels.
///
/// This is the only TU compiled with -mavx2 -mfma; it is reached solely
/// through the dispatch table after the cpuid check.  Two rules keep every
/// kernel bit-identical to the scalar reference (the contract docs/perf.md
/// states and tests/test_simd.cpp enforces):
///
///   1. Vectorize ACROSS independent outputs only -- 4 batch rows of a
///      minibatch, 4 matrix columns of an update -- never within a single
///      j-ascending reduction.  Each SIMD lane then executes exactly the
///      scalar operation sequence for its output element.
///   2. No fused multiply-add anywhere: every a*b+c is an explicit
///      _mm256_mul_pd followed by _mm256_add_pd/_mm256_sub_pd, and the TU
///      is built with -ffp-contract=off so the compiler cannot fuse them
///      behind our back.  (-mfma stays on only so the feature check
///      matches what future kernels may use explicitly.)
///
/// Comparisons use _CMP_*_OQ predicates plus blends instead of
/// vmaxpd/vminpd, reproducing the scalar `<`/`>` semantics exactly for
/// NaN and signed-zero inputs (std::max keeps the first argument on NaN;
/// vmaxpd would keep the second).

#include <cstdint>
#include <cstring>
#include <immintrin.h>
#include <limits>
#include <vector>

#include "linalg/dispatch.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace oic::linalg::detail {

namespace {

/// Reusable per-thread pack buffer for the batch-transposed (SoA) panels
/// of gemm_bias / batch_max_violation.  Grows once per thread, then every
/// call is allocation-free.
std::vector<double>& pack_buffer() {
  thread_local std::vector<double> buf;
  return buf;
}

/// Pack 4 batch rows of width `cols` (stride ldx) into column-major
/// xt[j*4 + lane], so the inner product loop can broadcast one matrix
/// entry against 4 sessions per step.
inline void pack4(const double* x, std::size_t cols, std::size_t ldx, double* xt) {
  const double* r0 = x;
  const double* r1 = x + ldx;
  const double* r2 = x + 2 * ldx;
  const double* r3 = x + 3 * ldx;
  for (std::size_t j = 0; j < cols; ++j) {
    xt[4 * j + 0] = r0[j];
    xt[4 * j + 1] = r1[j];
    xt[4 * j + 2] = r2[j];
    xt[4 * j + 3] = r3[j];
  }
}

// ---- batched MLP kernels: vectorized across the batch axis -------------

void gemm_bias_avx2(const Matrix& a, const double* x, std::size_t batch,
                    std::size_t ldx, const double* b, double* y, std::size_t ldy,
                    bool relu) {
  const std::size_t rows = a.rows(), cols = a.cols();
  std::vector<double>& pack = pack_buffer();
  if (pack.size() < 4 * cols) pack.resize(4 * cols);
  double* xt = pack.data();
  const __m256d zero = _mm256_setzero_pd();

  std::size_t r = 0;
  for (; r + 4 <= batch; r += 4, x += 4 * ldx, y += 4 * ldy) {
    pack4(x, cols, ldx, xt);
    const double* p = a.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      __m256d acc = zero;
      for (std::size_t j = 0; j < cols; ++j) {
        const __m256d aij = _mm256_set1_pd(p[j]);
        const __m256d xv = _mm256_loadu_pd(xt + 4 * j);
        acc = _mm256_add_pd(acc, _mm256_mul_pd(aij, xv));
      }
      acc = _mm256_add_pd(acc, _mm256_set1_pd(b[i]));
      if (relu) {
        // s > 0 ? s : 0.0 -- GT_OQ is false for NaN and -0.0, matching the
        // scalar clamp exactly.
        const __m256d gt = _mm256_cmp_pd(acc, zero, _CMP_GT_OQ);
        acc = _mm256_blendv_pd(zero, acc, gt);
      }
      double lanes[4];
      _mm256_storeu_pd(lanes, acc);
      y[0 * ldy + i] = lanes[0];
      y[1 * ldy + i] = lanes[1];
      y[2 * ldy + i] = lanes[2];
      y[3 * ldy + i] = lanes[3];
    }
  }
  if (r < batch) scalar::gemm_bias(a, x, batch - r, ldx, b, y, ldy, relu);
}

void gemm_transpose_avx2(const Matrix& a, const double* d, std::size_t batch,
                         std::size_t ldd, double* dp, std::size_t ldp) {
  const std::size_t rows = a.rows(), cols = a.cols();
  const std::size_t cols4 = cols & ~std::size_t{3};
  for (std::size_t r = 0; r < batch; ++r, d += ldd, dp += ldp) {
    std::size_t j = 0;
    const __m256d zero = _mm256_setzero_pd();
    for (; j < cols4; j += 4) _mm256_storeu_pd(dp + j, zero);
    for (; j < cols; ++j) dp[j] = 0.0;
    const double* p = a.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      const double di = d[i];
      if (di == 0.0) continue;
      const __m256d dv = _mm256_set1_pd(di);
      j = 0;
      for (; j < cols4; j += 4) {
        const __m256d pv = _mm256_loadu_pd(p + j);
        const __m256d cur = _mm256_loadu_pd(dp + j);
        _mm256_storeu_pd(dp + j, _mm256_add_pd(cur, _mm256_mul_pd(pv, dv)));
      }
      for (; j < cols; ++j) dp[j] += p[j] * di;
    }
  }
}

void gemm_grad_accum_avx2(const double* d, std::size_t batch, std::size_t ldd,
                          const double* x, std::size_t ldx, Matrix& dw, double* db) {
  const std::size_t rows = dw.rows(), cols = dw.cols();
  const std::size_t cols4 = cols & ~std::size_t{3};
  for (std::size_t r = 0; r < batch; ++r, d += ldd, x += ldx) {
    double* p = dw.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      const double di = d[i];
      db[i] += di;
      if (di == 0.0) continue;
      const __m256d dv = _mm256_set1_pd(di);
      std::size_t j = 0;
      for (; j < cols4; j += 4) {
        const __m256d xv = _mm256_loadu_pd(x + j);
        const __m256d cur = _mm256_loadu_pd(p + j);
        _mm256_storeu_pd(p + j, _mm256_add_pd(cur, _mm256_mul_pd(dv, xv)));
      }
      for (; j < cols; ++j) p[j] += di * x[j];
    }
  }
}

void batch_max_violation_avx2(const Matrix& a, const double* b, const double* x,
                              std::size_t batch, std::size_t ldx, double* worst) {
  const std::size_t rows = a.rows(), cols = a.cols();
  if (rows == 0) {
    for (std::size_t r = 0; r < batch; ++r) worst[r] = 0.0;
    return;
  }
  std::vector<double>& pack = pack_buffer();
  if (pack.size() < 4 * cols) pack.resize(4 * cols);
  double* xt = pack.data();

  std::size_t r = 0;
  for (; r + 4 <= batch; r += 4, x += 4 * ldx) {
    pack4(x, cols, ldx, xt);
    __m256d w = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
    const double* p = a.data();
    for (std::size_t i = 0; i < rows; ++i, p += cols) {
      __m256d s = _mm256_set1_pd(-b[i]);
      for (std::size_t j = 0; j < cols; ++j) {
        const __m256d aij = _mm256_set1_pd(p[j]);
        const __m256d xv = _mm256_loadu_pd(xt + 4 * j);
        s = _mm256_add_pd(s, _mm256_mul_pd(aij, xv));
      }
      // w = scalar::max_keep_nan(w, s) == (w < s || isnan(s)) ? s : w: a
      // NaN row sum replaces w, and a NaN w then stays (LT_OQ is false on
      // NaN), exactly like the scalar kernel.
      const __m256d take = _mm256_or_pd(_mm256_cmp_pd(w, s, _CMP_LT_OQ),
                                        _mm256_cmp_pd(s, s, _CMP_UNORD_Q));
      w = _mm256_blendv_pd(w, s, take);
    }
    _mm256_storeu_pd(worst + r, w);
  }
  if (r < batch) scalar::batch_max_violation(a, b, x, batch - r, ldx, worst + r);
}

// ---- LP tableau primitives --------------------------------------------

void lp_row_sub_scaled_avx2(double* dst, const double* src, double f,
                            std::size_t n) {
  const __m256d fv = _mm256_set1_pd(f);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    const __m256d sv = _mm256_loadu_pd(src + j);
    const __m256d dv = _mm256_loadu_pd(dst + j);
    _mm256_storeu_pd(dst + j, _mm256_sub_pd(dv, _mm256_mul_pd(fv, sv)));
  }
  for (; j < n; ++j) dst[j] -= f * src[j];
}

void lp_row_add_scaled_avx2(double* dst, const double* src, double f,
                            std::size_t n) {
  const __m256d fv = _mm256_set1_pd(f);
  const std::size_t n4 = n & ~std::size_t{3};
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    const __m256d sv = _mm256_loadu_pd(src + j);
    const __m256d dv = _mm256_loadu_pd(dst + j);
    _mm256_storeu_pd(dst + j, _mm256_add_pd(dv, _mm256_mul_pd(sv, fv)));
  }
  for (; j < n; ++j) dst[j] += src[j] * f;
}

/// All-ones lanes where blocked[j + lane] != 0.
inline __m256d blocked_mask4(const unsigned char* blocked, std::size_t j) {
  std::uint32_t raw;
  std::memcpy(&raw, blocked + j, 4);
  const __m128i bytes = _mm_cvtsi32_si128(static_cast<int>(raw));
  const __m256i wide = _mm256_cvtepu8_epi64(bytes);
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(wide, _mm256_setzero_si256()));
}

/// Two-pass argmin: the sequential "v[j] < best, ties keep earliest" scan
/// picks the FIRST index attaining the global minimum, provided that
/// minimum is strictly below `thresh` -- a property of the final result,
/// not of the scan order.  Pass 1 computes the min with compare+blend
/// (NaN never selected, as in the scalar scan); pass 2 finds its first
/// index.  Bit-equal values tie exactly like the scalar scan (including
/// -0.0 == +0.0: both scans keep the first zero seen).
std::ptrdiff_t lp_argmin_core(const double* v, const unsigned char* blocked,
                              std::size_t n, double thresh) {
  const std::size_t n4 = n & ~std::size_t{3};
  const __m256d tv = _mm256_set1_pd(thresh);
  __m256d bestv = tv;
  std::size_t j = 0;
  for (; j < n4; j += 4) {
    __m256d w = _mm256_loadu_pd(v + j);
    if (blocked) {
      // Barred columns contribute `thresh`, which can never win the
      // strict < comparison.
      w = _mm256_blendv_pd(w, tv, blocked_mask4(blocked, j));
    }
    const __m256d lt = _mm256_cmp_pd(w, bestv, _CMP_LT_OQ);
    bestv = _mm256_blendv_pd(bestv, w, lt);
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, bestv);
  double best = thresh;
  bool found = false;
  for (int l = 0; l < 4; ++l) {
    if (lanes[l] < best) {
      best = lanes[l];
      found = true;
    }
  }
  for (; j < n; ++j) {
    if (blocked && blocked[j]) continue;
    if (v[j] < best) {
      best = v[j];
      found = true;
    }
  }
  if (!found) return -1;

  // Pass 2: first index equal to the minimum (skipping barred columns).
  const __m256d bv = _mm256_set1_pd(best);
  for (j = 0; j < n4; j += 4) {
    __m256d eq = _mm256_cmp_pd(_mm256_loadu_pd(v + j), bv, _CMP_EQ_OQ);
    if (blocked) eq = _mm256_andnot_pd(blocked_mask4(blocked, j), eq);
    const int mask = _mm256_movemask_pd(eq);
    if (mask != 0) {
      return static_cast<std::ptrdiff_t>(j) + __builtin_ctz(static_cast<unsigned>(mask));
    }
  }
  for (; j < n; ++j) {
    if (blocked && blocked[j]) continue;
    if (v[j] == best) return static_cast<std::ptrdiff_t>(j);
  }
  return -1;  // unreachable: `best` was read from the array
}

std::ptrdiff_t lp_argmin_avx2(const double* v, std::size_t n, double thresh) {
  return lp_argmin_core(v, nullptr, n, thresh);
}

std::ptrdiff_t lp_argmin_masked_avx2(const double* v, const unsigned char* blocked,
                                     std::size_t n, double thresh) {
  return lp_argmin_core(v, blocked, n, thresh);
}

constexpr KernelTable kAvx2Table = {
    // Within-row reductions stay scalar at every ISA (see dispatch.hpp).
    &scalar::gemv,
    &scalar::gemv_sub,
    &scalar::gemv_bias,
    &gemm_bias_avx2,
    &gemm_transpose_avx2,
    &gemm_grad_accum_avx2,
    &batch_max_violation_avx2,
    &lp_row_sub_scaled_avx2,
    &lp_row_add_scaled_avx2,
    &lp_argmin_avx2,
    &lp_argmin_masked_avx2,
};

}  // namespace

const KernelTable& avx2_table() { return kAvx2Table; }

}  // namespace oic::linalg::detail
