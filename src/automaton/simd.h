// Portable SIMD primitives for the vectorized transition kernels
// (engine/regular_engine.cc StepKernelSimd / StepStripe; see docs/PERF.md
// "Vectorized kernels").
//
// The instruction set is selected at configure time:
//
//   * AVX2 (4 double lanes)  — x86-64 with -march=native/-mavx2,
//   * SSE2 (2 double lanes)  — the x86-64 baseline, always present,
//   * NEON (2 double lanes)  — aarch64,
//   * scalar fallback        — LAHAR_SCALAR_KERNELS=ON (defines
//                              LAHAR_NO_SIMD) or an unknown ISA; plain
//                              loops the compiler may auto-vectorize.
//
// Bit-identity discipline: every helper here is *elementwise* — no
// horizontal reductions — so lane order never changes the floating-point
// result, and every multiply-accumulate is written as a separate multiply
// and add (never an FMA intrinsic; the build also sets -ffp-contract=off)
// so vector, scalar-fallback, and reference-path arithmetic round
// identically. kLanes only changes how many chains a stripe packs, never
// the numbers.
#ifndef LAHAR_AUTOMATON_SIMD_H_
#define LAHAR_AUTOMATON_SIMD_H_

#include <cstddef>

#if !defined(LAHAR_NO_SIMD) && defined(__AVX2__)
#include <immintrin.h>
#define LAHAR_SIMD_AVX2 1
#elif !defined(LAHAR_NO_SIMD) && defined(__SSE2__)
#include <emmintrin.h>
#define LAHAR_SIMD_SSE2 1
#elif !defined(LAHAR_NO_SIMD) && defined(__ARM_NEON)
#include <arm_neon.h>
#define LAHAR_SIMD_NEON 1
#endif

namespace lahar {
namespace simd {

#if defined(LAHAR_SIMD_AVX2)
inline constexpr size_t kLanes = 4;
inline const char* IsaName() { return "avx2"; }
#elif defined(LAHAR_SIMD_SSE2)
inline constexpr size_t kLanes = 2;
inline const char* IsaName() { return "sse2"; }
#elif defined(LAHAR_SIMD_NEON)
inline constexpr size_t kLanes = 2;
inline const char* IsaName() { return "neon"; }
#else
// Stripes still interleave two chains so the fallback loops stay
// auto-vectorizable; all math is plain scalar C++.
inline constexpr size_t kLanes = 2;
inline const char* IsaName() { return "scalar"; }
#endif

/// w[i] = row[i] * p for i in [0, n).
inline void ScaleRow(double* w, const double* row, double p, size_t n) {
  size_t i = 0;
#if defined(LAHAR_SIMD_AVX2)
  const __m256d pv = _mm256_set1_pd(p);
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(w + i, _mm256_mul_pd(_mm256_loadu_pd(row + i), pv));
  }
#elif defined(LAHAR_SIMD_SSE2)
  const __m128d pv = _mm_set1_pd(p);
  for (; i + 2 <= n; i += 2) {
    _mm_storeu_pd(w + i, _mm_mul_pd(_mm_loadu_pd(row + i), pv));
  }
#elif defined(LAHAR_SIMD_NEON)
  const float64x2_t pv = vdupq_n_f64(p);
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(w + i, vmulq_f64(vld1q_f64(row + i), pv));
  }
#endif
  for (; i < n; ++i) w[i] = row[i] * p;
}

/// dst[i] += w[i] * ip for i in [0, n) — separate multiply and add.
inline void AxpyConst(double* dst, const double* w, double ip, size_t n) {
  size_t i = 0;
#if defined(LAHAR_SIMD_AVX2)
  const __m256d iv = _mm256_set1_pd(ip);
  for (; i + 4 <= n; i += 4) {
    const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(w + i), iv);
    _mm256_storeu_pd(dst + i, _mm256_add_pd(_mm256_loadu_pd(dst + i), prod));
  }
#elif defined(LAHAR_SIMD_SSE2)
  const __m128d iv = _mm_set1_pd(ip);
  for (; i + 2 <= n; i += 2) {
    const __m128d prod = _mm_mul_pd(_mm_loadu_pd(w + i), iv);
    _mm_storeu_pd(dst + i, _mm_add_pd(_mm_loadu_pd(dst + i), prod));
  }
#elif defined(LAHAR_SIMD_NEON)
  const float64x2_t iv = vdupq_n_f64(ip);
  for (; i + 2 <= n; i += 2) {
    const float64x2_t prod = vmulq_f64(vld1q_f64(w + i), iv);
    vst1q_f64(dst + i, vaddq_f64(vld1q_f64(dst + i), prod));
  }
#endif
  for (; i < n; ++i) dst[i] += w[i] * ip;
}

/// Strided form of AxpyConst for a lane-interleaved chain stepping alone:
/// dst[i * stride] += w[i] * ip.
inline void AxpyConstStrided(double* dst, const double* w, double ip,
                             size_t n, size_t stride) {
  if (stride == 1) {
    AxpyConst(dst, w, ip, n);
    return;
  }
  for (size_t i = 0; i < n; ++i) dst[i * stride] += w[i] * ip;
}

/// True when any of p[0..lanes) is nonzero (stripe source-skip test).
inline bool AnyNonzero(const double* p, size_t lanes) {
  for (size_t l = 0; l < lanes; ++l) {
    if (p[l] != 0.0) return true;
  }
  return false;
}

/// Stripe weights: w[s * lanes + l] = p[l] * row[s] for s in [0, n).
/// `p` holds one source probability per interleaved chain lane.
inline void StripeWeights(double* w, const double* p, const double* row,
                          size_t n, size_t lanes) {
#if defined(LAHAR_SIMD_AVX2)
  if (lanes == 4) {
    const __m256d pv = _mm256_loadu_pd(p);
    for (size_t s = 0; s < n; ++s) {
      _mm256_storeu_pd(w + s * 4, _mm256_mul_pd(pv, _mm256_set1_pd(row[s])));
    }
    return;
  }
#elif defined(LAHAR_SIMD_SSE2)
  if (lanes == 2) {
    const __m128d pv = _mm_loadu_pd(p);
    for (size_t s = 0; s < n; ++s) {
      _mm_storeu_pd(w + s * 2, _mm_mul_pd(pv, _mm_set1_pd(row[s])));
    }
    return;
  }
#elif defined(LAHAR_SIMD_NEON)
  if (lanes == 2) {
    const float64x2_t pv = vld1q_f64(p);
    for (size_t s = 0; s < n; ++s) {
      vst1q_f64(w + s * 2, vmulq_f64(pv, vdupq_n_f64(row[s])));
    }
    return;
  }
#endif
  for (size_t s = 0; s < n; ++s) {
    for (size_t l = 0; l < lanes; ++l) w[s * lanes + l] = p[l] * row[s];
  }
}

/// Stripe accumulate: dst[s * lanes + l] += w[s * lanes + l] * ip[l] for
/// s in [0, n) — ip holds one independent-mask probability per lane.
inline void StripeAccum(double* dst, const double* w, const double* ip,
                        size_t n, size_t lanes) {
#if defined(LAHAR_SIMD_AVX2)
  if (lanes == 4) {
    const __m256d iv = _mm256_loadu_pd(ip);
    for (size_t s = 0; s < n; ++s) {
      const __m256d prod = _mm256_mul_pd(_mm256_loadu_pd(w + s * 4), iv);
      _mm256_storeu_pd(dst + s * 4,
                       _mm256_add_pd(_mm256_loadu_pd(dst + s * 4), prod));
    }
    return;
  }
#elif defined(LAHAR_SIMD_SSE2)
  if (lanes == 2) {
    const __m128d iv = _mm_loadu_pd(ip);
    for (size_t s = 0; s < n; ++s) {
      const __m128d prod = _mm_mul_pd(_mm_loadu_pd(w + s * 2), iv);
      _mm_storeu_pd(dst + s * 2,
                    _mm_add_pd(_mm_loadu_pd(dst + s * 2), prod));
    }
    return;
  }
#elif defined(LAHAR_SIMD_NEON)
  if (lanes == 2) {
    const float64x2_t iv = vld1q_f64(ip);
    for (size_t s = 0; s < n; ++s) {
      const float64x2_t prod = vmulq_f64(vld1q_f64(w + s * 2), iv);
      vst1q_f64(dst + s * 2, vaddq_f64(vld1q_f64(dst + s * 2), prod));
    }
    return;
  }
#endif
  for (size_t s = 0; s < n; ++s) {
    for (size_t l = 0; l < lanes; ++l) {
      dst[s * lanes + l] += w[s * lanes + l] * ip[l];
    }
  }
}

}  // namespace simd
}  // namespace lahar

#endif  // LAHAR_AUTOMATON_SIMD_H_
