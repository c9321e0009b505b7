// Width-generic kernel bodies behind the kernels:: dispatch seam.
//
// INTERNAL header: included only by common/simd.cpp, which instantiates
// each template at widths 1 (scalar), 2 (128-bit baseline) and 4 (AVX2,
// inside target("avx2") wrappers). Everything lives in an unnamed
// namespace and is force-inlined so each flavor's code is emitted
// exactly once, inside the dispatch TU, with that flavor's ISA — no
// cross-flavor symbol sharing, no ODR surprises in -O0 builds.
//
// Parity rule for every body: the per-element arithmetic and its order
// must be identical at every width. Lane-parallel evaluation, operand
// swaps of commutative ops (a+b / b+a, a*b / b*a) and a-b vs a+(-b) are
// bit-exact under IEEE-754 and therefore allowed; different summation
// orders, fused multiply-adds and algebraic re-association are not.
// std::complex is only reinterpreted to Real pairs (guaranteed layout),
// never operated on, so no libstdc++ inline code lands in AVX2 wrappers.
#pragma once

#include <cstddef>

#include "common/simd.hpp"

namespace esl::kernels {
namespace {
namespace impl {

using simd::Pack;

/// {-1, +1, -1, +1, ...}: exact sign flip for even (real) lanes.
template <int W>
ESL_SIMD_INLINE Pack<Real, W> negate_even_signs() {
  Pack<Real, W> r;
  for (int i = 0; i < W; ++i) {
    r.v[i] = (i % 2 == 0) ? Real(-1.0) : Real(1.0);
  }
  return r;
}

/// {+1, -1, +1, -1, ...}: exact sign flip for odd (imaginary) lanes.
template <int W>
ESL_SIMD_INLINE Pack<Real, W> negate_odd_signs() {
  Pack<Real, W> r;
  for (int i = 0; i < W; ++i) {
    r.v[i] = (i % 2 == 0) ? Real(1.0) : Real(-1.0);
  }
  return r;
}

/// Interleaved complex multiply x * w for packs of W/2 complex elements:
/// even lanes get xr*wr - xi*wi, odd lanes xi*wr + xr*wi — the exact
/// scalar (ac-bd, ad+bc) product up to bit-exact operand commutation.
template <int W>
ESL_SIMD_INLINE Pack<Real, W> complex_mul(Pack<Real, W> x, Pack<Real, W> w,
                                          Pack<Real, W> neg_even) {
  return x * simd::dup_even(w) +
         neg_even * (simd::swap_pairs(x) * simd::dup_odd(w));
}

// ------------------------------------------------------------- fft_stage

ESL_SIMD_INLINE void butterfly_one(Real* lo, Real* hi, const Real* tw,
                                   std::size_t j) {
  const Real xr = hi[2 * j];
  const Real xi = hi[2 * j + 1];
  const Real wr = tw[2 * j];
  const Real wi = tw[2 * j + 1];
  const Real vr = xr * wr - xi * wi;
  const Real vi = xr * wi + xi * wr;
  const Real ur = lo[2 * j];
  const Real ui = lo[2 * j + 1];
  lo[2 * j] = ur + vr;
  lo[2 * j + 1] = ui + vi;
  hi[2 * j] = ur - vr;
  hi[2 * j + 1] = ui - vi;
}

template <int D>
ESL_SIMD_INLINE void fft_stage(Complex* cdata, std::size_t n, std::size_t len,
                               const Complex* ctwiddles) {
  Real* data = reinterpret_cast<Real*>(cdata);
  const Real* tw = reinterpret_cast<const Real*>(ctwiddles);
  const std::size_t half = len / 2;
  for (std::size_t i = 0; i < n; i += len) {
    Real* lo = data + 2 * i;
    Real* hi = lo + 2 * half;
    std::size_t j = 0;
    if constexpr (D >= 2) {
      using P = Pack<Real, D>;
      constexpr std::size_t kComplexPerPack = D / 2;
      const P neg_even = negate_even_signs<D>();
      for (; j + kComplexPerPack <= half; j += kComplexPerPack) {
        const P x = P::load(hi + 2 * j);
        const P w = P::load(tw + 2 * j);
        const P v = complex_mul<D>(x, w, neg_even);
        const P u = P::load(lo + 2 * j);
        (u + v).store(lo + 2 * j);
        (u - v).store(hi + 2 * j);
      }
    }
    for (; j < half; ++j) {
      butterfly_one(lo, hi, tw, j);
    }
  }
}

// ------------------------------------------------------------ rfft_unpack

ESL_SIMD_INLINE void rfft_unpack_one(const Real* z, std::size_t h,
                                     const Real* tw, Real* out,
                                     std::size_t k) {
  const std::size_t kk = (k == h) ? 0 : k;
  const std::size_t hk = (k == 0) ? 0 : h - k;  // (h - k) mod h, k <= h
  const Real ar = z[2 * kk];
  const Real ai = z[2 * kk + 1];
  const Real br = z[2 * hk];
  const Real bi = z[2 * hk + 1];
  // Even/odd split: E = (Z_k + conj(Z_{h-k}))/2, O = (Z_k - conj(Z_{h-k}))/2i.
  const Real er = 0.5 * (ar + br);
  const Real ei = 0.5 * (ai - bi);
  const Real odd_r = 0.5 * (ai + bi);
  const Real odd_i = 0.5 * (br - ar);
  const Real wr = tw[2 * k];
  const Real wi = tw[2 * k + 1];
  out[2 * k] = er + (odd_r * wr - odd_i * wi);
  out[2 * k + 1] = ei + (odd_i * wr + odd_r * wi);
}

template <int D>
ESL_SIMD_INLINE void rfft_unpack(const Complex* chalf, std::size_t h,
                                 const Complex* ctw, Complex* cout) {
  const Real* z = reinterpret_cast<const Real*>(chalf);
  const Real* tw = reinterpret_cast<const Real*>(ctw);
  Real* out = reinterpret_cast<Real*>(cout);
  rfft_unpack_one(z, h, tw, out, 0);
  std::size_t k = 1;
  if constexpr (D >= 2) {
    using P = Pack<Real, D>;
    constexpr std::size_t kComplexPerPack = D / 2;
    const P neg_even = negate_even_signs<D>();
    const P neg_odd = negate_odd_signs<D>();
    const P half_pack = P::broadcast(0.5);
    for (; k + kComplexPerPack <= h; k += kComplexPerPack) {
      const P a = P::load(z + 2 * k);
      // Z_{h-k}, Z_{h-k-1}, ... loaded as one block and reversed.
      const P b =
          simd::reverse_pairs(P::load(z + 2 * (h - k - kComplexPerPack + 1)));
      const P e = half_pack * (a + neg_odd * b);
      const P o =
          half_pack * (simd::swap_pairs(b) + neg_odd * simd::swap_pairs(a));
      const P w = P::load(tw + 2 * k);
      const P x = e + complex_mul<D>(o, w, neg_even);
      x.store(out + 2 * k);
    }
  }
  for (; k <= h; ++k) {
    rfft_unpack_one(z, h, tw, out, k);
  }
}

// ---------------------------------------------------------- taper_multiply

template <int D>
ESL_SIMD_INLINE void taper_multiply(const Real* x, const Real* taper,
                                    Real* out, std::size_t n) {
  std::size_t i = 0;
  if constexpr (D >= 2) {
    using P = Pack<Real, D>;
    for (; i + D <= n; i += D) {
      (P::load(x + i) * P::load(taper + i)).store(out + i);
    }
  }
  for (; i < n; ++i) {
    out[i] = x[i] * taper[i];
  }
}

// ----------------------------------------------------------- power_density

ESL_SIMD_INLINE void power_density_one(const Real* spec, Real scale,
                                       bool double_bin, Real* density,
                                       std::size_t k) {
  const Real re = spec[2 * k];
  const Real im = spec[2 * k + 1];
  Real value = (re * re + im * im) * scale;
  if (double_bin) {
    value *= 2.0;
  }
  density[k] = value;
}

template <int D>
ESL_SIMD_INLINE void power_density(const Complex* cspectrum, std::size_t bins,
                                   Real scale, bool even_length,
                                   Real* density) {
  if (bins == 0) {
    return;
  }
  const Real* spec = reinterpret_cast<const Real*>(cspectrum);
  power_density_one(spec, scale, false, density, 0);  // DC, never doubled
  if (bins == 1) {
    return;
  }
  const std::size_t last = bins - 1;
  std::size_t k = 1;
  if constexpr (D >= 2) {
    using P = Pack<Real, D>;
    const P scale_pack = P::broadcast(scale);
    const P two = P::broadcast(2.0);
    for (; k + D <= last; k += D) {  // strictly interior bins: all doubled
      const P a = P::load(spec + 2 * k);
      const P b = P::load(spec + 2 * k + D);
      const P re = simd::even_elements(a, b);
      const P im = simd::odd_elements(a, b);
      (((re * re + im * im) * scale_pack) * two).store(density + k);
    }
  }
  for (; k < last; ++k) {
    power_density_one(spec, scale, true, density, k);
  }
  // Final bin: Nyquist (not doubled) only when the length was even.
  power_density_one(spec, scale, !even_length, density, last);
}

// --------------------------------------------------- dwt_periodic_analysis

template <int D>
ESL_SIMD_INLINE void dwt_periodic_analysis(const Real* x, std::size_t n,
                                           const Real* lowpass,
                                           const Real* highpass,
                                           std::size_t filter_length,
                                           Real* approx, Real* detail) {
  const std::size_t half = n / 2;
  // Outputs whose taps never wrap: 2i + filter_length - 1 <= n - 1.
  const std::size_t no_wrap =
      n >= filter_length ? (n - filter_length) / 2 + 1 : 0;
  std::size_t i = 0;
  if constexpr (D >= 2) {
    // The deinterleaving loads at output base i span doubles
    // [2i + k, 2i + k + 2D) for k < filter_length; the final (discarded)
    // odd lane must stay inside the signal too, so the vector loop stops
    // once 2i + filter_length + 2D - 2 would pass n - 1. The wrap-free
    // scalar loop below finishes the remaining interior outputs.
    const std::size_t load_span = filter_length + 2 * D - 1;
    const std::size_t vector_limit =
        n + 1 >= load_span + D ? (n + 1 - load_span) / 2 + 1 : 0;
    using P = Pack<Real, D>;
    for (; i + D <= no_wrap && i + D <= vector_limit; i += D) {
      P a = P::zero();
      P d = P::zero();
      for (std::size_t k = 0; k < filter_length; ++k) {
        // Lane j reads x[2(i+j) + k]: two contiguous loads, deinterleaved.
        const P v0 = P::load(x + 2 * i + k);
        const P v1 = P::load(x + 2 * i + k + D);
        const P v = simd::even_elements(v0, v1);
        a = simd::fma(P::broadcast(lowpass[k]), v, a);
        d = simd::fma(P::broadcast(highpass[k]), v, d);
      }
      a.store(approx + i);
      d.store(detail + i);
    }
  }
  // Wrap-free interior (no per-tap modulo) at every width, so the
  // scalar-vs-SIMD comparison isolates vectorization, not index math.
  for (; i < no_wrap; ++i) {
    Real a = 0.0;
    Real d = 0.0;
    for (std::size_t k = 0; k < filter_length; ++k) {
      const Real v = x[2 * i + k];
      a += lowpass[k] * v;
      d += highpass[k] * v;
    }
    approx[i] = a;
    detail[i] = d;
  }
  for (; i < half; ++i) {
    Real a = 0.0;
    Real d = 0.0;
    for (std::size_t k = 0; k < filter_length; ++k) {
      const Real v = x[(2 * i + k) % n];
      a += lowpass[k] * v;
      d += highpass[k] * v;
    }
    approx[i] = a;
    detail[i] = d;
  }
}

}  // namespace impl
}  // namespace
}  // namespace esl::kernels
