// Bit-parity suite for the workspace-threaded DSP overloads.
//
// The zero-allocation refactor must not change a single output bit: every
// `*_into(..., Workspace&)` overload has to reproduce its allocating
// counterpart exactly — across odd / even / power-of-two lengths (radix-2
// vs Bluestein FFT, odd-length DWT periodization), 1–7 decomposition
// levels, both extension modes and all taper kinds — including when one
// long-lived workspace is reused across different geometries, which
// exercises the chirp and taper cache invalidation.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"

namespace esl::dsp {
namespace {

RealVector noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  RealVector x(n);
  for (auto& v : x) {
    v = rng.normal();
  }
  return x;
}

ComplexVector complex_noise(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  ComplexVector x(n);
  for (auto& v : x) {
    v = Complex(rng.normal(), rng.normal());
  }
  return x;
}

void expect_identical(const RealVector& expected, const RealVector& actual,
                      const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], actual[i]) << what << " diverges at index " << i;
  }
}

void expect_identical(const ComplexVector& expected,
                      const ComplexVector& actual, const char* what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i].real(), actual[i].real())
        << what << " (real) diverges at index " << i;
    ASSERT_EQ(expected[i].imag(), actual[i].imag())
        << what << " (imag) diverges at index " << i;
  }
}

void expect_identical(const Psd& expected, const Psd& actual,
                      const char* what) {
  expect_identical(expected.frequency, actual.frequency, what);
  expect_identical(expected.density, actual.density, what);
}

void expect_identical(const WaveletDecomposition& expected,
                      const WaveletDecomposition& actual, const char* what) {
  ASSERT_EQ(expected.levels(), actual.levels()) << what;
  ASSERT_EQ(expected.signal_lengths, actual.signal_lengths) << what;
  for (std::size_t l = 0; l < expected.levels(); ++l) {
    expect_identical(expected.details[l], actual.details[l], what);
  }
  expect_identical(expected.approx, actual.approx, what);
}

// Power-of-two, even-composite and odd lengths: radix-2, Bluestein-even
// and Bluestein-odd code paths.
constexpr std::size_t k_lengths[] = {64, 256, 1024, 768, 1000, 257, 1023};

TEST(WorkspaceParity, FftMatchesAllocatingPath) {
  Workspace ws;  // one workspace across every size: caches must invalidate
  ComplexVector out;
  for (const std::size_t n : k_lengths) {
    const ComplexVector x = complex_noise(n, n);
    fft_into(x, ws, out);
    expect_identical(fft(x), out, "fft");
    ifft_into(x, ws, out);
    expect_identical(ifft(x), out, "ifft");
  }
}

TEST(WorkspaceParity, RfftMatchesAllocatingPath) {
  Workspace ws;
  ComplexVector out;
  for (const std::size_t n : k_lengths) {
    const RealVector x = noise(n, n + 1);
    rfft_into(x, ws, out);
    expect_identical(rfft(x), out, "rfft");
  }
}

TEST(WorkspaceParity, PeriodogramMatchesAllocatingPath) {
  Workspace ws;
  Psd out;
  for (const std::size_t n : k_lengths) {
    const RealVector x = noise(n, 2 * n);
    for (const WindowKind kind :
         {WindowKind::kHann, WindowKind::kHamming, WindowKind::kBlackman,
          WindowKind::kRectangular}) {
      periodogram_into(x, 256.0, ws, out, kind);
      expect_identical(periodogram(x, 256.0, kind), out, "periodogram");
    }
  }
}

TEST(WorkspaceParity, PeriodogramIntoWorkspacePsdSlot) {
  Workspace ws;
  const RealVector x = noise(1000, 5);
  periodogram_into(x, 256.0, ws, ws.psd);
  expect_identical(periodogram(x, 256.0), ws.psd, "periodogram into slot");
}

TEST(WorkspaceParity, WelchMatchesAllocatingPath) {
  Workspace ws;
  Psd out;
  const RealVector x = noise(5000, 6);
  for (const Real overlap : {0.0, 0.25, 0.5}) {
    welch_into(x, 256.0, 1024, ws, out, overlap);
    expect_identical(welch(x, 256.0, 1024, overlap), out, "welch");
  }
  // Short-signal fallback to a single periodogram.
  const RealVector shorty = noise(512, 7);
  welch_into(shorty, 256.0, 1024, ws, out);
  expect_identical(welch(shorty, 256.0, 1024), out, "welch fallback");
}

TEST(WorkspaceParity, DwtSingleMatchesAllocatingPath) {
  Workspace ws;
  DwtLevel out;
  for (const std::size_t n : {16u, 33u, 256u, 1000u, 1023u}) {
    const RealVector x = noise(n, 3 * n);
    for (int vm = 1; vm <= 4; ++vm) {
      const Wavelet wavelet = Wavelet::daubechies(vm);
      for (const ExtensionMode mode :
           {ExtensionMode::kPeriodic, ExtensionMode::kSymmetric}) {
        dwt_single_into(x, wavelet, ws, out, mode);
        const DwtLevel expected = dwt_single(x, wavelet, mode);
        expect_identical(expected.approx, out.approx, "dwt approx");
        expect_identical(expected.detail, out.detail, "dwt detail");
      }
    }
  }
}

TEST(WorkspaceParity, WavedecMatchesAllocatingPathAcrossLevels) {
  Workspace ws;
  const Wavelet db4 = Wavelet::daubechies(4);
  for (const std::size_t n : {256u, 768u, 1000u, 1023u, 1024u}) {
    const RealVector x = noise(n, 4 * n);
    for (std::size_t levels = 1; levels <= 7; ++levels) {
      for (const ExtensionMode mode :
           {ExtensionMode::kPeriodic, ExtensionMode::kSymmetric}) {
        // Reuse one decomposition across level counts: shrinking and
        // growing the per-level buffers must not leave stale state.
        wavedec_into(x, db4, levels, ws, ws.decomposition, mode);
        expect_identical(wavedec(x, db4, levels, mode), ws.decomposition,
                         "wavedec");
      }
    }
  }
}

TEST(WorkspaceParity, InterleavedReuseKeepsParity) {
  // A long-lived per-session workspace sees many geometries; interleave
  // transforms of different sizes/kinds and re-verify against the
  // allocating path each time (catches any cache keyed on stale state).
  Workspace ws;
  Psd psd;
  ComplexVector spec;
  const Wavelet db4 = Wavelet::daubechies(4);
  for (int round = 0; round < 3; ++round) {
    for (const std::size_t n : {1024u, 1000u, 257u}) {
      const RealVector x = noise(n, 17 * n + static_cast<std::size_t>(round));
      periodogram_into(x, 256.0, ws, psd,
                       round % 2 == 0 ? WindowKind::kHann
                                      : WindowKind::kHamming);
      expect_identical(periodogram(x, 256.0,
                                   round % 2 == 0 ? WindowKind::kHann
                                                  : WindowKind::kHamming),
                       psd, "interleaved periodogram");
      rfft_into(x, ws, spec);
      expect_identical(rfft(x), spec, "interleaved rfft");
      wavedec_into(x, db4, 5, ws, ws.decomposition);
      expect_identical(wavedec(x, db4, 5), ws.decomposition,
                       "interleaved wavedec");
    }
  }
}

}  // namespace
}  // namespace esl::dsp
