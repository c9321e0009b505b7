// Reusable DSP scratch arena for the allocation-free streaming hot path.
//
// Every `*_into(..., Workspace&)` overload in the DSP layer (fft.hpp,
// spectrum.hpp, wavelet.hpp) draws its temporaries from a Workspace
// instead of the heap. Buffers grow on first use and are retained, so a
// workspace that has seen one window of a given geometry (length, taper,
// wavelet levels) performs zero heap allocations for every following
// window of the same geometry. The workspace overloads are bit-identical
// to the allocating signatures — same arithmetic, same operation order —
// which the WorkspaceParity test suites assert element by element.
//
// Ownership rules (see README "Serving at scale"):
//  * one Workspace per Engine, and so per shard: engine::Engine owns one
//    and lends it to every session's ingest, so all the streams one
//    thread drives reuse one warm, cache-resident arena. Sessions borrow
//    it (engine::PatientSession::ingest takes it) and keep no scratch of
//    their own; any window geometry may follow any other;
//  * a Workspace is NOT thread-safe — never call workspace overloads on
//    the same instance from two threads concurrently (shard workers each
//    drive their own Engine, hence their own Workspace);
//  * result slots (psd, decomposition, spectrum) stay valid until
//    the next workspace call that writes the same slot — copy them out
//    if you need two results of the same kind alive at once;
//  * scratch members may alias nothing passed into a workspace overload
//    except the documented result slots.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "dsp/fft.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/window.hpp"

namespace esl::dsp {

class Workspace {
 public:
  Workspace() = default;

  // Copying a workspace would duplicate warm buffers for no benefit and
  // invites accidental sharing, so only moves are allowed.
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  // ------------------------------------------------------------- results
  // Standard result slots the feature layer reads after a workspace call.
  // Each is also accepted as the explicit `out` argument of the matching
  // `*_into` overload (out may be a result slot, never internal scratch).

  /// rfft/fft/ifft workspace overloads write here; periodogram clobbers it.
  ComplexVector spectrum;
  /// periodogram_into / welch_into result storage.
  Psd psd;
  /// wavedec_into result storage (per-level detail buffers reused).
  WaveletDecomposition decomposition;

  // ----------------------------------------------- feature-layer scratch
  // General-purpose buffers for the feature extractors and the streaming
  // sessions (order statistics, difference series, entropy
  // histogram/ordinal-pattern counting, window linearisation, the
  // feature row).
  // Contents are unspecified between calls.

  /// Order-statistics scratch: a window is copied here and partially
  /// ordered to select its quartiles (IQR feature).
  RealVector sorted;
  /// First-difference series of a window (Hjorth parameters).
  RealVector derivative_a;
  /// Histogram / ordinal-pattern count scratch (entropy overloads).
  std::vector<std::size_t> counts;
  /// Histogram probability-mass scratch (entropy overloads).
  RealVector probabilities;
  /// Per-channel linearised copies of the window being computed, the
  /// views over them handed to the feature extractor, and the row it
  /// writes (engine::PatientSession copies windows out of its sample
  /// rings into these).
  std::vector<RealVector> windows;
  std::vector<std::span<const Real>> window_views;
  RealVector row;

  // -------------------------------------------------- dsp-layer internals
  // Scratch owned by the dsp `*_into` implementations. Treat as opaque:
  // contents and sizes are unspecified between calls.

  /// Real-to-complex staging buffer for rfft_into.
  ComplexVector time_scratch;
  /// Half-length spectrum staging for the even-length rfft split (the
  /// Bluestein half path cannot transform time_scratch in place).
  ComplexVector half_spectrum;
  /// Radix-2 per-stage twiddle tables, cached per direction by
  /// transform length: the stage of span `len` owns entries
  /// [len/2 - 1, len - 1). Directions cache independently so a
  /// forward-only caller never builds the inverse table, while
  /// Bluestein (which mixes both at one size) still fills each exactly
  /// once. Values come from the exact w *= wlen recurrence the scalar
  /// butterflies used, so the cached tables are bit-identical to the
  /// historical running twiddle.
  ComplexVector twiddle_forward;
  ComplexVector twiddle_inverse;
  std::size_t twiddle_forward_length = 0;
  std::size_t twiddle_inverse_length = 0;
  /// Even-length rfft unpack twiddles exp(-2*pi*i*k/n), k = 0..n/2,
  /// cached by n.
  ComplexVector rfft_twiddle;
  std::size_t rfft_twiddle_length = 0;
  /// Bluestein chirp, cached by (length, direction) — the chirp for a
  /// given size is deterministic, so reuse is bit-identical.
  ComplexVector chirp;
  std::size_t chirp_length = 0;
  bool chirp_inverse = false;
  /// Bluestein convolution operands (padded to the fft size m).
  ComplexVector conv_a;
  ComplexVector conv_b;
  /// Taper coefficients cached by (kind, length) plus their power sum.
  RealVector window_coeffs;
  std::size_t window_length = 0;
  WindowKind window_kind = WindowKind::kRectangular;
  Real window_power_sum = 0.0;
  /// Tapered copy of the periodogram input.
  RealVector tapered;
  /// Welch per-segment PSD accumulator input.
  Psd segment_psd;
  /// Odd-length periodization pad for the periodic DWT.
  RealVector padded;
  /// wavedec approximation ping-pong buffers.
  RealVector approx_ping;
  RealVector approx_pong;

  /// Returns the cached taper for (kind, n), rebuilding it (and the cached
  /// power sum) only when the key changes. Values match make_window()
  /// exactly.
  const RealVector& window_cache(WindowKind kind, std::size_t n);

  /// Returns the cached per-stage radix-2 twiddle table for length-n
  /// transforms in the requested direction, rebuilding both directions
  /// only when n changes (n must be a power of two).
  const ComplexVector& twiddle_cache(std::size_t n, bool inverse);

  /// Returns the cached rfft unpack twiddles for even length n
  /// (n/2 + 1 entries), rebuilding only when n changes.
  const ComplexVector& rfft_twiddle_cache(std::size_t n);
};

}  // namespace esl::dsp
