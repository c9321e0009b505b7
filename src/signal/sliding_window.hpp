// Sliding-window segmentation.
//
// The paper extracts features from 4-second windows with 75 % overlap,
// i.e. a 1-second hop (§III-A). This helper enumerates the window start
// positions and exposes spans over the underlying signal.
#pragma once

#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace esl::signal {

/// A window plan's length and hop in samples.
struct WindowGeometry {
  std::size_t length;
  std::size_t hop;
};

/// The one seconds -> samples rule for windows: window_seconds *
/// sample_rate_hz and its (1 - overlap) share, each rounded to the
/// nearest sample, a hop of 0 becoming 1. Requires a positive rate and
/// window, overlap in [0, 1) and a window of at least one sample.
WindowGeometry window_geometry(Real sample_rate_hz, Real window_seconds,
                               Real overlap);

/// Window plan over a signal of `signal_length` samples.
class SlidingWindows {
 public:
  /// window_length and hop are in samples; both must be >= 1 and the
  /// window must fit the signal at least once.
  SlidingWindows(std::size_t signal_length, std::size_t window_length,
                 std::size_t hop);

  /// Builds the plan of window_geometry(); the defaults are the paper's
  /// 4 s windows at 75 % overlap.
  static SlidingWindows paper_plan(std::size_t signal_length,
                                   Real sample_rate_hz,
                                   Real window_seconds = 4.0,
                                   Real overlap = 0.75);

  std::size_t count() const { return count_; }
  std::size_t window_length() const { return window_length_; }
  std::size_t hop() const { return hop_; }

  /// Start sample of window w.
  std::size_t start(std::size_t w) const {
    expects(w < count_, "SlidingWindows::start: window index out of range");
    return w * hop_;
  }

  /// View of window w over `signal` (whose size must match the plan).
  std::span<const Real> view(std::span<const Real> signal, std::size_t w) const;

 private:
  std::size_t signal_length_;
  std::size_t window_length_;
  std::size_t hop_;
  std::size_t count_;
};

}  // namespace esl::signal
