// The paper's 10-feature set (§III-A).
//
// Selected by backward elimination in the original work:
//   from F7-T3:  total theta ([4,8] Hz) power, relative theta power,
//                total delta ([0.5,4] Hz) power;
//   from F8-T4:  relative theta power,
//                permutation entropy of DWT level 7 (n = 5 and n = 7),
//                permutation entropy of DWT level 6 (n = 7),
//                Rényi entropy of DWT level 3,
//                sample entropy of DWT level 6 (r = k sigma, k = 0.2, 0.35).
// DWT: Daubechies-4, 7 levels.
//
// The four band powers are also columns of the e-Glass row of the same
// window, so a caller holding that row (the streaming session's row ring)
// computes only the F8-T4 DWT and its entropies (extract_from_eglass_row).
#pragma once

#include "dsp/wavelet.hpp"
#include "features/extractor.hpp"

namespace esl::features {

/// Tunables of the 10-feature extractor; defaults follow the paper.
struct PaperFeatureConfig {
  std::size_t dwt_levels = 7;
  Real renyi_alpha = 2.0;
  std::size_t renyi_bins = 16;
  std::size_t sample_entropy_m = 2;
};

/// Window extractor producing exactly the 10 selected features.
/// Channel 0 must be F7-T3 and channel 1 F8-T4.
class PaperFeatureExtractor final : public WindowFeatureExtractor {
 public:
  explicit PaperFeatureExtractor(PaperFeatureConfig config = {});

  std::vector<std::string> feature_names() const override;
  std::size_t required_channels() const override { return 2; }
  RealVector extract(const std::vector<std::span<const Real>>& channels,
                     Real sample_rate_hz) const override;
  /// Zero-allocation variant: PSD/DWT/entropy scratch comes from the
  /// caller-owned workspace. Bit-identical to extract().
  void extract_into(const std::vector<std::span<const Real>>& channels,
                    Real sample_rate_hz, RealVector& out,
                    dsp::Workspace& workspace) const override;

  /// Algorithm 1's row of a window whose e-Glass row is already known:
  /// columns 0-3 are copied from `eglass_row`, the
  /// EglassFeatureExtractor(2) row of the same window (its F7-T3 theta,
  /// relative theta and delta powers and its F8-T4 relative theta power
  /// are these band powers, bit for bit); columns 4-9 are computed from
  /// `f8t4`, the window's F8-T4 samples. Equal to extract_into() on the
  /// window without either periodogram. `out` holds k_feature_count
  /// values; DWT and entropy scratch comes from `workspace`.
  void extract_from_eglass_row(std::span<const Real> eglass_row,
                               std::span<const Real> f8t4,
                               std::span<Real> out,
                               dsp::Workspace& workspace) const;

  /// Number of features (10).
  static constexpr std::size_t k_feature_count = 10;

 private:
  /// Columns 4-9: the entropies of the F8-T4 window's DWT.
  void extract_wavelet_entropies(std::span<const Real> f8t4,
                                 std::span<Real> out,
                                 dsp::Workspace& workspace) const;

  PaperFeatureConfig config_;
  /// db4 filter bank cached at construction (the paper's basis).
  dsp::Wavelet db4_;
};

}  // namespace esl::features
