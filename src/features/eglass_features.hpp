// e-Glass-style feature set for the supervised real-time detector.
//
// The paper trains the real-time classifier of Sopic et al. [7], which
// extracts 54 features from the raw signal of each electrode pair. The
// exact 54-item list is not published, so this is a documented equivalent
// built from the same feature families (see DESIGN.md, substitutions):
//   12 time-domain statistics,
//   14 spectral descriptors,
//   28 DWT descriptors (7 db4 levels x 4 statistics).
// Total: 54 per electrode pair, 108 for the two-channel wearable montage.
#pragma once

#include "dsp/wavelet.hpp"
#include "features/extractor.hpp"

namespace esl::features {

/// Per-channel feature count (54, matching [7]).
inline constexpr std::size_t k_eglass_features_per_channel = 54;

/// Window extractor producing 54 features per channel for all channels
/// passed to it (108 for the standard two-pair montage).
class EglassFeatureExtractor final : public WindowFeatureExtractor {
 public:
  explicit EglassFeatureExtractor(std::size_t channels = 2);

  std::vector<std::string> feature_names() const override;
  std::size_t feature_count() const override {
    return channels_ * k_eglass_features_per_channel;
  }
  std::size_t required_channels() const override { return channels_; }
  RealVector extract(const std::vector<std::span<const Real>>& channels,
                     Real sample_rate_hz) const override;
  /// Zero-allocation hot path: all 54 features per channel computed from
  /// the caller-owned workspace — after the first window of a given
  /// geometry, no heap allocation at all. Bit-identical to extract().
  void extract_into(const std::vector<std::span<const Real>>& channels,
                    Real sample_rate_hz, RealVector& out,
                    dsp::Workspace& workspace) const override;

  /// The 54 per-channel names without the channel prefix.
  static std::vector<std::string> per_channel_names();

  /// Offsets of three band powers inside one channel's 54 features (the
  /// spectral block follows the 12 time-domain statistics; see
  /// per_channel_names()). Channel c's value sits at
  /// c * k_eglass_features_per_channel + offset.
  static constexpr std::size_t k_power_delta = 13;
  static constexpr std::size_t k_power_theta = 14;
  static constexpr std::size_t k_rel_theta = 19;

 private:
  std::size_t channels_;
  /// db4 filter bank cached at construction; building it per window used
  /// to heap-allocate two filter vectors on every call.
  dsp::Wavelet db4_;
};

}  // namespace esl::features
