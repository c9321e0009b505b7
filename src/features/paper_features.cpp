#include "features/paper_features.hpp"

#include <tuple>

#include "common/error.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"
#include "entropy/entropy.hpp"
#include "entropy/permutation_entropy.hpp"
#include "entropy/sample_entropy.hpp"
#include "features/eglass_features.hpp"

namespace esl::features {

PaperFeatureExtractor::PaperFeatureExtractor(PaperFeatureConfig config)
    : config_(config), db4_(dsp::Wavelet::daubechies(4)) {
  expects(config_.dwt_levels >= 7,
          "PaperFeatureExtractor: needs at least 7 DWT levels");
}

std::vector<std::string> PaperFeatureExtractor::feature_names() const {
  return {
      "F7T3.theta_power",       "F7T3.rel_theta_power", "F7T3.delta_power",
      "F8T4.rel_theta_power",   "F8T4.pe_l7_n5",        "F8T4.pe_l7_n7",
      "F8T4.pe_l6_n7",          "F8T4.renyi_l3",        "F8T4.sampen_l6_k02",
      "F8T4.sampen_l6_k035",
  };
}

RealVector PaperFeatureExtractor::extract(
    const std::vector<std::span<const Real>>& channels,
    Real sample_rate_hz) const {
  dsp::Workspace workspace;
  RealVector out;
  extract_into(channels, sample_rate_hz, out, workspace);
  return out;
}

void PaperFeatureExtractor::extract_into(
    const std::vector<std::span<const Real>>& channels, Real sample_rate_hz,
    RealVector& out, dsp::Workspace& ws) const {
  expects(channels.size() >= 2,
          "PaperFeatureExtractor: needs F7-T3 and F8-T4 windows");
  const auto& f7t3 = channels[0];
  const auto& f8t4 = channels[1];
  expects(f7t3.size() == f8t4.size(),
          "PaperFeatureExtractor: channel window length mismatch");

  out.assign(k_feature_count, 0.0);

  // Spectral features. The single workspace PSD slot is read per channel
  // before it is overwritten; the values match the two-PSD path exactly.
  dsp::periodogram_into(f7t3, sample_rate_hz, ws, ws.psd);
  out[0] = dsp::band_power(ws.psd, dsp::bands::kTheta);
  out[1] = dsp::relative_band_power(ws.psd, dsp::bands::kTheta);
  out[2] = dsp::band_power(ws.psd, dsp::bands::kDelta);
  dsp::periodogram_into(f8t4, sample_rate_hz, ws, ws.psd);
  out[3] = dsp::relative_band_power(ws.psd, dsp::bands::kTheta);

  extract_wavelet_entropies(f8t4, out, ws);
}

void PaperFeatureExtractor::extract_from_eglass_row(
    std::span<const Real> eglass_row, std::span<const Real> f8t4,
    std::span<Real> out, dsp::Workspace& ws) const {
  using Eglass = EglassFeatureExtractor;
  constexpr std::size_t f8t4_offset = k_eglass_features_per_channel;
  expects(eglass_row.size() == 2 * k_eglass_features_per_channel,
          "PaperFeatureExtractor: not a two-channel e-Glass row");
  expects(out.size() == k_feature_count,
          "PaperFeatureExtractor: output row width mismatch");
  out[0] = eglass_row[Eglass::k_power_theta];
  out[1] = eglass_row[Eglass::k_rel_theta];
  out[2] = eglass_row[Eglass::k_power_delta];
  out[3] = eglass_row[f8t4_offset + Eglass::k_rel_theta];
  extract_wavelet_entropies(f8t4, out, ws);
}

void PaperFeatureExtractor::extract_wavelet_entropies(
    std::span<const Real> f8t4, std::span<Real> out,
    dsp::Workspace& ws) const {
  // Nonlinear features of the F8-T4 DWT decomposition (db4, level 7).
  dsp::wavedec_into(f8t4, db4_, config_.dwt_levels, ws, ws.decomposition,
                    dsp::ExtensionMode::kPeriodic);
  const dsp::WaveletDecomposition& dec = ws.decomposition;
  const RealVector& level7 = dec.detail_at_level(7);
  const RealVector& level6 = dec.detail_at_level(6);
  const RealVector& level3 = dec.detail_at_level(3);

  out[4] = entropy::permutation_entropy(level7, 5, 1, ws.counts);
  out[5] = entropy::permutation_entropy(level7, 7, 1, ws.counts);
  out[6] = entropy::permutation_entropy(level6, 7, 1, ws.counts);
  out[7] = entropy::renyi_of_signal(level3, config_.renyi_alpha,
                                    config_.renyi_bins, ws.counts,
                                    ws.probabilities);
  std::tie(out[8], out[9]) = entropy::sample_entropy_relative_pair(
      level6, config_.sample_entropy_m, 0.2, 0.35);
}

}  // namespace esl::features
