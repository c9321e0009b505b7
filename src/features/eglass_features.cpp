#include "features/eglass_features.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/error.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"

namespace esl::features {

namespace {

constexpr std::size_t k_dwt_levels = 7;

/// Bands of the five absolute and relative power descriptors, in row
/// order.
constexpr dsp::Band k_bands[] = {dsp::bands::kDelta, dsp::bands::kTheta,
                                 dsp::bands::kAlpha, dsp::bands::kBeta,
                                 dsp::bands::kGamma};
constexpr std::size_t k_band_count = std::size(k_bands);

/// The spectral pass walks the bands with one cursor over the ascending
/// PSD bins, which needs them ascending and disjoint.
constexpr bool bands_ascending_and_disjoint() {
  for (std::size_t b = 0; b < k_band_count; ++b) {
    if (!(k_bands[b].low_hz < k_bands[b].high_hz) ||
        (b > 0 && k_bands[b].low_hz < k_bands[b - 1].high_hz)) {
      return false;
    }
  }
  return true;
}
static_assert(bands_ascending_and_disjoint());

/// stats::quantile_from_sorted read from a partially ordered copy:
/// `sorted[lower]` already holds the lower order statistic and every
/// element of `sorted[lower + 1, end)` is >= it, so the upper neighbour
/// is the minimum of that range.
Real quantile_from_selection(const RealVector& sorted, std::size_t lower,
                             std::size_t end, Real weight) {
  const auto first = sorted.begin();
  const Real upper =
      lower + 1 < end
          ? *std::min_element(first + static_cast<std::ptrdiff_t>(lower + 1),
                              first + static_cast<std::ptrdiff_t>(end))
          : sorted[lower];
  return (1.0 - weight) * sorted[lower] + weight * upper;
}

/// Appends the 12 time-domain statistics of one window.
///
/// Every sum sees the same elements in the same order as the stats::
/// function it stands for (mean, variance, skewness, kurtosis_excess,
/// rms, line_length, zero_crossings, hjorth_parameters, min, max,
/// quantile), so each value is bit-identical to that composition; only
/// the passes over the window are shared.
void append_time_features(std::span<const Real> x, RealVector& out,
                          dsp::Workspace& ws) {
  const std::size_t n = x.size();
  const Real count = static_cast<Real>(n);

  // Pass 1: sum, sum of squares, min, max, and the first difference
  // (kept for Hjorth) whose absolute sum is the line length, plus the
  // sums of the first and second differences. The second difference
  // d1[i + 1] - d1[i] is recomputed wherever it is needed, never stored.
  const std::size_t n1 = n - 1;  // first-difference length
  const std::size_t n2 = n - 2;  // second-difference length
  RealVector& d1 = ws.derivative_a;
  d1.resize(n1);
  Real sum = 0.0 + x[0];
  Real sum_squares = 0.0 + x[0] * x[0];
  Real lo = x[0];
  Real hi = x[0];
  Real line_length = 0.0;
  Real d1_sum = 0.0;
  Real d2_sum = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    const Real v = x[i];
    sum += v;
    sum_squares += v * v;
    if (v < lo) {
      lo = v;
    }
    if (hi < v) {
      hi = v;
    }
    const Real step = v - x[i - 1];
    d1[i - 1] = step;
    line_length += std::abs(step);
    d1_sum += step;
    if (i >= 2) {
      d2_sum += step - d1[i - 2];
    }
  }
  const Real mu = sum / count;
  const Real mu1 = d1_sum / static_cast<Real>(n1);
  const Real mu2 = d2_sum / static_cast<Real>(n2);

  // Pass 2: central moments, mean absolute deviation and zero crossings
  // about that one mean, and the Hjorth variances of the first and
  // second differences about theirs.
  Real m2 = 0.0;
  Real m3 = 0.0;
  Real m4 = 0.0;
  Real abs_deviation = 0.0;
  Real var1 = 0.0;
  Real var2 = 0.0;
  std::size_t crossings = 0;
  bool have_previous = false;
  bool previous_positive = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Real d = x[i] - mu;
    const Real d_sq = d * d;
    m2 += d_sq;
    m3 += d_sq * d;
    m4 += d_sq * d_sq;
    abs_deviation += std::abs(d);
    if (d != 0.0) {  // exactly-on-mean samples do not define a sign
      const bool positive = d > 0.0;
      if (have_previous && positive != previous_positive) {
        ++crossings;
      }
      previous_positive = positive;
      have_previous = true;
    }
    if (i < n1) {
      const Real e1 = d1[i] - mu1;
      var1 += e1 * e1;
    }
    if (i < n2) {
      const Real e2 = (d1[i + 1] - d1[i]) - mu2;
      var2 += e2 * e2;
    }
  }
  const Real variance = m2 / count;
  var1 /= static_cast<Real>(n1);
  var2 /= static_cast<Real>(n2);
  const Real mobility = variance > 0.0 ? std::sqrt(var1 / variance) : 0.0;
  const Real mobility_d1 = var1 > 0.0 ? std::sqrt(var2 / var1) : 0.0;

  // IQR from two selections instead of a full sort: the 0.75 lower order
  // statistic over the whole copy, then the 0.25 one inside the prefix
  // the first selection left below it. Equal values select equal bits,
  // except that a tie between +0.0 and -0.0 may yield either sign, as it
  // may under std::sort.
  RealVector& sorted = ws.sorted;
  sorted.assign(x.begin(), x.end());
  const Real pos75 = 0.75 * static_cast<Real>(n - 1);
  const Real pos25 = 0.25 * static_cast<Real>(n - 1);
  const auto lower75 = static_cast<std::size_t>(std::floor(pos75));
  const auto lower25 = static_cast<std::size_t>(std::floor(pos25));
  const auto first = sorted.begin();
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(lower75),
                   sorted.end());
  const Real q75 = quantile_from_selection(
      sorted, lower75, n, pos75 - static_cast<Real>(lower75));
  std::nth_element(first, first + static_cast<std::ptrdiff_t>(lower25),
                   first + static_cast<std::ptrdiff_t>(lower75));
  const Real q25 = quantile_from_selection(
      sorted, lower25, lower75 + 1, pos25 - static_cast<Real>(lower25));

  out.push_back(mu);
  out.push_back(variance);
  out.push_back(variance <= 0.0 ? 0.0
                                : (m3 / count) / std::pow(variance, 1.5));
  out.push_back(variance <= 0.0
                    ? 0.0
                    : (m4 / count) / (variance * variance) - 3.0);
  out.push_back(std::sqrt(sum_squares / count));
  out.push_back(line_length);
  out.push_back(static_cast<Real>(crossings));
  out.push_back(mobility);
  out.push_back(mobility > 0.0 ? mobility_d1 / mobility : 0.0);
  out.push_back(hi - lo);  // peak-to-peak
  out.push_back(abs_deviation / count);
  out.push_back(q75 - q25);
}

/// Appends the 14 spectral descriptors of one window.
///
/// One pass over the PSD accumulates the total power, the five band
/// powers, the peak and the entropy normaliser; SEF90 and the entropy
/// keep their own loops. The bins ascend in frequency, so a cursor that
/// only moves forward finds the one band a bin can belong to. Each sum
/// adds the same density * bin-width products in the same bin order as
/// dsp::total_power, band_power, relative_band_power,
/// spectral_edge_frequency, peak_frequency and spectral_entropy, so the
/// values are bit-identical to them.
void append_spectral_features(std::span<const Real> x, Real sample_rate_hz,
                              RealVector& out, dsp::Workspace& ws) {
  dsp::periodogram_into(x, sample_rate_hz, ws, ws.psd);
  const RealVector& frequency = ws.psd.frequency;
  const RealVector& density = ws.psd.density;
  const Real df = ws.psd.bin_width();
  // total_power's band: [0.5 Hz, last bin + one bin width). dsp::band_power
  // rejects it when empty; a non-empty one also implies df > 0.
  const Real total_high = frequency.back() + df;
  expects(0.5 < total_high,
          "EglassFeatureExtractor: spectrum ends below 0.5 Hz");

  Real total = 0.0;
  Real band[k_band_count] = {};
  Real peak_density = -1.0;
  Real peak_hz = 0.0;
  Real density_sum = 0.0;
  std::size_t b = 0;  // first band whose upper edge lies above the bin
  for (std::size_t k = 0; k < frequency.size(); ++k) {
    const Real f = frequency[k];
    const Real p = density[k];
    density_sum += p;
    if (f < 0.5) {
      continue;
    }
    const Real power = p * df;
    if (f < total_high) {
      total += power;
    }
    while (b < k_band_count && !(f < k_bands[b].high_hz)) {
      ++b;
    }
    if (b < k_band_count && f >= k_bands[b].low_hz) {
      band[b] += power;
    }
    if (p > peak_density) {
      peak_density = p;
      peak_hz = f;
    }
  }

  Real sef90 = 0.0;
  if (total > 0.0) {
    sef90 = frequency.back();
    Real cumulative = 0.0;
    for (std::size_t k = 0; k < frequency.size(); ++k) {
      if (frequency[k] < 0.5) {
        continue;
      }
      cumulative += density[k] * df;
      if (cumulative >= 0.9 * total) {
        sef90 = frequency[k];
        break;
      }
    }
  }

  Real entropy = 0.0;
  if (density_sum > 0.0) {
    for (const Real v : density) {
      if (v > 0.0) {
        const Real p = v / density_sum;
        entropy -= p * std::log(p);
      }
    }
  }

  out.push_back(total);
  for (const Real power : band) {
    out.push_back(power);
  }
  for (const Real power : band) {
    out.push_back(total <= 0.0 ? 0.0 : power / total);
  }
  out.push_back(sef90);
  out.push_back(peak_hz);
  out.push_back(entropy);
}

/// Appends 4 statistics for each of the 7 db4 DWT detail levels.
///
/// One pass per level gives the sum, the absolute sum, the energy and the
/// line length, and a second pass the variance about that level's mean.
/// The energies are then normalised by their total, approximation
/// included, as in dsp::wavelet_energy_distribution. Each value is
/// bit-identical to the stats::stddev, stats::line_length and
/// energy-distribution composition.
void append_wavelet_features(std::span<const Real> x, const dsp::Wavelet& db4,
                             RealVector& out, dsp::Workspace& ws) {
  dsp::wavedec_into(x, db4, k_dwt_levels, ws, ws.decomposition,
                    dsp::ExtensionMode::kPeriodic);
  const dsp::WaveletDecomposition& dec = ws.decomposition;

  struct LevelStats {
    Real mean_abs;
    Real stddev;
    Real energy;
    Real line_length;
  };
  LevelStats levels[k_dwt_levels];
  Real energy_total = 0.0;
  for (std::size_t level = 0; level < k_dwt_levels; ++level) {
    const RealVector& d = dec.details[level];
    const Real count = static_cast<Real>(d.size());
    Real sum = 0.0 + d[0];
    Real abs_sum = 0.0 + std::abs(d[0]);
    Real energy = 0.0 + d[0] * d[0];
    Real line_length = 0.0;
    for (std::size_t i = 1; i < d.size(); ++i) {
      const Real v = d[i];
      sum += v;
      abs_sum += std::abs(v);
      energy += v * v;
      line_length += std::abs(v - d[i - 1]);
    }
    const Real mu = sum / count;
    Real m2 = 0.0;
    for (const Real v : d) {
      const Real c = v - mu;
      m2 += c * c;
    }
    levels[level] = {abs_sum / count, std::sqrt(m2 / count), energy,
                     line_length};
    energy_total += energy;
  }
  Real approx_energy = 0.0;
  for (const Real v : dec.approx) {
    approx_energy += v * v;
  }
  energy_total += approx_energy;

  for (const LevelStats& level : levels) {
    out.push_back(level.mean_abs);
    out.push_back(level.stddev);
    out.push_back(energy_total > 0.0 ? level.energy / energy_total
                                     : level.energy);
    out.push_back(level.line_length);
  }
}

}  // namespace

EglassFeatureExtractor::EglassFeatureExtractor(std::size_t channels)
    : channels_(channels), db4_(dsp::Wavelet::daubechies(4)) {
  expects(channels >= 1, "EglassFeatureExtractor: need at least one channel");
}

std::vector<std::string> EglassFeatureExtractor::per_channel_names() {
  std::vector<std::string> names = {
      "mean",       "variance",   "skewness",  "kurtosis",   "rms",
      "line_length", "zero_cross", "hjorth_mob", "hjorth_cmp", "peak_to_peak",
      "mean_abs_dev", "iqr",
      "power_total", "power_delta", "power_theta", "power_alpha", "power_beta",
      "power_gamma", "rel_delta",   "rel_theta",   "rel_alpha",   "rel_beta",
      "rel_gamma",   "sef90",       "peak_freq",   "spec_entropy",
  };
  for (std::size_t level = 1; level <= k_dwt_levels; ++level) {
    const std::string p = "dwt_l" + std::to_string(level) + "_";
    names.push_back(p + "mean_abs");
    names.push_back(p + "std");
    names.push_back(p + "energy");
    names.push_back(p + "line_length");
  }
  return names;
}

std::vector<std::string> EglassFeatureExtractor::feature_names() const {
  const std::vector<std::string> base = per_channel_names();
  ensures(base.size() == k_eglass_features_per_channel,
          "EglassFeatureExtractor: per-channel name count drifted");
  std::vector<std::string> names;
  names.reserve(channels_ * base.size());
  for (std::size_t c = 0; c < channels_; ++c) {
    const std::string prefix = "ch" + std::to_string(c) + ".";
    for (const auto& n : base) {
      names.push_back(prefix + n);
    }
  }
  return names;
}

RealVector EglassFeatureExtractor::extract(
    const std::vector<std::span<const Real>>& channels,
    Real sample_rate_hz) const {
  dsp::Workspace workspace;
  RealVector out;
  extract_into(channels, sample_rate_hz, out, workspace);
  return out;
}

void EglassFeatureExtractor::extract_into(
    const std::vector<std::span<const Real>>& channels, Real sample_rate_hz,
    RealVector& out, dsp::Workspace& workspace) const {
  expects(channels.size() >= channels_,
          "EglassFeatureExtractor: too few channel windows");
  out.clear();
  out.reserve(channels_ * k_eglass_features_per_channel);
  for (std::size_t c = 0; c < channels_; ++c) {
    expects(channels[c].size() >= 16,
            "EglassFeatureExtractor: window too short");
    append_time_features(channels[c], out, workspace);
    append_spectral_features(channels[c], sample_rate_hz, out, workspace);
    append_wavelet_features(channels[c], db4_, out, workspace);
  }
  ensures(out.size() == channels_ * k_eglass_features_per_channel,
          "EglassFeatureExtractor: feature width drifted");
}

}  // namespace esl::features
