#include "features/eglass_features.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "common/error.hpp"
#include "common/random.hpp"
#include "common/statistics.hpp"
#include "dsp/spectrum.hpp"
#include "dsp/wavelet.hpp"
#include "dsp/workspace.hpp"
#include "features/extractor.hpp"
#include "sim/cohort.hpp"

namespace esl::features {
namespace {

TEST(EglassFeatures, FiftyFourPerChannel) {
  EXPECT_EQ(EglassFeatureExtractor::per_channel_names().size(),
            k_eglass_features_per_channel);
  const EglassFeatureExtractor two(2);
  EXPECT_EQ(two.feature_names().size(), 108u);
  const EglassFeatureExtractor one(1);
  EXPECT_EQ(one.feature_names().size(), 54u);
}

TEST(EglassFeatures, FeatureCountMatchesTheNames) {
  for (const std::size_t channels : {1u, 2u, 3u, 8u}) {
    const EglassFeatureExtractor extractor(channels);
    const WindowFeatureExtractor& base = extractor;
    EXPECT_EQ(base.feature_count(), extractor.feature_names().size());
  }
}

TEST(EglassFeatures, NamesAreUniqueAndPrefixed) {
  const EglassFeatureExtractor extractor(2);
  const auto names = extractor.feature_names();
  const std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  EXPECT_EQ(names[0].rfind("ch0.", 0), 0u);
  EXPECT_EQ(names[54].rfind("ch1.", 0), 0u);
}

TEST(EglassFeatures, OutputMatchesNameCount) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(0, 12.0, 1);
  const EglassFeatureExtractor extractor(2);
  const WindowedFeatures out = extract_windowed_features(record, extractor);
  EXPECT_EQ(out.features.cols(), 108u);
  EXPECT_EQ(out.count(), 9u);
}

TEST(EglassFeatures, AllValuesFinite) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(1, 20.0, 2);
  const EglassFeatureExtractor extractor(2);
  const WindowedFeatures out = extract_windowed_features(record, extractor);
  for (std::size_t w = 0; w < out.count(); ++w) {
    for (std::size_t f = 0; f < out.features.cols(); ++f) {
      EXPECT_TRUE(std::isfinite(out.features(w, f)))
          << "window " << w << " feature " << f;
    }
  }
}

TEST(EglassFeatures, ConstantWindowIsDegenerateButFinite) {
  const EglassFeatureExtractor extractor(1);
  const RealVector constant(1024, 5.0);
  const RealVector out = extractor.extract({constant}, 256.0);
  ASSERT_EQ(out.size(), 54u);
  for (const Real v : out) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_DOUBLE_EQ(out[0], 5.0);  // mean
  EXPECT_DOUBLE_EQ(out[1], 0.0);  // variance
}

TEST(EglassFeatures, SeizureChangesManyFeatures) {
  const sim::CohortSimulator simulator;
  const auto& event = simulator.events().front();
  const auto record = simulator.synthesize_sample(event, 0, 600.0, 700.0);
  const auto seizure = record.seizures().front();

  const EglassFeatureExtractor extractor(2);
  const auto& samples0 = record.channel(0).samples;
  const auto& samples1 = record.channel(1).samples;
  const auto window_at = [&](Seconds t) {
    const std::size_t s = record.seconds_to_sample(t);
    return std::vector<std::span<const Real>>{
        std::span<const Real>(samples0).subspan(s, 1024),
        std::span<const Real>(samples1).subspan(s, 1024)};
  };
  const RealVector ictal = extractor.extract(window_at(seizure.midpoint()), 256.0);
  const RealVector background =
      extractor.extract(window_at(seizure.onset - 120.0), 256.0);
  std::size_t changed = 0;
  for (std::size_t f = 0; f < ictal.size(); ++f) {
    const Real denom = std::max({std::abs(background[f]), std::abs(ictal[f]), 1e-12});
    if (std::abs(ictal[f] - background[f]) / denom > 0.5) {
      ++changed;
    }
  }
  // A seizure should move a large part of the feature vector.
  EXPECT_GT(changed, 30u);
}

TEST(EglassFeatures, RejectsTooFewChannels) {
  const EglassFeatureExtractor extractor(2);
  const RealVector window(1024, 0.0);
  EXPECT_THROW(extractor.extract({window}, 256.0), InvalidArgument);
}

TEST(EglassFeatures, RejectsTinyWindows) {
  const EglassFeatureExtractor extractor(1);
  const RealVector window(8, 0.0);
  EXPECT_THROW(extractor.extract({window}, 256.0), InvalidArgument);
}

TEST(EglassFeatures, RejectsZeroChannels) {
  EXPECT_THROW(EglassFeatureExtractor{0}, InvalidArgument);
}

TEST(EglassFeatures, RejectsASpectrumEndingBelowHalfAHertz) {
  // At 0.5 Hz the one-sided spectrum ends at 0.25 Hz, so total power's
  // band [0.5 Hz, Nyquist + one bin) is empty: dsp::total_power rejects
  // it, and so must the fused spectral pass.
  const EglassFeatureExtractor extractor(1);
  const RealVector window(256, 1.0);
  EXPECT_THROW(dsp::total_power(dsp::periodogram(window, 0.5)),
               InvalidArgument);
  EXPECT_THROW(extractor.extract({window}, 0.5), InvalidArgument);
}

// ----------------------------------------------------------- bitwise pin
//
// The extractor computes each channel's 54 values in a few fused passes.
// This reference is the plain composition of the standalone stats:: and
// dsp:: functions those passes stand for, one function per value; the
// extractor's rows must match it bit for bit (memcmp), on real and
// degenerate windows alike.

void reference_channel(std::span<const Real> x, Real sample_rate_hz,
                       RealVector& out) {
  const Real mu = stats::mean(x);
  out.push_back(mu);
  out.push_back(stats::variance(x));
  out.push_back(stats::skewness(x));
  out.push_back(stats::kurtosis_excess(x));
  out.push_back(stats::rms(x));
  out.push_back(stats::line_length(x));
  out.push_back(static_cast<Real>(stats::zero_crossings(x)));
  const stats::Hjorth hjorth = stats::hjorth_parameters(x);
  out.push_back(hjorth.mobility);
  out.push_back(hjorth.complexity);
  out.push_back(stats::max(x) - stats::min(x));
  Real mean_abs = 0.0;
  for (const Real v : x) {
    mean_abs += std::abs(v - mu);
  }
  out.push_back(mean_abs / static_cast<Real>(x.size()));
  out.push_back(stats::quantile(x, 0.75) - stats::quantile(x, 0.25));

  const dsp::Psd psd = dsp::periodogram(x, sample_rate_hz);
  const dsp::Band bands[] = {dsp::bands::kDelta, dsp::bands::kTheta,
                             dsp::bands::kAlpha, dsp::bands::kBeta,
                             dsp::bands::kGamma};
  out.push_back(dsp::total_power(psd));
  for (const dsp::Band band : bands) {
    out.push_back(dsp::band_power(psd, band));
  }
  for (const dsp::Band band : bands) {
    out.push_back(dsp::relative_band_power(psd, band));
  }
  out.push_back(dsp::spectral_edge_frequency(psd, 0.9));
  out.push_back(dsp::peak_frequency(psd));
  out.push_back(dsp::spectral_entropy(psd));

  const dsp::WaveletDecomposition dec =
      dsp::wavedec(x, dsp::Wavelet::daubechies(4), 7);
  const RealVector energy = dsp::wavelet_energy_distribution(dec);
  for (std::size_t level = 1; level <= 7; ++level) {
    const RealVector& d = dec.detail_at_level(level);
    Real abs_sum = 0.0;
    for (const Real v : d) {
      abs_sum += std::abs(v);
    }
    out.push_back(abs_sum / static_cast<Real>(d.size()));
    out.push_back(stats::stddev(d));
    out.push_back(energy[level - 1]);
    out.push_back(stats::line_length(d));
  }
}

struct PinCase {
  std::string name;
  RealVector ch0;
  RealVector ch1;
};

/// Background, seizure and degenerate two-channel windows of `length`
/// samples.
std::vector<PinCase> pin_cases(std::size_t length) {
  const sim::CohortSimulator simulator;
  const auto& event = simulator.events().front();
  const auto record = simulator.synthesize_sample(event, 0, 600.0, 700.0);
  const auto seizure = record.seizures().front();
  const auto cut = [&](std::size_t channel, Seconds t) {
    const auto& samples = record.channel(channel).samples;
    const std::size_t s = record.seconds_to_sample(t);
    return RealVector(samples.begin() + static_cast<std::ptrdiff_t>(s),
                      samples.begin() + static_cast<std::ptrdiff_t>(s + length));
  };

  std::vector<PinCase> cases;
  cases.push_back({"background", cut(0, seizure.onset - 120.0),
                   cut(1, seizure.onset - 120.0)});
  cases.push_back({"seizure", cut(0, seizure.midpoint()),
                   cut(1, seizure.midpoint())});
  cases.push_back({"constant", RealVector(length, 5.0), RealVector(length, -2.5)});
  cases.push_back(
      {"negative_zero", RealVector(length, -0.0), RealVector(length, -0.0)});
  RealVector ramp(length);
  RealVector alternating(length);
  RealVector ties(length);
  RealVector tie_steps(length);
  Rng rng(4242);
  for (std::size_t i = 0; i < length; ++i) {
    ramp[i] = 0.125 * static_cast<Real>(i) - 3.0;
    alternating[i] = i % 2 == 0 ? 1.0 : -1.0;
    // Three levels, none of them zero: most order statistics are ties.
    ties[i] = static_cast<Real>(1 + rng.uniform_index(3));
    tie_steps[i] = static_cast<Real>(1 + (i * 7 / length)) * 0.5;
  }
  cases.push_back({"ramp", ramp, alternating});
  cases.push_back({"ties", ties, tie_steps});
  return cases;
}

TEST(EglassFeatures, FusedRowsAreBitIdenticalToTheStandaloneComposition) {
  const EglassFeatureExtractor extractor(2);
  // One workspace across every case: geometry changes (length, rate)
  // must not leak state from one window into the next.
  dsp::Workspace workspace;
  RealVector row;
  for (const std::size_t length : {256u, 257u, 1000u, 1024u}) {
    for (const Real rate : {100.0, 256.0}) {
      for (const PinCase& c : pin_cases(length)) {
        SCOPED_TRACE(c.name + " length " + std::to_string(length) + " rate " +
                     std::to_string(rate));
        const std::vector<std::span<const Real>> window = {c.ch0, c.ch1};
        RealVector expected;
        reference_channel(c.ch0, rate, expected);
        reference_channel(c.ch1, rate, expected);
        extractor.extract_into(window, rate, row, workspace);
        ASSERT_EQ(row.size(), expected.size());
        for (std::size_t f = 0; f < row.size(); ++f) {
          EXPECT_EQ(std::memcmp(&row[f], &expected[f], sizeof(Real)), 0)
              << "feature " << f << ": " << row[f] << " vs " << expected[f];
        }
        const RealVector fresh = extractor.extract(window, rate);
        EXPECT_EQ(std::memcmp(fresh.data(), expected.data(),
                              expected.size() * sizeof(Real)),
                  0);
      }
    }
  }
}

}  // namespace
}  // namespace esl::features
