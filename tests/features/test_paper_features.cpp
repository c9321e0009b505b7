#include "features/paper_features.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "dsp/workspace.hpp"
#include "features/eglass_features.hpp"
#include "features/extractor.hpp"
#include "features/normalize.hpp"
#include "sim/cohort.hpp"

namespace esl::features {
namespace {

TEST(PaperFeatures, ExactlyTenNamedFeatures) {
  const PaperFeatureExtractor extractor;
  const auto names = extractor.feature_names();
  ASSERT_EQ(names.size(), PaperFeatureExtractor::k_feature_count);
  EXPECT_EQ(names[0], "F7T3.theta_power");
  EXPECT_EQ(names[3], "F8T4.rel_theta_power");
  EXPECT_EQ(names[9], "F8T4.sampen_l6_k035");
  EXPECT_EQ(extractor.required_channels(), 2u);
}

TEST(PaperFeatures, OutputWidthIsTen) {
  const PaperFeatureExtractor extractor;
  RealVector window(1024, 0.0);
  for (std::size_t i = 0; i < window.size(); ++i) {
    window[i] = std::sin(0.1 * static_cast<Real>(i));
  }
  const RealVector out = extractor.extract({window, window}, 256.0);
  EXPECT_EQ(out.size(), 10u);
}

TEST(PaperFeatures, EglassOffsetsNameTheBandPowers) {
  const auto names = EglassFeatureExtractor::per_channel_names();
  EXPECT_EQ(names[EglassFeatureExtractor::k_power_delta], "power_delta");
  EXPECT_EQ(names[EglassFeatureExtractor::k_power_theta], "power_theta");
  EXPECT_EQ(names[EglassFeatureExtractor::k_rel_theta], "rel_theta");
}

TEST(PaperFeatures, RowBasedExtractIsBitIdenticalOverACohortRecord) {
  // Over every distinct 1 s-hop window of a 600 s seizure record, for two
  // cohort seeds: Algorithm 1's row built from the window's e-Glass row
  // and its F8-T4 samples equals extract_into() in all 10 columns, and
  // columns 0-3 are the e-Glass band powers at the named offsets.
  const EglassFeatureExtractor eglass(2);
  const PaperFeatureExtractor paper;
  using Eglass = EglassFeatureExtractor;
  const std::size_t offsets[] = {
      Eglass::k_power_theta, Eglass::k_rel_theta, Eglass::k_power_delta,
      k_eglass_features_per_channel + Eglass::k_rel_theta};
  for (const std::uint64_t seed : {1u, 7u}) {
    const sim::CohortSimulator simulator(seed);
    const auto events = simulator.events_for_patient(4);
    const signal::EegRecord record =
        simulator.synthesize_sample(events[0], 0, 600.0, 600.0);
    const WindowedFeatures rows = extract_windowed_features(record, eglass);
    const WindowedFeatures reference = extract_windowed_features(record, paper);
    ASSERT_GE(rows.count(), 597u);
    ASSERT_EQ(rows.count(), reference.count());
    const std::span<const Real> f8t4 = record.channel(1).samples;
    const std::size_t window = 1024;
    const std::size_t hop = 256;
    dsp::Workspace workspace;
    RealVector out(PaperFeatureExtractor::k_feature_count);
    for (std::size_t w = 0; w < rows.count(); ++w) {
      paper.extract_from_eglass_row(rows.features.row(w),
                                    f8t4.subspan(w * hop, window), out,
                                    workspace);
      const auto expected = reference.features.row(w);
      for (std::size_t f = 0; f < out.size(); ++f) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(out[f]),
                  std::bit_cast<std::uint64_t>(expected[f]))
            << "seed " << seed << " window " << w << " column " << f;
      }
      for (std::size_t f = 0; f < std::size(offsets); ++f) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(rows.features(w, offsets[f])),
                  std::bit_cast<std::uint64_t>(expected[f]))
            << "seed " << seed << " window " << w << " column " << f;
      }
    }
  }
}

TEST(PaperFeatures, RowBasedExtractRejectsRowsOfAnotherWidth) {
  const PaperFeatureExtractor paper;
  dsp::Workspace workspace;
  const RealVector window(1024, 1.0);
  const RealVector one_channel(k_eglass_features_per_channel, 0.0);
  RealVector out(PaperFeatureExtractor::k_feature_count);
  EXPECT_THROW(paper.extract_from_eglass_row(one_channel, window, out,
                                             workspace),
               InvalidArgument);
  const RealVector row(2 * k_eglass_features_per_channel, 0.0);
  RealVector narrow(4);
  EXPECT_THROW(paper.extract_from_eglass_row(row, window, narrow, workspace),
               InvalidArgument);
}

TEST(PaperFeatures, RelativePowersAreFractions) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(0, 30.0, 1);
  const WindowedFeatures out =
      extract_windowed_features(record, PaperFeatureExtractor{});
  for (std::size_t w = 0; w < out.count(); ++w) {
    EXPECT_GE(out.features(w, 1), 0.0);
    EXPECT_LE(out.features(w, 1), 1.0);
    EXPECT_GE(out.features(w, 3), 0.0);
    EXPECT_LE(out.features(w, 3), 1.0);
  }
}

TEST(PaperFeatures, ThetaToneMaximizesThetaFeatures) {
  // 6 Hz tone on both channels: theta power dominates.
  RealVector tone(1024);
  for (std::size_t i = 0; i < tone.size(); ++i) {
    tone[i] =
        50.0 * std::sin(2.0 * 3.14159265358979 * 6.0 * static_cast<Real>(i) / 256.0);
  }
  const PaperFeatureExtractor extractor;
  const RealVector features = extractor.extract({tone, tone}, 256.0);
  EXPECT_GT(features[0], 100.0);  // absolute theta power of a 50 uV tone
  EXPECT_GT(features[1], 0.9);    // relative theta
  EXPECT_GT(features[3], 0.9);
}

TEST(PaperFeatures, SeizureWindowsSeparateFromBackground) {
  // The property Algorithm 1 depends on: mean feature distance between
  // ictal and background windows is large after normalization.
  const sim::CohortSimulator simulator;
  const auto& event = simulator.events().front();
  const auto record = simulator.synthesize_sample(event, 0, 600.0, 700.0);
  const WindowedFeatures out =
      extract_windowed_features(record, PaperFeatureExtractor{});
  const auto seizure = record.seizures().front();

  // Normalize per column, then compare centroids.
  const Matrix z = zscore_normalized(out.features);
  RealVector ictal_centroid(10, 0.0);
  RealVector background_centroid(10, 0.0);
  std::size_t n_ictal = 0;
  std::size_t n_background = 0;
  for (std::size_t w = 0; w < out.count(); ++w) {
    const Seconds t = out.window_start_s[w];
    const bool ictal = t >= seizure.onset && t + 4.0 <= seizure.offset;
    const bool background =
        t + 4.0 < seizure.onset - 60.0 || t > seizure.offset + 90.0;
    if (!ictal && !background) {
      continue;
    }
    for (std::size_t f = 0; f < 10; ++f) {
      (ictal ? ictal_centroid : background_centroid)[f] += z(w, f);
    }
    (ictal ? n_ictal : n_background) += 1;
  }
  ASSERT_GT(n_ictal, 10u);
  ASSERT_GT(n_background, 100u);
  Real separation = 0.0;
  for (std::size_t f = 0; f < 10; ++f) {
    ictal_centroid[f] /= static_cast<Real>(n_ictal);
    background_centroid[f] /= static_cast<Real>(n_background);
    separation += std::abs(ictal_centroid[f] - background_centroid[f]);
  }
  // Summed absolute z-distance across 10 features; > 5 means the ictal
  // block is far outside the background cloud.
  EXPECT_GT(separation, 5.0);
}

TEST(PaperFeatures, DwtLevelRequirementEnforced) {
  PaperFeatureConfig config;
  config.dwt_levels = 6;
  EXPECT_THROW(PaperFeatureExtractor{config}, InvalidArgument);
}

TEST(PaperFeatures, RejectsMismatchedWindows) {
  const PaperFeatureExtractor extractor;
  RealVector a(1024, 0.0);
  RealVector b(512, 0.0);
  EXPECT_THROW(extractor.extract({a, b}, 256.0), InvalidArgument);
}

TEST(PaperFeatures, DeterministicForSameInput) {
  const sim::CohortSimulator simulator;
  const auto record = simulator.synthesize_background_record(2, 20.0, 3);
  const PaperFeatureExtractor extractor;
  const WindowedFeatures a = extract_windowed_features(record, extractor);
  const WindowedFeatures b = extract_windowed_features(record, extractor);
  EXPECT_EQ(a.features, b.features);
}

}  // namespace
}  // namespace esl::features
