#include "features/streaming.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "dsp/workspace.hpp"
#include "features/paper_features.hpp"
#include "sim/cohort.hpp"

namespace esl::features {
namespace {

signal::EegRecord short_record() {
  const sim::CohortSimulator simulator;
  return simulator.synthesize_background_record(0, 20.0, 1);
}

std::vector<std::span<const Real>> record_views(
    const signal::EegRecord& record, std::size_t offset, std::size_t count) {
  std::vector<std::span<const Real>> views;
  for (std::size_t c = 0; c < record.channel_count(); ++c) {
    views.push_back(
        std::span<const Real>(record.channel(c).samples).subspan(offset, count));
  }
  return views;
}

TEST(Streaming, MatchesBatchExtractionExactly) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  const WindowedFeatures batch = extract_windowed_features(record, extractor);

  StreamingExtractor streaming(extractor, record.sample_rate_hz());

  dsp::Workspace workspace;
  // Feed in odd-sized chunks to stress the buffering.
  std::vector<RealVector> rows;
  std::size_t position = 0;
  const std::size_t total = record.length_samples();
  const std::size_t chunk_sizes[] = {1, 7, 250, 1024, 999, 3000};
  std::size_t chunk_index = 0;
  while (position < total) {
    const std::size_t chunk =
        std::min(chunk_sizes[chunk_index % 6], total - position);
    ++chunk_index;
    for (auto& row : streaming.push(record_views(record, position, chunk), workspace)) {
      rows.push_back(std::move(row));
    }
    position += chunk;
  }

  ASSERT_EQ(rows.size(), batch.count());
  for (std::size_t w = 0; w < rows.size(); ++w) {
    const auto batch_row = batch.features.row(w);
    for (std::size_t f = 0; f < batch_row.size(); ++f) {
      EXPECT_EQ(rows[w][f], batch_row[f]) << "window " << w << " feature " << f;
    }
    EXPECT_DOUBLE_EQ(streaming.window_start_s(w), batch.window_start_s[w]);
  }
}

TEST(Streaming, EmitsNothingBeforeFirstFullWindow) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  dsp::Workspace workspace;
  const auto rows = streaming.push(record_views(record, 0, 1023), workspace);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(streaming.emitted(), 0u);
  EXPECT_EQ(streaming.buffered(), 1023u);
}

TEST(Streaming, OneSampleCompletesTheWindow) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  dsp::Workspace workspace;
  streaming.push(record_views(record, 0, 1023), workspace);
  const auto rows = streaming.push(record_views(record, 1023, 1), workspace);
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_EQ(streaming.emitted(), 1u);
}

TEST(Streaming, LargeBlockEmitsManyWindows) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  dsp::Workspace workspace;
  const auto rows =
      streaming.push(record_views(record, 0, record.length_samples()),
                     workspace);
  // 20 s -> 17 windows at 4 s / 1 s hop.
  EXPECT_EQ(rows.size(), 17u);
}

TEST(Streaming, GeometryAccessors) {
  const PaperFeatureExtractor extractor;
  const StreamingExtractor streaming(extractor, 256.0, 4.0, 0.75);
  EXPECT_EQ(streaming.window_length(), 1024u);
  EXPECT_EQ(streaming.hop(), 256u);
}

TEST(Streaming, WindowStartTimeValidation) {
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  EXPECT_THROW(streaming.window_start_s(0), InvalidArgument);
}

TEST(Streaming, PushValidatesChannelBlocks) {
  const signal::EegRecord record = short_record();
  const PaperFeatureExtractor extractor;
  StreamingExtractor streaming(extractor, 256.0);
  dsp::Workspace workspace;
  // Too few channels.
  std::vector<std::span<const Real>> one = {
      std::span<const Real>(record.channel(0).samples).subspan(0, 100)};
  EXPECT_THROW(streaming.push(one, workspace), InvalidArgument);
  // Mismatched lengths.
  std::vector<std::span<const Real>> uneven = {
      std::span<const Real>(record.channel(0).samples).subspan(0, 100),
      std::span<const Real>(record.channel(1).samples).subspan(0, 99)};
  EXPECT_THROW(streaming.push(uneven, workspace), InvalidArgument);
}

TEST(Streaming, ConstructorValidation) {
  const PaperFeatureExtractor extractor;
  EXPECT_THROW(StreamingExtractor(extractor, 0.0), InvalidArgument);
  EXPECT_THROW(StreamingExtractor(extractor, 256.0, -1.0), InvalidArgument);
  EXPECT_THROW(StreamingExtractor(extractor, 256.0, 4.0, 1.0),
               InvalidArgument);
}

}  // namespace
}  // namespace esl::features
