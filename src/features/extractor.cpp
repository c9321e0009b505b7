#include "features/extractor.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "dsp/workspace.hpp"
#include "signal/sliding_window.hpp"

namespace esl::features {

Seconds WindowedFeatures::index_to_seconds(std::size_t i) const {
  expects(i < window_start_s.size(),
          "WindowedFeatures::index_to_seconds: index out of range");
  return window_start_s[i];
}

std::size_t WindowedFeatures::seconds_to_index(Seconds t) const {
  expects(!window_start_s.empty(),
          "WindowedFeatures::seconds_to_index: empty feature set");
  if (t <= window_start_s.front()) {
    return 0;
  }
  if (t >= window_start_s.back()) {
    return window_start_s.size() - 1;
  }
  const auto idx = static_cast<std::size_t>(
      std::lround((t - window_start_s.front()) / hop_seconds));
  return std::min(idx, window_start_s.size() - 1);
}

WindowedFeatures extract_windowed_features(const signal::EegRecord& record,
                                           const WindowFeatureExtractor& extractor,
                                           Seconds window_seconds,
                                           Real overlap) {
  const std::size_t channels_needed = extractor.required_channels();
  expects(record.channel_count() >= channels_needed,
          "extract_windowed_features: record has too few channels");

  const auto plan = signal::SlidingWindows::paper_plan(
      record.length_samples(), record.sample_rate_hz(), window_seconds,
      overlap);

  const std::size_t feature_count = extractor.feature_count();
  WindowedFeatures out;
  out.window_seconds = window_seconds;
  out.hop_seconds =
      static_cast<Seconds>(plan.hop()) / record.sample_rate_hz();
  out.features = Matrix(plan.count(), feature_count);
  out.window_start_s.resize(plan.count());

  std::vector<std::span<const Real>> window_views(channels_needed);
  RealVector row;
  dsp::Workspace workspace;  // shared across windows: one warm-up, then 0 allocs
  for (std::size_t w = 0; w < plan.count(); ++w) {
    for (std::size_t c = 0; c < channels_needed; ++c) {
      window_views[c] = plan.view(record.channel(c).samples, w);
    }
    extractor.extract_into(window_views, record.sample_rate_hz(), row,
                           workspace);
    ensures(row.size() == feature_count,
            "extract_windowed_features: extractor returned wrong width");
    std::copy(row.begin(), row.end(), out.features.row(w).begin());
    out.window_start_s[w] = record.sample_to_seconds(plan.start(w));
  }
  return out;
}

}  // namespace esl::features
