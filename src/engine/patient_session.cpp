#include "engine/patient_session.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "signal/montage.hpp"
#include "signal/sliding_window.hpp"

namespace esl::engine {

void validate(const SessionConfig& config) {
  expects(std::isfinite(config.sample_rate_hz) && config.sample_rate_hz > 0.0,
          "SessionConfig: sample_rate_hz must be positive");
  expects(std::isfinite(config.window_seconds) && config.window_seconds > 0.0,
          "SessionConfig: window_seconds must be positive");
  expects(std::isfinite(config.overlap) && config.overlap >= 0.0 &&
              config.overlap < 1.0,
          "SessionConfig: overlap must be in [0, 1)");
  expects(config.alarm_consecutive >= 1,
          "SessionConfig: alarm_consecutive must be positive");
  expects(std::isfinite(config.history_seconds) &&
              config.history_seconds >= 0.0,
          "SessionConfig: history_seconds must be non-negative");
  // Geometry plausibility bounds (found by fuzz/fuzz_ingest.cpp): the
  // streaming extractor sizes per-channel rings from
  // lround(window_seconds * sample_rate_hz), so a hostile config like
  // sample_rate_hz = 1e30 passed positivity checks and then hit lround
  // overflow (UB) plus a colossal ring allocation. Products are bounded
  // *before* any rounding or allocation can see them. The limits are
  // far beyond any wearable EEG geometry (window cap = 4 s at ~16 MHz;
  // history cap = one hour at ~1 MHz) but small enough that the rings
  // they imply are allocatable.
  constexpr double k_max_window_samples = 67108864.0;     // 2^26
  constexpr double k_max_history_samples = 4294967296.0;  // 2^32
  expects(config.window_seconds * config.sample_rate_hz <=
              k_max_window_samples,
          "SessionConfig: window sample count implausibly large");
  expects(config.history_seconds * config.sample_rate_hz <=
              k_max_history_samples,
          "SessionConfig: history sample count implausibly large");
}

namespace {

/// Validates before the constructor's member-init list can hand the
/// geometry to StreamingExtractor (config_ is declared first, so this
/// runs ahead of the streaming_ member's construction).
const SessionConfig& validated(const SessionConfig& config) {
  validate(config);
  return config;
}

}  // namespace

PatientSession::PatientSession(
    std::uint64_t id, const features::WindowFeatureExtractor& extractor,
    const SessionConfig& config)
    : id_(id),
      config_(validated(config)),
      streaming_(extractor, config.sample_rate_hz, config.window_seconds,
                 config.overlap) {
  if (config_.history_seconds > 0.0) {
    const auto capacity = static_cast<std::size_t>(
        std::lround(config_.history_seconds * config_.sample_rate_hz));
    expects(capacity >= streaming_.window_length(),
            "PatientSession: history shorter than one window");
    history_.reserve(extractor.required_channels());
    for (std::size_t c = 0; c < extractor.required_channels(); ++c) {
      history_.emplace_back(capacity);
    }
    row_capacity_ =
        (capacity - streaming_.window_length()) / streaming_.hop() + 1;
    rows_.reserve_rows(row_capacity_, streaming_.feature_count());
  }
  pending_.reserve_rows(16, streaming_.feature_count());
  pending_indices_.reserve(16);
}

std::size_t PatientSession::ingest(
    const std::vector<std::span<const Real>>& chunk,
    dsp::Workspace& workspace) {
  // Validate the whole chunk before touching any state, so a rejected
  // chunk cannot leave the history rings half-updated or misaligned.
  const std::size_t channels =
      std::max(history_.size(), streaming_.channel_count());
  expects(chunk.size() >= channels, "PatientSession::ingest: too few channels");
  const std::size_t length = chunk.empty() ? 0 : chunk[0].size();
  for (std::size_t c = 0; c < channels; ++c) {
    expects(chunk[c].size() == length,
            "PatientSession::ingest: channel chunk lengths differ");
  }
  for (std::size_t c = 0; c < history_.size(); ++c) {
    history_[c].push(chunk[c]);
  }
  return streaming_.push(chunk, *this, workspace);
}

void PatientSession::on_window(std::size_t index, Seconds /*start_s*/,
                               std::span<const Real> row) {
  pending_.append_row(row);
  pending_indices_.push_back(index);
  if (row_capacity_ != 0) {
    // Windows arrive in order from 0, so until the ring is full `index`
    // is the next row.
    if (rows_.rows() < row_capacity_) {
      rows_.append_row(row);
    } else {
      std::copy(row.begin(), row.end(),
                rows_.row(index % row_capacity_).begin());
    }
  }
}

void PatientSession::clear_pending() {
  pending_.clear_rows();
  pending_indices_.clear();
}

Seconds PatientSession::window_start_s(std::size_t window_index) const {
  return streaming_.window_start_s(window_index);
}

bool PatientSession::observe_label(int label) {
  alarm_run_ = label == 1 ? alarm_run_ + 1 : 0;
  if (alarm_run_ == config_.alarm_consecutive) {
    ++alarms_;
    return true;
  }
  return false;
}

Seconds PatientSession::history_buffered_s() const {
  return history_.empty()
             ? 0.0
             : static_cast<Seconds>(history_.front().size()) /
                   config_.sample_rate_hz;
}

signal::EegRecord PatientSession::history_record(
    const std::string& record_id) const {
  expects(history_enabled(),
          "PatientSession::history_record: history disabled");
  const std::size_t available = history_.front().size();
  expects(available >= streaming_.window_length(),
          "PatientSession::history_record: less than one window buffered");

  signal::EegRecord record(
      config_.sample_rate_hz,
      record_id.empty() ? "session-" + std::to_string(id_) : record_id);
  const auto pairs = signal::montage::wearable_pairs();
  for (std::size_t c = 0; c < history_.size(); ++c) {
    RealVector samples(available);
    history_[c].copy_all(samples);
    // Wearable montage labels for the first pairs; synthetic labels for
    // any extra channels so multi-channel sessions still materialize.
    signal::ElectrodePair electrodes;
    if (c < pairs.size()) {
      electrodes = pairs[c];
    } else {
      electrodes.anode = 'C' + std::to_string(c);
      electrodes.cathode = "Cz";
    }
    record.add_channel(std::move(electrodes), std::move(samples));
  }
  return record;
}

features::WindowedFeatures PatientSession::history_features(
    const features::WindowFeatureExtractor& extractor, Seconds window_seconds,
    Real overlap, dsp::Workspace& workspace) const {
  expects(history_enabled(),
          "PatientSession::history_features: history disabled");
  const std::size_t channels = extractor.required_channels();
  expects(channels <= history_.size(),
          "PatientSession::history_features: too few history channels");
  const Real rate = config_.sample_rate_hz;
  const auto plan = signal::SlidingWindows::paper_plan(
      history_.front().size(), rate, window_seconds, overlap);

  const std::size_t feature_count = extractor.feature_count();
  features::WindowedFeatures out;
  out.window_seconds = window_seconds;
  out.hop_seconds = static_cast<Seconds>(plan.hop()) / rate;
  out.features = Matrix(plan.count(), feature_count);
  out.window_start_s.resize(plan.count());

  std::vector<RealVector>& windows = workspace.windows;
  std::vector<std::span<const Real>>& views = workspace.window_views;
  windows.resize(channels);
  views.resize(channels);
  RealVector row;
  for (std::size_t w = 0; w < plan.count(); ++w) {
    for (std::size_t c = 0; c < channels; ++c) {
      windows[c].resize(plan.window_length());
      history_[c].copy_range(plan.start(w), plan.window_length(), windows[c]);
      views[c] = windows[c];
    }
    extractor.extract_into(views, rate, row, workspace);
    ensures(row.size() == feature_count,
            "PatientSession::history_features: wrong row width");
    std::copy(row.begin(), row.end(), out.features.row(w).begin());
    out.window_start_s[w] = static_cast<Seconds>(plan.start(w)) / rate;
  }
  return out;
}

features::WindowedFeatures PatientSession::history_windows() const {
  expects(history_enabled(),
          "PatientSession::history_windows: history disabled");
  // The history holds stream samples [dropped, dropped + size); streamed
  // window w covers [w * hop, w * hop + window_length). Every emitted
  // window ends inside the stream, so the ones inside the history are
  // those starting at or after `dropped`: at most row_capacity_ of them,
  // all still in the row ring.
  const std::size_t hop = streaming_.hop();
  const std::size_t dropped = history_.front().dropped();
  const std::size_t first = (dropped + hop - 1) / hop;
  const std::size_t end = streaming_.emitted();
  const std::size_t count = end > first ? end - first : 0;
  ensures(count <= row_capacity_,
          "PatientSession::history_windows: row ring overrun");

  const Real rate = config_.sample_rate_hz;
  features::WindowedFeatures out;
  out.window_seconds = config_.window_seconds;
  out.hop_seconds = static_cast<Seconds>(hop) / rate;
  out.features = Matrix(count, streaming_.feature_count());
  out.window_start_s.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t w = first + k;
    const std::span<const Real> row = rows_.row(w % row_capacity_);
    std::copy(row.begin(), row.end(), out.features.row(k).begin());
    out.window_start_s[k] = static_cast<Seconds>(w * hop - dropped) / rate;
  }
  return out;
}

}  // namespace esl::engine
