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
  // session sizes its per-channel sample rings from
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

/// Validates before the constructor's member-init list rounds the
/// geometry into window_length_ and hop_ (config_ is declared first, so
/// this runs ahead of them).
const SessionConfig& validated(const SessionConfig& config) {
  validate(config);
  return config;
}

}  // namespace

PatientSession::PatientSession(
    std::uint64_t id, const features::WindowFeatureExtractor& extractor,
    const SessionConfig& config)
    : id_(id), config_(validated(config)), extractor_(extractor) {
  const signal::WindowGeometry geometry = signal::window_geometry(
      config_.sample_rate_hz, config_.window_seconds, config_.overlap);
  window_length_ = geometry.length;
  hop_ = geometry.hop;
  const std::size_t channels = extractor.required_channels();
  expects(channels >= 1, "PatientSession: extractor reads no channel");
  const std::size_t feature_count = extractor.feature_count();
  std::size_t capacity = window_length_;
  if (history_enabled()) {
    capacity = static_cast<std::size_t>(
        std::lround(config_.history_seconds * config_.sample_rate_hz));
    expects(capacity >= window_length_,
            "PatientSession: history shorter than one window");
    row_capacity_ = (capacity - window_length_) / hop_ + 1;
    rows_.reserve_rows(row_capacity_, feature_count);
  }
  rings_.reserve(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    rings_.emplace_back(capacity);
  }
  pending_.reserve_rows(16, feature_count);
  pending_indices_.reserve(16);
}

std::size_t PatientSession::ingest(
    const std::vector<std::span<const Real>>& chunk,
    dsp::Workspace& workspace) {
  // Validate the whole chunk before touching any state, so a rejected
  // chunk cannot leave the rings half-updated or misaligned.
  expects(chunk.size() >= rings_.size(),
          "PatientSession::ingest: too few channels");
  const std::size_t length = chunk[0].size();
  for (std::size_t c = 0; c < rings_.size(); ++c) {
    expects(chunk[c].size() == length,
            "PatientSession::ingest: channel chunk lengths differ");
  }

  // Push the chunk in slices that end at the next window's end, and
  // extract each window as it completes: it is then the newest
  // window_length_ samples, whole in the ring however long the chunk.
  std::size_t produced = 0;
  std::size_t offset = 0;
  while (true) {
    const std::size_t received = samples_received();
    const std::size_t need = emitted_ * hop_ + window_length_ - received;
    const std::size_t take = std::min(need, length - offset);
    for (std::size_t c = 0; c < rings_.size(); ++c) {
      rings_[c].push(chunk[c].subspan(offset, take));
    }
    offset += take;
    if (take < need) {
      return produced;  // chunk exhausted before the next window completed
    }
    extract_window(extractor_, rings_.front().size() - window_length_,
                   window_length_, workspace);
    const std::span<const Real> row = workspace.row;
    pending_.append_row(row);
    pending_indices_.push_back(emitted_);
    if (row_capacity_ != 0) {
      // Windows arrive in order from 0, so until the ring is full
      // emitted_ is the next row.
      if (rows_.rows() < row_capacity_) {
        rows_.append_row(row);
      } else {
        std::copy(row.begin(), row.end(),
                  rows_.row(emitted_ % row_capacity_).begin());
      }
    }
    ++emitted_;
    ++produced;
  }
}

void PatientSession::extract_window(
    const features::WindowFeatureExtractor& extractor, std::size_t offset,
    std::size_t length, dsp::Workspace& workspace) const {
  // Another session may have used the workspace since this one's last
  // window, so the copies and their views are re-sized on every call.
  const std::size_t channels = extractor.required_channels();
  std::vector<RealVector>& windows = workspace.windows;
  std::vector<std::span<const Real>>& views = workspace.window_views;
  windows.resize(channels);
  views.resize(channels);
  for (std::size_t c = 0; c < channels; ++c) {
    windows[c].resize(length);
    rings_[c].copy_range(offset, length, windows[c]);
    views[c] = windows[c];
  }
  extractor.extract_into(views, config_.sample_rate_hz, workspace.row,
                         workspace);
}

void PatientSession::clear_pending() {
  pending_.clear_rows();
  pending_indices_.clear();
}

Seconds PatientSession::window_start_s(std::size_t window_index) const {
  expects(window_index < emitted_,
          "PatientSession::window_start_s: window not yet emitted");
  return static_cast<Seconds>(window_index * hop_) / config_.sample_rate_hz;
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
  return history_enabled()
             ? static_cast<Seconds>(rings_.front().size()) /
                   config_.sample_rate_hz
             : 0.0;
}

signal::EegRecord PatientSession::history_record(
    const std::string& record_id) const {
  expects(history_enabled(),
          "PatientSession::history_record: history disabled");
  const std::size_t available = rings_.front().size();
  expects(available >= window_length_,
          "PatientSession::history_record: less than one window buffered");

  signal::EegRecord record(
      config_.sample_rate_hz,
      record_id.empty() ? "session-" + std::to_string(id_) : record_id);
  const auto pairs = signal::montage::wearable_pairs();
  for (std::size_t c = 0; c < rings_.size(); ++c) {
    RealVector samples(available);
    rings_[c].copy_range(0, available, samples);
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
  expects(extractor.required_channels() <= rings_.size(),
          "PatientSession::history_features: too few history channels");
  const Real rate = config_.sample_rate_hz;
  const auto plan = signal::SlidingWindows::paper_plan(
      rings_.front().size(), rate, window_seconds, overlap);

  const std::size_t feature_count = extractor.feature_count();
  features::WindowedFeatures out;
  out.window_seconds = window_seconds;
  out.hop_seconds = static_cast<Seconds>(plan.hop()) / rate;
  out.features = Matrix(plan.count(), feature_count);
  out.window_start_s.resize(plan.count());
  for (std::size_t w = 0; w < plan.count(); ++w) {
    extract_window(extractor, plan.start(w), plan.window_length(), workspace);
    ensures(workspace.row.size() == feature_count,
            "PatientSession::history_features: wrong row width");
    std::copy(workspace.row.begin(), workspace.row.end(),
              out.features.row(w).begin());
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
  const std::size_t dropped = rings_.front().dropped();
  const std::size_t first = (dropped + hop_ - 1) / hop_;
  const std::size_t count = emitted_ > first ? emitted_ - first : 0;
  ensures(count <= row_capacity_,
          "PatientSession::history_windows: row ring overrun");

  const Real rate = config_.sample_rate_hz;
  features::WindowedFeatures out;
  out.window_seconds = config_.window_seconds;
  out.hop_seconds = static_cast<Seconds>(hop_) / rate;
  out.features = Matrix(count, extractor_.feature_count());
  out.window_start_s.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t w = first + k;
    const std::span<const Real> row = rows_.row(w % row_capacity_);
    std::copy(row.begin(), row.end(), out.features.row(k).begin());
    out.window_start_s[k] = static_cast<Seconds>(w * hop_ - dropped) / rate;
  }
  return out;
}

}  // namespace esl::engine
