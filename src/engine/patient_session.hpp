// One monitored patient inside the streaming engine.
//
// A PatientSession ingests raw EEG in arbitrary-size chunks (from a radio
// packet, a file reader, a socket — the engine does not care), keeps the
// samples in one fixed-capacity ring per channel, extracts a feature row
// whenever a sliding window completes, and parks the raw e-Glass rows in
// a pending matrix that the Engine drains into batched inference. The
// session keeps only stream state; the window copies, the feature row
// and the DSP scratch each window needs come from the dsp::Workspace
// passed to ingest() — the Engine's one workspace, shared by all its
// sessions — so a warm ingest -> extract -> pending -> clear_pending
// cycle performs zero heap allocations end to end (see the engine
// ZeroAllocation suite), and a new session needs no warm-up of its own.
// The Engine is driven by one thread at a time, so the shared workspace
// is never used concurrently. It also owns the per-patient
// post-processing state (consecutive-positive alarm runs) and,
// optionally, a retrospective history so a patient button press can
// label and learn from the "last hour of signal" (see "Retrospective
// history" below).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "dsp/workspace.hpp"
#include "features/extractor.hpp"
#include "signal/eeg_record.hpp"
#include "signal/sample_ring.hpp"

namespace esl::engine {

/// Per-session stream geometry and post-processing knobs.
struct SessionConfig {
  Real sample_rate_hz = 256.0;
  Seconds window_seconds = 4.0;
  Real overlap = 0.75;
  /// Consecutive positive windows required to raise an alarm (§III-C
  /// post-processing; RealtimeDetector::raises_alarm uses the same rule).
  std::size_t alarm_consecutive = 3;
  /// Length of the retrospective history used for a-posteriori labeling
  /// on patient trigger ("the last hour"). 0 disables it: the sample ring
  /// then holds one window and the session allocates no row ring.
  Seconds history_seconds = 0.0;
  /// Model policy, read by the Engine: when false the session never uses
  /// the shared fleet detector and stays cold until its own self-learning
  /// pipeline trains a personal one (the paper's patient-specific
  /// scenario, §III).
  bool use_fleet_model = true;
};

/// Throws InvalidArgument unless `config` describes a usable stream:
/// positive sample rate and window length, overlap in [0, 1),
/// alarm_consecutive >= 1, history_seconds >= 0. Engine::add_session and
/// DetectionService::create_session validate through this so bad
/// geometry is rejected up front instead of failing deep inside the
/// windowing path.
void validate(const SessionConfig& config);

/// Chunked ingest -> incremental windowing -> pending feature rows.
class PatientSession final {
 public:
  /// `extractor` must outlive the session (the engine owns one shared
  /// extractor; sessions borrow it).
  PatientSession(std::uint64_t id,
                 const features::WindowFeatureExtractor& extractor,
                 const SessionConfig& config);

  std::uint64_t id() const { return id_; }
  const SessionConfig& config() const { return config_; }

  /// Feeds one chunk (one span per channel, equal lengths, any size).
  /// Completed windows are computed in `workspace` and accumulate as rows
  /// of pending(). Returns the number of windows completed by this chunk.
  std::size_t ingest(const std::vector<std::span<const Real>>& chunk,
                     dsp::Workspace& workspace);

  /// Raw (unscaled) feature rows awaiting inference, in window order.
  const Matrix& pending() const { return pending_; }
  /// Global window index of each pending row.
  const std::vector<std::size_t>& pending_window_indices() const {
    return pending_indices_;
  }
  /// Drops the pending rows after the engine consumed them; storage
  /// capacity is retained so steady-state ingest does not allocate.
  void clear_pending();

  /// Windows emitted since the stream started.
  std::size_t windows_emitted() const { return emitted_; }
  /// Stream time (seconds) of the start of emitted window `window_index`.
  Seconds window_start_s(std::size_t window_index) const;
  /// Samples received since the start of the next window.
  std::size_t buffered_samples() const {
    return samples_received() - emitted_ * hop_;
  }

  /// Feeds one classified window into the alarm post-processing, in
  /// window order. Returns true when this window completes a run of
  /// config().alarm_consecutive positive windows (an alarm).
  bool observe_label(int label);
  /// Alarms raised so far.
  std::size_t alarms() const { return alarms_; }

  // ------------------------------------------------ retrospective history
  // The session stores each sample once, in one ring per channel that
  // serves both the window being assembled and the history: it holds
  // max(window, history_seconds) of signal, is allocated at open and is
  // overwritten in place once full. ingest() stops at every window end to
  // extract that window, so a window is always whole in the ring however
  // large the chunk. A history-enabled session also keeps the row ring:
  // the e-Glass rows of the last floor((history - window) / hop) + 1
  // streamed windows, i.e. every streamed window that can lie wholly
  // inside the history. A history therefore costs its samples plus one
  // feature row per hop: 8 B per sample and channel (4 KiB per 1 s hop
  // at 2 channels x 256 Hz) and 108 doubles (864 B) per hop at the
  // e-Glass width, with no separate window ring beside it. Both rings'
  // storage is reserved, not touched, at open, so they take pages only
  // as the stream fills them.

  bool history_enabled() const { return config_.history_seconds > 0.0; }
  /// Seconds of signal currently held in the history (0 when disabled).
  Seconds history_buffered_s() const;
  /// Materializes the retrospective history as an EegRecord (wearable
  /// montage labels) for a-posteriori labeling. Requires history_enabled()
  /// and at least one buffered window's worth of signal.
  signal::EegRecord history_record(const std::string& record_id = "") const;

  /// Runs `extractor` over the sample history with the window plan of
  /// (window_seconds, overlap), reading each window straight from the
  /// sample ring into `workspace.windows`: bit-identical to
  /// extract_windowed_features(history_record(), extractor,
  /// window_seconds, overlap) without materializing the record. Requires
  /// history_enabled() and at least one such window buffered.
  features::WindowedFeatures history_features(
      const features::WindowFeatureExtractor& extractor,
      Seconds window_seconds, Real overlap, dsp::Workspace& workspace) const;

  /// The e-Glass rows this session streamed for the windows lying wholly
  /// inside the sample history, oldest first, from the row ring (nothing
  /// is re-extracted). Start times are relative to the history start,
  /// like history_record()'s. While the dropped samples are a whole
  /// number of hops (always, with chunks of whole hops), these are
  /// exactly the windows of extract_windowed_features(history_record(),
  /// ...) and, by the streaming = offline parity, the same rows. When the
  /// history starts mid-hop they are still the streamed windows: the
  /// first starts at the first hop boundary inside the history, so the
  /// starts are offset from multiples of the hop. Requires
  /// history_enabled().
  features::WindowedFeatures history_windows() const;

 private:
  /// Samples ingested since the stream started.
  std::size_t samples_received() const {
    return rings_.front().size() + rings_.front().dropped();
  }
  /// Runs `extractor` over the `length` samples starting `offset`
  /// samples after the oldest held one, copied out of the rings into
  /// `workspace.windows`; the row lands in `workspace.row`.
  void extract_window(const features::WindowFeatureExtractor& extractor,
                      std::size_t offset, std::size_t length,
                      dsp::Workspace& workspace) const;

  std::uint64_t id_;
  SessionConfig config_;
  const features::WindowFeatureExtractor& extractor_;
  std::size_t window_length_;
  std::size_t hop_;
  std::size_t emitted_ = 0;
  // One ring per channel, max(window_length_, history samples) long.
  std::vector<signal::SampleRing> rings_;
  Matrix pending_;
  std::vector<std::size_t> pending_indices_;
  // Row ring: streamed window w lives in row w % row_capacity_. Appended
  // until full, then overwritten in place; row_capacity_ == 0 (and no
  // storage) when the history is disabled.
  Matrix rows_;
  std::size_t row_capacity_ = 0;
  std::size_t alarm_run_ = 0;
  std::size_t alarms_ = 0;
};

}  // namespace esl::engine
