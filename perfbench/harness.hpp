// Shared pieces of the repository benchmark: options, timing and
// percentile helpers, the seeded input tape, the single-Engine reference
// the correctness gate compares against, the span tracer, and the
// metric tables every workload reports (see README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/realtime_detector.hpp"
#include "dsp/workspace.hpp"
#include "engine/patient_session.hpp"
#include "features/eglass_features.hpp"
#include "ml/inference_model.hpp"
#include "signal/eeg_record.hpp"
#include "sim/cohort.hpp"

namespace perfbench {

using esl::Real;
using esl::Seconds;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_out";
};

/// Steady-clock nanoseconds since an arbitrary epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
inline double ms_of(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double mean_of(const std::vector<double>& values);

/// A detection is on time when it reaches the sink within this many
/// milliseconds of its chunk's due time (a quarter of the 1 s window
/// hop, so a detector meeting it keeps pace with the stream with room
/// to spare). Missing windows count as late.
inline constexpr double k_latency_limit_ms = 250.0;
/// Set-up runs this many times per run; setup_s is the median.
inline constexpr std::size_t k_setup_repeats = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Raw samples of one measured phase, turned into the end-to-end
/// metrics by end_to_end_metrics().
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> round_ms;
  std::vector<double> detect_ms;
  std::vector<double> open_ms;
  std::vector<double> relearn_ms;
  std::uint64_t windows = 0;        // classified during the measured phase
  double measured_s = 0.0;
  std::uint64_t expected_windows = 0;
  std::uint64_t on_time_windows = 0;
};

std::vector<Metric> end_to_end_metrics(const EndToEnd& samples);

/// Result of one run: metrics plus the correctness tallies.
struct Outcome {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool selftest_ok = false;
  std::uint64_t input_digest = 0;
  std::uint64_t detection_digest = 0;
};

/// FNV-1a 64 over the bytes fed to it.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::uint64_t get() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------- inputs

/// A seizure record plus the patient's average seizure duration (the
/// expert input W of Algorithm 1).
struct SeizureRecord {
  esl::signal::EegRecord record;
  Seconds average_seizure_s = 60.0;
};

/// `count` single-seizure records of `duration_s`, drawn from events
/// spread across the cohort (events whose layout does not fit the
/// duration are skipped). Only the simulator's own seed varies them.
std::vector<SeizureRecord> seizure_records(const esl::sim::CohortSimulator& sim,
                                           std::size_t count,
                                           Seconds duration_s,
                                           std::uint64_t noise_base);

/// Chunk views (one span per channel) into a record.
std::vector<std::span<const Real>> record_chunk(
    const esl::signal::EegRecord& record, std::size_t offset,
    std::size_t count);

/// A cyclic 2-channel stream built by concatenating records. Sessions
/// read it from whole-second phases, wrapping at the end; the first 4 s
/// are repeated past the end so every 4 s window is contiguous.
class Tape {
 public:
  explicit Tape(const std::vector<const esl::signal::EegRecord*>& records);

  Real sample_rate_hz() const { return sample_rate_hz_; }
  std::size_t seconds() const { return seconds_; }
  std::size_t samples_per_second() const { return per_second_; }
  /// `count` samples per channel starting at sample `offset` (taken
  /// modulo the tape length); must not cross the wrap.
  std::vector<std::span<const Real>> chunk(std::size_t offset,
                                           std::size_t count) const;
  /// The 4 s window starting at tape second `second` (mod length).
  std::vector<std::span<const Real>> window(std::size_t second) const;
  void digest(Digest& digest) const;

 private:
  Real sample_rate_hz_ = 256.0;
  std::size_t per_second_ = 256;
  std::size_t seconds_ = 0;
  std::vector<esl::RealVector> channels_;
};

/// The fleet detector every streaming workload starts on, fitted on
/// records synthesised apart from the streamed ones (own noise labels).
std::shared_ptr<esl::core::RealtimeDetector> fit_fleet_model(
    const esl::sim::CohortSimulator& sim);

/// Inputs of the two streaming workloads: a 2400 s tape interleaving
/// six 300 s seizure records with two background records, and the
/// fitted fleet model.
struct StreamWorld {
  std::unique_ptr<Tape> tape;
  std::shared_ptr<esl::core::RealtimeDetector> fleet;
};
StreamWorld make_stream_world(std::uint64_t seed);

/// Runs `call`; a throw counts one failure (the first is reported on
/// stderr) instead of ending the run. Returns whether it succeeded.
template <typename Call>
bool attempt(std::uint64_t& failed, Call&& call) {
  try {
    call();
    return true;
  } catch (const std::exception& error) {
    if (failed == 0) {
      std::fprintf(stderr, "perfbench: call failed: %s\n", error.what());
    }
    ++failed;
    return false;
  }
}

// ------------------------------------------------- correctness reference

/// What the benchmark saw for one window of one session.
struct Observed {
  std::uint32_t window = 0;
  std::uint8_t label = 0;
  std::uint8_t alarm = 0;
};

/// Feeds one observation to a digest field by field (the struct has
/// padding bytes).
inline void digest_observed(Digest& digest, const Observed& o) {
  digest.value(o.window);
  digest.value(o.label);
  digest.value(o.alarm);
}

/// Single-Engine inline reference over a tape: the label of the 4 s
/// window starting at every tape second, from one session streaming the
/// whole tape once (plus the wrap). A window's features depend only on
/// its samples, so a session that starts at tape second p must report,
/// for its window w, the label at second (p + w) mod length; its alarms
/// follow from those labels by the consecutive-positive rule.
class TapeReference {
 public:
  TapeReference(const Tape& tape,
                std::shared_ptr<const esl::core::RealtimeDetector> model,
                const esl::engine::SessionConfig& config);

  int label_at(std::size_t second) const {
    return labels_[second % labels_.size()];
  }
  /// Mismatched, missing, reordered or extra windows of one session that
  /// started at tape second `phase` and should have produced `expected`
  /// windows.
  std::uint64_t check(std::size_t phase, std::size_t expected,
                      std::span<const Observed> observed) const;
  /// Shows the gate works: a copy of `observed` with one label flipped
  /// and another with one window dropped must each add a failure.
  bool self_test(std::size_t phase, std::size_t expected,
                 std::span<const Observed> observed) const;
  /// Alarms the reference Engine raised that disagree with the rule
  /// check() applies (0 unless the rule drifted from the Engine's).
  std::uint64_t rule_drift() const { return rule_drift_; }

 private:
  std::vector<std::uint8_t> labels_;
  std::size_t alarm_consecutive_ = 3;
  std::uint64_t rule_drift_ = 0;
};

// ----------------------------------------------------------------- trace

/// In-memory span recorder for the single-threaded traced replays.
/// Spans nest by call order; every span carries the request id of the
/// unit of work (round, tick or patient) it belongs to.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
  };

  std::size_t begin(const char* name, std::uint64_t request);
  void end(std::size_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced replays).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, std::uint64_t request)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(name, request) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) {
      tracer_->end(index_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Replays windows through the public feature, dsp and ml calls in a
/// traced run: each window's e-Glass row (span features.eglass) plus its
/// channels' periodogram and wavelet decomposition (dsp.periodogram,
/// dsp.wavedec), then one batched prediction (ml.predict).
class FeatureReplay {
 public:
  void add(const std::vector<std::span<const Real>>& window, Real sample_rate_hz,
           std::uint64_t request, Tracer* tracer);
  /// Classifies the rows added since the last call; returns their labels.
  const std::vector<int>& predict(const esl::ml::InferenceModel& model,
                                  std::uint64_t request, Tracer* tracer);
  std::uint64_t predicted_rows() const { return predicted_rows_; }

 private:
  esl::features::EglassFeatureExtractor extractor_{2};
  esl::dsp::Wavelet db4_ = esl::dsp::Wavelet::daubechies(4);
  esl::dsp::Workspace workspace_;
  esl::RealVector row_;
  esl::Matrix batch_;
  esl::RealVector proba_;
  std::vector<int> labels_;
  std::uint64_t predicted_rows_ = 0;
};

/// Per-layer inputs a traced replay hands to trace_metrics(): counters
/// the spans cannot see, plus the untraced baseline of the same work.
struct TraceInputs {
  std::int64_t traced_wall_ns = 0;    // traced replay, start to end
  std::int64_t untraced_wall_ns = 0;  // same engine calls, no spans
  std::uint64_t windows = 0;          // classified in the traced replay
  std::uint64_t batches = 0;
  std::uint64_t forest_rows = 0;
  std::uint64_t predicted_rows = 0;   // rows in ml.predict spans
  std::uint64_t paper_windows = 0;    // rows in features.paper spans
  double baseline_windows_per_s = 0.0;
  double net_flush_ms_mean = 0.0;
  double net_bytes_per_window = 0.0;
  double load_lag_ms_p99 = 0.0;
  double load_offered_wps = 0.0;
};

/// Every per-layer metric (a layer a workload does not exercise reads
/// 0), prints the per-layer table and the coverage report, and writes
/// the span file.
std::vector<Metric> trace_metrics(const Options& options, const Tracer& tracer,
                                  const TraceInputs& inputs);

// ----------------------------------------------------------------- stamp

/// One-line JSON host and build stamp.
std::string stamp_json(const Options& options);
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

// ------------------------------------------------------------- workloads

Outcome run_fleet_stream(const Options& options);
Outcome run_wire_realtime(const Options& options);
Outcome run_trigger_relearn(const Options& options);

}  // namespace perfbench
