// trigger_relearn: the paper's self-learning loop, inline on 1 thread.
//
// Each patient is a fresh session with a 600 s history ring and a
// self-learning pipeline attached, starting cold (no fleet model, the
// paper's patient-specific scenario). It streams a 300 s record holding
// one seizure in 1 s chunks with a poll per chunk; the cold detector
// misses the seizure, so the patient presses the button:
// patient_trigger (Algorithm 1 over the history, then a retrain), then
// compile() and swap_model. Streaming continues until the first window
// is classified by the new model, and the patient's session is closed.
// One seizure per patient (the Fig. 4 regime at its first point) keeps
// the training buffer and the cost per trigger from drifting within a
// run. This is the only path through core::APosterioriDetector, ml
// training, the history ring and offline feature extraction.
#include <cstdio>
#include <stdexcept>

#include "core/aposteriori.hpp"
#include "core/self_learning.hpp"
#include "engine/engine.hpp"
#include "features/paper_features.hpp"
#include "harness.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/dataset.hpp"

namespace perfbench {

using namespace esl;

namespace {

constexpr std::size_t k_records = 12;
constexpr Seconds k_record_s = 300.0;
constexpr Seconds k_history_s = 600.0;
/// Windows a 300 s record completes (the tail chunk adds one more).
constexpr std::size_t k_record_windows = 297;
/// The detection digest covers the first patients only.
constexpr std::size_t k_digest_patients = 20;
/// The traced replay re-extracts every k_replay_stride-th streamed
/// window through the public feature and dsp calls.
constexpr std::size_t k_replay_stride = 4;

engine::SessionConfig session_config() {
  engine::SessionConfig config;
  config.history_seconds = k_history_s;
  config.use_fleet_model = false;
  return config;
}

core::SelfLearningConfig learning_config(const SeizureRecord& record) {
  core::SelfLearningConfig config;
  config.average_seizure_duration_s = record.average_seizure_s;
  return config;
}

/// The deployable flat artifact of a session's freshly retrained model
/// (what RealtimeDetector::compile() builds from the same fit).
std::shared_ptr<const ml::InferenceModel> compile_model(
    const std::shared_ptr<const ml::InferenceModel>& model) {
  const auto* forest = dynamic_cast<const ml::ForestModel*>(model.get());
  if (forest == nullptr) {
    throw std::runtime_error("perfbench: retrained model is not a forest");
  }
  return std::make_shared<const ml::CompiledForest>(forest->forest(),
                                                    forest->scaler());
}

bool same_interval(const signal::Interval& a, const signal::Interval& b) {
  return a.onset == b.onset && a.offset == b.offset;
}

struct Patient {
  std::size_t record = 0;
  signal::Interval label;
  std::vector<Observed> observed;
};

/// Replays the trigger's steps and the streamed windows through the
/// public signal, features, core and ml calls (traced runs only).
struct LayerReplay {
  features::PaperFeatureExtractor paper;
  FeatureReplay windows;
  std::uint64_t paper_windows = 0;
  std::uint64_t mismatches = 0;

  /// Before the press: the history the trigger will label.
  void before_trigger(const engine::Engine& engine, std::uint64_t id,
                      const SeizureRecord& patient, std::uint64_t request,
                      Tracer* tracer, signal::Interval& label_out) {
    Scope replay(tracer, "bench.replay", request);
    signal::EegRecord history(1.0);
    {
      Scope span(tracer, "signal.history_record", request);
      history = engine.session(id).history_record();
    }
    features::WindowedFeatures windowed;
    {
      Scope span(tracer, "features.paper", request);
      windowed = features::extract_windowed_features(history, paper);
    }
    paper_windows += windowed.count();
    const core::SelfLearningConfig config = learning_config(patient);
    {
      Scope span(tracer, "core.aposteriori", request);
      label_out = core::APosterioriDetector(config.labeling)
                      .label(windowed, config.average_seizure_duration_s);
    }
    ml::Dataset dataset;
    {
      Scope span(tracer, "core.window_dataset", request);
      dataset = core::build_window_dataset(history, {label_out},
                                           config.realtime);
    }
    // The pipeline's retrain of its first labelled seizure.
    Scope span(tracer, "ml.fit", request);
    Rng rng(config.training_seed + 1);
    core::RealtimeDetector detector(config.realtime);
    detector.fit(ml::balance_classes(dataset, rng), config.training_seed);
  }

  /// After the swap: streamed windows re-extracted and classified by the
  /// redeployed model.
  void after_swap(const SeizureRecord& patient, const ml::InferenceModel& model,
                  std::uint64_t request, Tracer* tracer) {
    Scope replay(tracer, "bench.replay", request);
    const Real rate = patient.record.sample_rate_hz();
    const auto per_second = static_cast<std::size_t>(rate);
    for (std::size_t w = 0; w < k_record_windows; w += k_replay_stride) {
      windows.add(record_chunk(patient.record, w * per_second, 4 * per_second),
                  rate, request, tracer);
    }
    (void)windows.predict(model, request, tracer);
  }
};

/// The single-threaded engine plus the run's samples.
struct Loop {
  const std::vector<SeizureRecord>* pool = nullptr;
  std::unique_ptr<engine::Engine> engine;
  std::vector<Patient> patients;
  std::vector<engine::Detection> detections;
  EndToEnd e2e;
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;

  /// One patient: open, stream, press, relearn, first new window, close.
  /// `timed` records the end-to-end samples.
  void run_patient(bool timed, Tracer* tracer, LayerReplay* replay) {
    const std::size_t p = patients.size();
    const SeizureRecord& patient = (*pool)[p % pool->size()];
    const SeizureRecord& next = (*pool)[(p + 1) % pool->size()];
    patients.push_back({p % pool->size(), {}, {}});
    Patient& result = patients.back();
    std::uint64_t id = 0;
    calls += 1;
    const std::int64_t t_open = now_ns();
    const bool opened = attempt(failed, [&] {
      Scope span(tracer, "engine.create", p);
      id = engine->add_session(session_config());
      engine->attach_self_learning(id, learning_config(patient));
    });
    if (!opened) {
      return;
    }
    if (timed) {
      e2e.open_ms.push_back(ms_of(now_ns() - t_open));
    }
    const auto per_second =
        static_cast<std::size_t>(patient.record.sample_rate_hz());
    const auto round = [&](const signal::EegRecord& record, std::size_t second) {
      const std::int64_t t0 = now_ns();
      ++calls;
      attempt(failed, [&] {
        {
          Scope span(tracer, "engine.ingest", p);
          engine->ingest(id, record_chunk(record, second * per_second, per_second));
        }
        Scope span(tracer, "engine.flush", p);
        detections.clear();
        engine->poll_into(detections);
      });
      const std::int64_t t1 = now_ns();
      for (const engine::Detection& d : detections) {
        result.observed.push_back({static_cast<std::uint32_t>(d.window_index),
                                   static_cast<std::uint8_t>(d.label),
                                   static_cast<std::uint8_t>(d.alarm)});
      }
      if (timed) {
        e2e.round_ms.push_back(ms_of(t1 - t0));
        for (std::size_t k = 0; k < detections.size(); ++k) {
          e2e.detect_ms.push_back(ms_of(t1 - t0));
          e2e.on_time_windows += ms_of(t1 - t0) <= k_latency_limit_ms ? 1 : 0;
        }
      }
      return t1;
    };
    const std::size_t seconds = patient.record.length_samples() / per_second;
    for (std::size_t second = 0; second < seconds; ++second) {
      round(patient.record, second);
    }
    bool missed = true;
    for (const Observed& o : result.observed) {
      missed = missed && o.alarm == 0;
    }
    if (missed) {
      signal::Interval replayed;
      if (replay != nullptr) {
        replay->before_trigger(*engine, id, patient, p, tracer, replayed);
      }
      const std::int64_t t_press = now_ns();
      std::shared_ptr<const ml::InferenceModel> compiled;
      calls += 3;
      const bool relearned = attempt(failed, [&] {
        {
          Scope span(tracer, "engine.trigger", p);
          result.label = engine->patient_trigger(id);
        }
        {
          Scope span(tracer, "ml.compile", p);
          compiled = compile_model(engine->session_model(id));
        }
        Scope span(tracer, "engine.swap", p);
        engine->swap_model(id, compiled);
      });
      // Streaming continues until a window is served by the new model.
      const std::size_t seen = result.observed.size();
      for (std::size_t second = 0; result.observed.size() == seen && second < 4;
           ++second) {
        const std::int64_t t1 = round(next.record, second);
        if (timed && relearned && result.observed.size() > seen) {
          e2e.relearn_ms.push_back(ms_of(t1 - t_press));
        }
      }
      if (replay != nullptr && relearned) {
        replay->mismatches += same_interval(replayed, result.label) ? 0 : 1;
        replay->after_swap(patient, *compiled, p, tracer);
      }
    }
    ++calls;
    attempt(failed, [&] {
      Scope span(tracer, "engine.close", p);
      engine->remove_session(id);
    });
  }

};

std::unique_ptr<Loop> make_loop(const std::vector<SeizureRecord>& pool) {
  auto loop = std::make_unique<Loop>();
  loop->pool = &pool;
  loop->engine = std::make_unique<engine::Engine>(
      std::make_shared<const core::RealtimeDetector>());
  return loop;
}

/// Failures of one patient: a label differing from the reference, and
/// every missing, extra or misordered window (the streamed ones must be
/// unlabelled, then one window is served by the redeployed model).
std::uint64_t check_patient(const Patient& patient,
                            const signal::Interval& reference) {
  std::uint64_t failures = same_interval(patient.label, reference) ? 0 : 1;
  for (std::size_t k = 0; k < patient.observed.size(); ++k) {
    const Observed& o = patient.observed[k];
    const bool cold = k < k_record_windows;
    failures +=
        o.window != k || (cold && (o.label != 0 || o.alarm != 0)) ? 1 : 0;
  }
  const std::size_t expected = k_record_windows + 1;
  const std::size_t got = patient.observed.size();
  failures += got > expected ? got - expected : expected - got;
  return failures;
}

/// Labels, window streams and digests against the offline reference:
/// APosterioriDetector::label on extract_windowed_features of each
/// record the patients streamed (their whole history).
void verify(const Loop& loop, Outcome& out) {
  const std::vector<SeizureRecord>& pool = *loop.pool;
  std::vector<signal::Interval> reference(pool.size());
  std::vector<bool> needed(pool.size(), false);
  for (const Patient& patient : loop.patients) {
    needed[patient.record] = true;
  }
  const features::PaperFeatureExtractor paper;
  for (std::size_t r = 0; r < pool.size(); ++r) {
    if (needed[r]) {
      const core::SelfLearningConfig config = learning_config(pool[r]);
      reference[r] = core::APosterioriDetector(config.labeling)
                         .label(features::extract_windowed_features(
                                    pool[r].record, paper),
                                config.average_seizure_duration_s);
    }
  }
  Digest digest;
  for (std::size_t p = 0; p < loop.patients.size(); ++p) {
    const Patient& patient = loop.patients[p];
    out.attempted += 1 + k_record_windows + 1;
    out.failed += check_patient(patient, reference[patient.record]);
    if (p < k_digest_patients) {
      digest.value(patient.record);
      digest.value(patient.label.onset);
      digest.value(patient.label.offset);
      for (const Observed& o : patient.observed) {
        digest_observed(digest, o);
      }
    }
  }
  out.attempted += loop.calls;
  out.failed += loop.failed;
  out.detection_digest = digest.get();
  // Self-test: a shifted label and a dropped window must each be caught.
  if (!loop.patients.empty()) {
    const Patient& first = loop.patients.front();
    const signal::Interval& expected = reference[first.record];
    const std::uint64_t base = check_patient(first, expected);
    Patient shifted = first;
    shifted.label.onset += 1.0;
    Patient dropped = first;
    if (!dropped.observed.empty()) {
      dropped.observed.erase(dropped.observed.begin() +
                             static_cast<std::ptrdiff_t>(dropped.observed.size() / 2));
    }
    out.selftest_ok = check_patient(shifted, expected) > base &&
                      check_patient(dropped, expected) > base;
  }
}

std::uint64_t input_digest(const std::vector<SeizureRecord>& pool) {
  Digest digest;
  for (const SeizureRecord& r : pool) {
    for (const signal::Channel& channel : r.record.channels()) {
      digest.bytes(channel.samples.data(), channel.samples.size() * sizeof(Real));
    }
    digest.value(r.average_seizure_s);
  }
  return digest.get();
}

std::vector<SeizureRecord> make_pool(std::uint64_t seed) {
  const sim::CohortSimulator sim(seed);
  return seizure_records(sim, k_records, k_record_s, 500);
}

Outcome measure(const Options& options) {
  Outcome out;
  std::vector<double> setup_s;
  std::vector<SeizureRecord> pool;
  std::unique_ptr<Loop> loop;
  for (std::size_t i = 0; i < k_setup_repeats; ++i) {
    loop.reset();
    pool.clear();
    const std::int64_t t0 = now_ns();
    pool = make_pool(options.seed);
    loop = make_loop(pool);
    loop->run_patient(false, nullptr, nullptr);  // warm-up
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  EndToEnd& e2e = loop->e2e;
  e2e.setup_s = setup_s;
  const std::size_t before = loop->engine->stats().windows_classified;
  const std::int64_t begin = now_ns();
  const auto deadline = begin + static_cast<std::int64_t>(options.seconds * 1e9);
  while (now_ns() < deadline) {
    loop->run_patient(true, nullptr, nullptr);
  }
  e2e.measured_s = static_cast<double>(now_ns() - begin) / 1e9;
  e2e.windows = loop->engine->stats().windows_classified - before;
  verify(*loop, out);
  // Windows that never arrived count as late.
  e2e.expected_windows = (loop->patients.size() - 1) * (k_record_windows + 1);
  out.metrics = end_to_end_metrics(e2e);
  out.input_digest = input_digest(pool);
  std::printf("trigger_relearn: %zu patients (1 trigger each) in %.2f s\n",
              loop->patients.size() - 1, e2e.measured_s);
  return out;
}

/// Traced run: the same patients on the same single thread, untraced
/// first (the baseline), then traced with the layer replay.
Outcome trace(const Options& options) {
  Outcome out;
  const std::vector<SeizureRecord> pool = make_pool(options.seed);
  TraceInputs in;

  std::unique_ptr<Loop> base = make_loop(pool);
  base->run_patient(false, nullptr, nullptr);
  const std::size_t base_windows0 = base->engine->stats().windows_classified;
  std::int64_t t0 = now_ns();
  const auto deadline =
      t0 + static_cast<std::int64_t>(0.35 * options.seconds * 1e9);
  std::size_t patients = 0;
  while (now_ns() < deadline) {
    base->run_patient(false, nullptr, nullptr);
    ++patients;
  }
  in.untraced_wall_ns = now_ns() - t0;
  in.baseline_windows_per_s =
      static_cast<double>(base->engine->stats().windows_classified -
                          base_windows0) /
      (static_cast<double>(in.untraced_wall_ns) / 1e9);

  std::unique_ptr<Loop> traced = make_loop(pool);
  traced->run_patient(false, nullptr, nullptr);
  const engine::EngineStats stats0 = traced->engine->stats();
  Tracer tracer;
  LayerReplay replay;
  t0 = now_ns();
  for (std::size_t i = 0; i < patients; ++i) {
    traced->run_patient(false, &tracer, &replay);
  }
  in.traced_wall_ns = now_ns() - t0;
  const engine::EngineStats stats1 = traced->engine->stats();
  in.windows = stats1.windows_classified - stats0.windows_classified;
  in.batches = stats1.batches - stats0.batches;
  in.forest_rows = stats1.forest_windows - stats0.forest_windows;
  in.predicted_rows = replay.windows.predicted_rows();
  in.paper_windows = replay.paper_windows;
  out.metrics = trace_metrics(options, tracer, in);

  Outcome a;
  verify(*base, a);
  verify(*traced, out);
  out.attempted += a.attempted + patients;
  out.failed += a.failed + replay.mismatches;
  out.selftest_ok = out.selftest_ok && a.selftest_ok;
  out.input_digest = input_digest(pool);
  std::printf("trigger_relearn trace: %zu patients inline, baseline %.0f "
              "windows/s single-threaded\n",
              patients, in.baseline_windows_per_s);
  return out;
}

}  // namespace

Outcome run_trigger_relearn(const Options& options) {
  return options.trace ? trace(options) : measure(options);
}

}  // namespace perfbench
