// Microbenchmarks of the feature extraction pipeline: per-window cost of
// the 10-feature (labeling) and 54x2-feature (real-time classifier) sets,
// and whole-record throughput.
//
// The per-window cases cycle through the 597 distinct 4 s windows (1 s
// hop) of a 600 s synthetic record, as a stream does: data-dependent
// branches (the quartile selections above all) cost far more there than
// on one window extracted again and again. The `*_repeated` cases keep
// that single-window figure for comparison.
//
// Two modes:
//  * default: Google Benchmark suite, including allocating-vs-workspace
//    pairs for both extractors;
//  * --json PATH: self-timed before/after comparison — windows/sec and
//    allocs/window for the allocating and the workspace-threaded
//    extract_into paths (BENCH_features.json in CI).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "alloc_compare.hpp"
#include "dsp/workspace.hpp"
#include "features/eglass_features.hpp"
#include "features/extractor.hpp"
#include "features/paper_features.hpp"
#include "signal/sliding_window.hpp"
#include "sim/cohort.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace {

using namespace esl;

const sim::CohortSimulator& simulator() {
  static const sim::CohortSimulator instance;
  return instance;
}

using Window = std::vector<std::span<const Real>>;

/// The first 4 s window of a short record, extracted on every iteration:
/// the branch predictors learn its data, so this is a lower bound.
struct RepeatedWindow {
  signal::EegRecord record;
  Window window;

  explicit RepeatedWindow(std::uint64_t seed)
      : record(simulator().synthesize_background_record(0, 8.0, seed)) {
    const std::span<const Real> a = record.channel(0).samples;
    const std::span<const Real> b = record.channel(1).samples;
    window = {a.subspan(0, 1024), b.subspan(0, 1024)};
  }

  const Window& next() { return window; }
};

/// Every distinct 4 s window at a 1 s hop of a 600 s record (597 of
/// them), cycled in stream order: the data a streaming session feeds the
/// extractor.
struct DistinctWindows {
  static constexpr Seconds k_record_seconds = 600.0;

  signal::EegRecord record;
  std::vector<Window> windows;
  std::size_t cursor = 0;

  explicit DistinctWindows(std::uint64_t seed)
      : record(simulator().synthesize_background_record(0, k_record_seconds,
                                                        seed)) {
    const auto plan = signal::SlidingWindows::paper_plan(
        record.length_samples(), record.sample_rate_hz());
    for (std::size_t w = 0; w < plan.count(); ++w) {
      windows.push_back({plan.view(record.channel(0).samples, w),
                         plan.view(record.channel(1).samples, w)});
    }
  }

  const Window& next() {
    const Window& window = windows[cursor];
    cursor = cursor + 1 == windows.size() ? 0 : cursor + 1;
    return window;
  }
};

template <typename Windows, typename Extractor>
void bm_extract(benchmark::State& state, Windows windows,
                const Extractor& extractor) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(windows.next(), 256.0));
  }
}

template <typename Windows, typename Extractor>
void bm_extract_into(benchmark::State& state, Windows windows,
                     const Extractor& extractor) {
  dsp::Workspace ws;
  RealVector row;
  for (auto _ : state) {
    extractor.extract_into(windows.next(), 256.0, row, ws);
    benchmark::DoNotOptimize(row.data());
  }
}

const features::PaperFeatureExtractor k_paper;
const features::EglassFeatureExtractor k_eglass(2);

void bm_paper_features_window(benchmark::State& state) {
  bm_extract(state, DistinctWindows(1), k_paper);
}
BENCHMARK(bm_paper_features_window);

void bm_paper_features_window_workspace(benchmark::State& state) {
  bm_extract_into(state, DistinctWindows(1), k_paper);
}
BENCHMARK(bm_paper_features_window_workspace);

void bm_paper_features_window_workspace_repeated(benchmark::State& state) {
  bm_extract_into(state, RepeatedWindow(1), k_paper);
}
BENCHMARK(bm_paper_features_window_workspace_repeated);

void bm_eglass_features_window(benchmark::State& state) {
  bm_extract(state, DistinctWindows(2), k_eglass);
}
BENCHMARK(bm_eglass_features_window);

void bm_eglass_features_window_workspace(benchmark::State& state) {
  bm_extract_into(state, DistinctWindows(2), k_eglass);
}
BENCHMARK(bm_eglass_features_window_workspace);

void bm_eglass_features_window_workspace_repeated(benchmark::State& state) {
  bm_extract_into(state, RepeatedWindow(2), k_eglass);
}
BENCHMARK(bm_eglass_features_window_workspace_repeated);

void bm_paper_features_per_minute_of_record(benchmark::State& state) {
  const auto record = simulator().synthesize_background_record(1, 60.0, 3);
  const features::PaperFeatureExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        features::extract_windowed_features(record, extractor));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 57);
}
BENCHMARK(bm_paper_features_per_minute_of_record)->Unit(benchmark::kMillisecond);

void bm_record_synthesis_per_minute(benchmark::State& state) {
  std::uint64_t label = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        simulator().synthesize_background_record(2, 60.0, label++));
  }
}
BENCHMARK(bm_record_synthesis_per_minute)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------------- --json
// Harness + JSON schema shared with micro_dsp (alloc_compare.hpp).

using bench::Comparison;
using bench::measure;

/// Allocating-vs-workspace comparison of `extractor` over `windows`.
template <typename Windows, typename Extractor>
Comparison compare(const char* name, Windows windows,
                   const Extractor& extractor) {
  dsp::Workspace ws;
  RealVector row;
  return {name,
          measure(
              [&] {
                benchmark::DoNotOptimize(
                    extractor.extract(windows.next(), 256.0));
              },
              2000),
          measure(
              [&] {
                extractor.extract_into(windows.next(), 256.0, row, ws);
                benchmark::DoNotOptimize(row.data());
              },
              2000)};
}

int run_json_mode(const std::string& path) {
  const std::vector<Comparison> comparisons = {
      compare("eglass_window_1024", DistinctWindows(2), k_eglass),
      compare("paper_window_1024", DistinctWindows(2), k_paper),
      compare("eglass_window_1024_repeated", RepeatedWindow(2), k_eglass),
      compare("paper_window_1024_repeated", RepeatedWindow(2), k_paper)};
  bench::print_comparison_table("extractor", comparisons);
  return bench::write_comparison_json(path, "micro_features", comparisons);
}

}  // namespace

int main(int argc, char** argv) {
  return esl::bench::benchmark_main_with_json(argc, argv, run_json_mode);
}
