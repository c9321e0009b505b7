// Repository benchmark: one command per workload, printing the host and
// build stamp, the input and detection digests, and a last line of JSON
// with the correctness tallies and the metrics (see README.md).
//
//   perfbench --workload fleet_stream|wire_realtime|trigger_relearn
//             --seed N --seconds S --trace 0|1
//             [--commit SHA] [--out-dir DIR]
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_stream|wire_realtime|trigger_relearn --seed N "
               "--seconds S --trace 0|1 [--commit SHA] [--out-dir DIR]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      usage("missing value");
    }
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--commit") {
      options.commit = value;
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      usage("unknown argument");
    }
  }
  if (options.seconds < 1.0) {
    usage("--seconds must be at least 1");
  }
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  // Keep freed memory in the heap instead of returning it to the kernel:
  // otherwise whether an allocation lands on fresh pages (and pays their
  // faults) depends on the heap's history, which varies from run to run
  // and would decide the latency percentiles.
  mallopt(M_MMAP_THRESHOLD, 256 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  perfbench::Outcome outcome;
  try {
    if (options.workload == "fleet_stream") {
      outcome = perfbench::run_fleet_stream(options);
    } else if (options.workload == "wire_realtime") {
      outcome = perfbench::run_wire_realtime(options);
    } else if (options.workload == "trigger_relearn") {
      outcome = perfbench::run_trigger_relearn(options);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", error.what());
    return 1;
  }

  std::printf("stamp %s\n", perfbench::stamp_json(options).c_str());
  std::printf("digest inputs=%016llx detections=%016llx\n",
              static_cast<unsigned long long>(outcome.input_digest),
              static_cast<unsigned long long>(outcome.detection_digest));
  std::printf("selftest %s (an injected wrong label and a dropped window "
              "must both be caught)\n",
              outcome.selftest_ok ? "ok" : "FAILED");
  std::printf("error_ratio %.6g (%llu failed of %llu attempted)\n",
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  const bool correct = outcome.failed == 0 && outcome.selftest_ok;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
