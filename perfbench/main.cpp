// archex_perfbench — the repository benchmark's program. run.py builds it
// and calls it; it can also be run directly:
//
//   archex_perfbench --workload synth|serve|analyze --seed N --seconds S
//                    --trace 0|1 --goldens DIR [--trace-dir DIR]
//   archex_perfbench --make-goldens synth|analyze --out FILE
//
// It prints one line per metric, then the result as one JSON object on the
// last line: {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "error: %s\nusage: archex_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --goldens DIR [--trace-dir DIR]\n"
               "       archex_perfbench --make-goldens synth|analyze "
               "--out FILE\n",
               why.c_str());
  std::exit(2);
}

void print_result(const Options& options, const Result& result) {
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  const double fail_frac =
      static_cast<double>(result.failed) /
      static_cast<double>(result.attempted > 0 ? result.attempted : 1);
  std::printf("# %s seed %llu trace %d: fail_frac %.6g (%ld of %ld ops), "
              "counter drift %ld\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, fail_frac, result.failed,
              result.attempted, result.drift);
  std::string json = "{\"correct\": ";
  json += result.failed == 0 && result.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("# %-32s %18.6f %-6s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.applicable ? "" : "  (n/a on this workload)");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += std::string(first ? "" : ", ") + "\"" + m.name +
            "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string make_goldens;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--goldens") {
      options.goldens_dir = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (flag == "--make-goldens") {
      make_goldens = value;
    } else if (flag == "--out") {
      out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  try {
    if (!make_goldens.empty()) {
      if (out.empty()) usage("--make-goldens needs --out");
      if (make_goldens == "synth") {
        perfbench::make_synth_goldens(out);
      } else if (make_goldens == "analyze") {
        perfbench::make_analyze_goldens(out);
      } else {
        usage("no goldens for " + make_goldens);
      }
      return 0;
    }
    if (options.goldens_dir.empty()) usage("--goldens is required");
    if (options.seconds <= 0.0) usage("--seconds must be positive");
    Result result;
    if (options.workload == "synth") {
      result = perfbench::run_synth(options);
    } else if (options.workload == "serve") {
      result = perfbench::run_serve(options);
    } else if (options.workload == "analyze") {
      result = perfbench::run_analyze(options);
    } else {
      usage("unknown workload \"" + options.workload + "\"");
    }
    print_result(options, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "archex_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
