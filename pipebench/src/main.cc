// pipebench: the repository's end-to-end benchmark runner.
//
//   pipebench --workload <batch_motif|fleet_join|serve_durable|all>
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//             [--git DESCRIBE]
//   pipebench --smoke      all workloads, both modes, short runs
//   pipebench --selftest   each gate must fire on its planted fault
//
// For one workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; `all` prints one
// such line per workload. A failed correctness gate prints
// correct=false and exits 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "trace.h"
#include "util/simd.h"
#include "workloads.h"

namespace pipebench {
namespace {

std::string g_git_describe = "unknown";

void Usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload W --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--git DESCRIBE]\n"
               "       pipebench --smoke | --selftest\n");
  std::exit(2);
}

std::vector<std::pair<std::string, std::string>> Environment(
    const Config& config) {
  return {
      {"workload", config.workload},
      {"seed", std::to_string(config.seed)},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"simd", frechet_motif::SimdLevelName(frechet_motif::ActiveSimdLevel())},
      {"build_type", PIPEBENCH_BUILD_TYPE},
      {"git", g_git_describe},
  };
}

void RunWorkload(const Config& config, Result* result) {
  if (config.workload == "batch_motif") {
    RunBatchMotif(config, result);
  } else if (config.workload == "fleet_join") {
    RunFleetJoin(config, result);
  } else if (config.workload == "serve_durable") {
    RunServeDurable(config, result);
  } else {
    std::fprintf(stderr, "pipebench: unknown workload %s\n",
                 config.workload.c_str());
    std::exit(2);
  }
}

/// Runs one workload and checks the result carries exactly the declared
/// metrics for its mode.
Result RunChecked(const Config& config) {
  Result result;
  RunWorkload(config, &result);
  const auto& specs = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  for (const MetricSpec& spec : specs) {
    if (!result.Has(spec.name)) {
      std::fprintf(stderr, "pipebench: %s did not report %s\n",
                   config.workload.c_str(), spec.name);
      std::exit(2);
    }
  }
  return result;
}

const char* const kWorkloads[] = {"batch_motif", "fleet_join",
                                  "serve_durable"};

/// Runs every workload in each of the given modes and prints one labelled
/// JSON result per run, with its notes; returns 1 when any gate failed.
int RunAll(const Config& base, std::initializer_list<bool> trace_modes,
           const char* label) {
  int failures = 0;
  for (const char* workload : kWorkloads) {
    for (bool trace : trace_modes) {
      Config config = base;
      config.workload = workload;
      config.trace = trace;
      const Result result = RunChecked(config);
      std::printf("%s %-13s trace=%d %s\n", label, workload, trace ? 1 : 0,
                  result.Json().c_str());
      for (const std::string& note : result.notes()) {
        std::printf("  %s\n", note.c_str());
      }
      for (const std::string& why : result.gate_failures()) {
        std::printf("  gate failed: %s\n", why.c_str());
      }
      if (!result.correct()) ++failures;
    }
  }
  std::printf("%s: %s\n", label, failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

/// Every gate must pass on clean outputs and fire on its planted fault.
int SelfTest(Config base) {
  struct Case {
    const char* workload;
    Fault fault;
  };
  const Case cases[] = {
      {"batch_motif", Fault::kNone},
      {"batch_motif", Fault::kFlipDistanceBit},
      {"fleet_join", Fault::kNone},
      {"fleet_join", Fault::kWrongJoinDelta},
      {"serve_durable", Fault::kNone},
      {"serve_durable", Fault::kDropFrame},
  };
  int failures = 0;
  for (const Case& c : cases) {
    Config config = base;
    config.workload = c.workload;
    config.fault = c.fault;
    const Result result = RunChecked(config);
    const bool want_correct = c.fault == Fault::kNone;
    const bool ok = result.correct() == want_correct;
    std::printf("selftest %-13s fault=%d: %s (correct=%s)\n", c.workload,
                static_cast<int>(c.fault), ok ? "ok" : "FAILED",
                result.correct() ? "true" : "false");
    for (const std::string& why : result.gate_failures()) {
      std::printf("  gate: %s\n", why.c_str());
    }
    if (!ok) ++failures;
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

void FillUnmeasuredLayers(Result* result) {
  for (const MetricSpec& spec : PerLayerMetrics()) {
    if (!result->Has(spec.name)) result->Set(spec.name, 0.0, spec.unit);
  }
}

void WriteTrace(const Config& config, const Tracer& tracer) {
  const std::string dir = config.work_dir + "/traces";
  std::error_code error;
  std::filesystem::create_directories(dir, error);
  const std::string path = dir + "/" + config.workload + "-" +
                           std::to_string(config.seed) + ".trace.json";
  if (error || !tracer.WriteChromeTrace(path, Environment(config))) {
    std::fprintf(stderr, "pipebench: cannot write %s\n", path.c_str());
  }
}

}  // namespace pipebench

int main(int argc, char** argv) {
  using pipebench::Config;
#ifndef NDEBUG
  std::fprintf(stderr,
               "pipebench: refusing to measure a build with assertions on "
               "(build type %s); configure with -DCMAKE_BUILD_TYPE=Release\n",
               PIPEBENCH_BUILD_TYPE);
  return 2;
#endif
  if (std::strcmp(PIPEBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "pipebench: refusing a %s build; use Release\n",
                 PIPEBENCH_BUILD_TYPE);
    return 2;
  }

  Config config;
  bool smoke = false;
  bool selftest = false;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    auto next = [&]() -> std::string {
      if (k + 1 >= argc) pipebench::Usage();
      return argv[++k];
    };
    if (arg == "--workload") {
      config.workload = next();
    } else if (arg == "--seed") {
      config.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(next().c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = next() == "1";
    } else if (arg == "--work-dir") {
      config.work_dir = next();
    } else if (arg == "--git") {
      pipebench::g_git_describe = next();
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      pipebench::Usage();
    }
  }

  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error) {
    std::fprintf(stderr, "pipebench: cannot create %s: %s\n",
                 config.work_dir.c_str(), error.message().c_str());
    return 2;
  }
  if (smoke || selftest) {
    config.smoke = true;
    config.seconds = 0.4;
    return selftest ? pipebench::SelfTest(config)
                    : pipebench::RunAll(config, {false, true}, "smoke");
  }
  if (config.workload.empty() || !(config.seconds > 0.0)) pipebench::Usage();

  // A traced run measures an untraced phase and then a traced one, each
  // for half the time, so that both kinds of run take equally long.
  if (config.trace) config.seconds /= 2;
  for (const auto& [key, value] : pipebench::Environment(config)) {
    std::printf("env %s=%s\n", key.c_str(), value.c_str());
  }
  if (config.workload == "all") {
    return pipebench::RunAll(config, {config.trace}, "all");
  }
  const pipebench::Result result = pipebench::RunChecked(config);
  for (const std::string& note : result.notes()) {
    std::printf("%s\n", note.c_str());
  }
  for (const std::string& why : result.gate_failures()) {
    std::printf("gate failed: %s\n", why.c_str());
  }
  std::printf("%s\n", result.Json().c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
