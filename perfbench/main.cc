// perfbench: the repository benchmark. Runs one named workload for a
// fixed time, checks its outputs, prints host and build metadata and a
// table of metrics, and ends with one JSON result line:
//
//   perfbench --workload <train|serve_lockstep|serve_staggered|sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--trace-dir <dir>] [--commit <sha>]
//
// `--trace 0` measures the end-to-end metrics with the program's obs layer
// off; `--trace 1` is the separate traced run that measures per-layer
// metrics. Normally launched through perfbench/run.py, which builds it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "bench.h"
#include "common/parallel.h"
#include "tensor/dispatch.h"

namespace perfbench {
namespace {

const std::set<std::string>& Workloads() {
  static const std::set<std::string> names = {"train", "serve_lockstep",
                                              "serve_staggered", "sweep"};
  return names;
}

int Usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train|serve_lockstep|serve_staggered|sweep> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--trace-dir <dir>] "
               "[--commit <sha>]\n",
               problem);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (!(options->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (flag == "--trace-dir") {
      options->trace_dir = value;
    } else if (flag == "--commit") {
      options->commit = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return Workloads().count(options->workload) == 1;
}

/// First line of /proc/cpuinfo starting with `key`, after the colon.
std::string CpuInfo(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "unknown";
}

bool HasFlag(const std::string& flags, const std::string& flag) {
  return (" " + flags + " ").find(" " + flag + " ") != std::string::npos;
}

void PrintMetadata(const Options& options) {
  const std::string flags = CpuInfo("flags");
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 0;
#endif
  const bool was_enabled = obs::SetEnabled(true);
  const bool obs_compiled = obs::Enabled();
  obs::SetEnabled(was_enabled);
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.smoke ? " smoke" : "");
  std::printf("host: nproc=%d cpu=\"%s\" avx2=%s avx512f=%s\n",
              ppn::HardwareThreads(), CpuInfo("model name").c_str(),
              HasFlag(flags, "avx2") ? "yes" : "no",
              HasFlag(flags, "avx512f") ? "yes" : "no");
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "c++";
#endif
  std::printf("build: type=%s compiler=\"%s %s\" simd=%s omp_threads=%d "
              "obs=%s commit=%s\n",
              PERFBENCH_BUILD_TYPE, compiler, __VERSION__,
              ppn::dispatch::PathName(ppn::dispatch::ActivePath()),
              omp_threads, obs_compiled ? "compiled-in" : "compiled-out",
              options.commit.c_str());
}

void PrintTable(const Report& report) {
  std::printf("\n%-36s %16s  %-8s %s\n", "metric", "value", "unit", "note");
  for (const Metric& m : report.metrics()) {
    char value[32];
    if (std::isnan(m.value)) {
      std::snprintf(value, sizeof(value), "missing");
    } else {
      std::snprintf(value, sizeof(value), "%.6g", m.value);
    }
    std::string note = m.note;
    if (!m.json_name.empty() && m.json_name != m.name) {
      note = "[" + m.json_name + "] " + note;
    }
    std::printf("%-36s %16s  %-8s %s\n", m.name.c_str(), value,
                m.unit.c_str(), note.c_str());
  }
  std::printf("\n");
}

void PrintResultLine(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              report.failed() == 0 ? "true" : "false",
              static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()));
  bool first = true;
  for (const Metric& m : report.metrics()) {
    if (m.json_name.empty() || !std::isfinite(m.value)) continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.json_name.c_str(), m.value,
                m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage("bad arguments");
  obs::SetEnabled(false);  // Set-up and untraced work run with obs off.
  PrintMetadata(options);
  std::fflush(stdout);

  Report report;
  if (options.workload == "train") {
    RunTrain(options, &report);
  } else if (options.workload == "sweep") {
    RunSweep(options, &report);
  } else {
    RunServe(options, options.workload == "serve_staggered", &report);
  }
  if (!options.trace) {
    report.Add("peak_rss_mb", "MB", PeakRssMb(), "peak_rss_mb");
  }
  report.Print("failed_share", "ratio",
               static_cast<double>(report.failed()) /
                   static_cast<double>(report.attempted()),
               std::to_string(report.failed()) + " of " +
                   std::to_string(report.attempted()) + " operations and checks");
  PrintTable(report);
  if (options.trace) {
    std::error_code error;
    std::filesystem::create_directories(options.trace_dir, error);
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    if (!error && Spans().Write(path)) {
      std::printf("spans: %zu written to %s\n", Spans().size(), path.c_str());
    } else {
      std::printf("spans: could not write %s\n", path.c_str());
    }
  }
  PrintResultLine(report);
  return report.failed() == 0 ? 0 : 1;
}
