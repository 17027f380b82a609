// The benchmark binary: runs one workload for a seed and prints its
// metrics, then the result JSON as the last line. perfbench/run.py builds
// it and is the supported entry point; see perfbench/README.md.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "interactive_tcp|closed_loop --seed N "
               "--seconds S --trace 0|1 --out-dir DIR [--source-id ID]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench refuses to run from an assert-enabled build: "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  perfbench::RunOptions options;
  std::string out_dir;
  std::string source_id = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty() || out_dir.empty() || options.seconds <= 0) {
    return Usage();
  }
  options.trace_dir = out_dir;
  options.work_dir =
      out_dir + "/work-" + std::to_string(static_cast<long>(::getpid()));
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report;
  report.Record("workload", options.workload);
  report.Record("seed", static_cast<double>(options.seed));
  report.Record("seconds", options.seconds);
  report.Record("trace", options.trace ? 1.0 : 0.0);
  report.Record("nproc", static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN)));
  report.Record("hardware_threads",
                static_cast<double>(std::thread::hardware_concurrency()));
#ifdef __clang__
  report.Record("compiler", "clang " __VERSION__);
#else
  report.Record("compiler", "gcc " __VERSION__);
#endif
  report.Record("build_type", PERFBENCH_BUILD_TYPE);
  report.Record("source", source_id);

  int code = 0;
  if (options.workload == "interactive_tcp") {
    code = perfbench::RunInteractiveTcp(options, &report);
  } else if (options.workload == "closed_loop") {
    code = perfbench::RunClosedLoop(options, &report);
  } else {
    code = Usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (code != 0) return code;
  if (options.trace) {
    report.Metric("bench.error_rate",
                  report.attempted() == 0
                      ? 0.0
                      : static_cast<double>(report.failed()) /
                            static_cast<double>(report.attempted()),
                  "ratio");
  }
  report.Print(options);
  return 0;
}
