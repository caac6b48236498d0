// qfs_perfbench — the benchmark program.
//
//   qfs_perfbench --workload <paper_suite|large_cold|daemon_hot>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload for about --seconds, checks its outputs, and prints one
// JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
// same workload runs with spans around every layer call and the metrics are
// the per-layer ones (spans are written to .bench_run/spans-*.tsv).
// Progress and diagnostics go to stderr. Exit code 1 on a usage or set-up
// error, without a result line.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "qfs_perfbench: " << why
            << "\nusage: qfs_perfbench --workload <paper_suite|large_cold|"
               "daemon_hot> --seed <n> --seconds <s> --trace <0|1>\n";
  std::exit(1);
}

RunOptions parse_args(int argc, char** argv) {
  RunOptions opts;
  opts.process_start = kProcessStart;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed '" + value + "'");
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opts.seconds > 0.0)) {
        usage("bad --seconds '" + value + "'");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace '" + value + "'");
      opts.trace = value == "1";
    } else {
      usage("unknown option '" + arg + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return opts;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

void print_result(bool correct, const RunResult& r,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(int argc, char** argv) {
  const RunOptions opts = parse_args(argc, argv);
  std::filesystem::create_directories(opts.work_dir);

  Checker checker;
  Tracer tracer(opts.trace);
  TraceLedger ledger;
  RunResult result;
  if (opts.workload == "paper_suite") {
    result = run_paper_suite(opts, checker, tracer, ledger);
  } else if (opts.workload == "large_cold") {
    result = run_large_cold(opts, checker, tracer, ledger);
  } else if (opts.workload == "daemon_hot") {
    result = run_daemon_hot(opts, checker, tracer, ledger);
  } else {
    usage("unknown workload '" + opts.workload + "'");
  }

  if (opts.trace) {
    const std::string path = opts.work_dir + "/spans-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".tsv";
    if (!tracer.write(path)) {
      std::cerr << "qfs_perfbench: cannot write " << path << "\n";
      return 1;
    }
    std::cerr << "qfs_perfbench: " << tracer.spans().size()
              << " spans written to " << path << "\n";
    print_result(checker.all_passed(), result, layer_metrics(tracer, ledger));
  } else {
    print_result(checker.all_passed(), result, result.metrics);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "qfs_perfbench: " << e.what() << "\n";
    return 1;
  }
}
