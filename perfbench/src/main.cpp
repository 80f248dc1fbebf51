// The repository benchmark (see perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--kernels K] [--corrupt] [--trace-dir DIR] [--store-root DIR]
//
// Prints progress on stderr and, as the last line of stdout, one JSON object
// with "correct", "attempted", "failed" and "metrics". Exits 1 when a
// correctness check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"

namespace {

bool parseNumber(const char* text, double* out) {
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool seedGiven = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt") {
      options.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const char* value = argv[++i];
    double number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace-dir") {
      options.traceDir = value;
    } else if (flag == "--store-root") {
      options.storeRoot = value;
    } else if (!parseNumber(value, &number) || number < 0) {
      std::fprintf(stderr, "perfbench: %s: bad number '%s'\n", flag.c_str(), value);
      return 2;
    } else if (flag == "--seed") {
      options.seed = static_cast<std::uint64_t>(number);
      seedGiven = true;
    } else if (flag == "--seconds") {
      options.seconds = number;
    } else if (flag == "--trace") {
      options.trace = number != 0;
    } else if (flag == "--kernels") {
      options.kernels = static_cast<int>(number);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!seedGiven) {
    std::fprintf(stderr, "perfbench: --seed is required\n");
    return 2;
  }

  perfbench::Result result;
  if (options.workload == "dse-model") {
    result = perfbench::runDseModel(options);
  } else if (options.workload == "validate-sim") {
    result = perfbench::runValidateSim(options);
  } else if (options.workload == "serve-cold") {
    result = perfbench::runServeCold(options);
  } else if (options.workload == "serve-warm") {
    result = perfbench::runServeWarm(options);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (result.attempted == 0) result.violate("no operation was attempted");
  for (const std::string& v : result.violations) {
    std::fprintf(stderr, "perfbench: VIOLATION: %s\n", v.c_str());
  }
  std::printf("%s\n", result.json().c_str());
  return result.violations.empty() ? 0 : 1;
}
