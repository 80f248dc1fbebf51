// Shared pieces of the repository benchmark: run options, the result record
// printed as the last stdout line, the outside-in layer ledger, and the
// suite/seed helpers every workload draws its inputs from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "workloads/workload.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string traceDir = ".bench_build/traces";
  /// Directory the serve workloads create their stores under.
  std::string storeRoot = ".bench_build/stores";
  /// Use N suite kernels, alternately Rodinia and PolyBench (0 = all 60).
  /// For smoke tests.
  int kernels = 0;
  /// Perturb one computed result before the checks run (the benchmark's own
  /// test that a wrong result is caught).
  bool corrupt = false;
};

/// What one run prints: correctness, operation counts and named metrics.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Every correctness violation found; any entry makes `correct` false.
  std::vector<std::string> violations;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void violate(std::string what) { violations.push_back(std::move(what)); }
  /// The final JSON line.
  [[nodiscard]] std::string json() const;
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The end-to-end metrics every untraced run prints.
struct EndToEnd {
  double throughputPerS = 0;
  double p50Ms = 0;
  double p99Ms = 0;
  double setupS = 0;
  void emit(Result& result) const;
};

/// The per-layer metrics every traced run prints, in a fixed order. A layer
/// the workload never calls reads 0.
class LayerReport {
 public:
  LayerReport();
  /// Sets a known metric; an unknown name is a programming error (aborts).
  void set(const std::string& name, double value);
  void emit(Result& result) const;

 private:
  std::vector<std::pair<std::string, std::string>> order_;  ///< name, unit
  std::map<std::string, double> values_;
};

/// Harrell-Davis estimate of the q-quantile of `samples` (sorted in place).
double quantile(std::vector<double>& samples, double q);
/// Median of a few repeated measurements.
double median(std::vector<double> samples);
/// Peak resident set size of this process, in MB.
double peakRssMb();

/// The outside-in layer ledger of a traced run: every call the benchmark
/// makes into a layer's public function becomes one span (kept in memory,
/// written out at the end), and the per-layer totals are the sum of the
/// spans' durations. Spans never nest, so their sum can be compared with the
/// wall time of the traced pass; what is left is the ledger residual.
class Ledger {
 public:
  Ledger() : origin_(Clock::now()) {}

  /// Runs fn() as one span of `layer`, tagged with `subject` (an index
  /// into suiteKernels()).
  template <typename Fn>
  decltype(auto) time(const char* layer, int subject, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    struct Close {
      Ledger* ledger;
      const char* layer;
      int subject;
      Clock::time_point t0;
      ~Close() { ledger->record(layer, subject, t0, Clock::now()); }
    } close{this, layer, subject, t0};
    return fn();
  }

  void record(const char* layer, int subject, Clock::time_point t0,
              Clock::time_point t1);

  [[nodiscard]] double seconds(const std::string& layer) const;
  [[nodiscard]] std::uint64_t calls(const std::string& layer) const;
  [[nodiscard]] double totalSeconds() const;

  /// Writes the spans as a Chrome trace (one complete event per span).
  bool writeChromeTrace(const std::string& path,
                        const std::vector<std::string>& subjects) const;

 private:
  struct Span {
    const char* layer;
    int subject;
    std::int64_t startNs;
    std::int64_t durNs;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The 60 Rodinia + PolyBench kernels of the paper reproduction, or `limit`
/// of them taken alternately from both suites (0 = all).
std::vector<const flexcl::workloads::Workload*> suiteKernels(int limit);

/// Seeded permutation of [0, n): the order kernels are visited in (dse-*),
/// and the serve workloads' fixed popularity ranking.
std::vector<std::size_t> seededPermutation(std::size_t n, std::uint64_t seed);

/// True when the kernel contains a barrier (forces barrier mode and shapes
/// the design space).
bool hasBarrier(const flexcl::ir::Function& fn);

/// Writes the ledger's spans to <traceDir>/<workload>-seed<seed>.json, each
/// tagged with its kernel's name; a failure is reported on stderr only (the
/// trace is a by-product).
void writeTrace(const Options& options, const Ledger& ledger);

Result runDseModel(const Options& options);
Result runValidateSim(const Options& options);
Result runServeCold(const Options& options);
Result runServeWarm(const Options& options);

}  // namespace perfbench
