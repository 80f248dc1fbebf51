#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "ir/ir.h"
#include "serve/json.h"
#include "support/rng.h"

namespace perfbench {
namespace {

/// Shortest round-trip rendering, so a value keeps all its digits.
std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

}  // namespace

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += violations.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

void EndToEnd::emit(Result& result) const {
  const double attempted = static_cast<double>(std::max<std::uint64_t>(1, result.attempted));
  result.metric("throughput_per_s", throughputPerS, "1/s");
  result.metric("p50_ms", p50Ms, "ms");
  result.metric("p99_ms", p99Ms, "ms");
  result.metric("success_pct",
                100.0 * (attempted - static_cast<double>(result.failed)) / attempted,
                "%");
  result.metric("setup_s", setupS, "s");
  result.metric("peak_rss_mb", peakRssMb(), "MB");
}

LayerReport::LayerReport()
    : order_({
          {"compile.s", "s"},
          {"compile.kernels", "count"},
          {"analysis.raceverify.s", "s"},
          {"analysis.raceverify.calls", "count"},
          {"analysis.lint.s", "s"},
          {"analysis.staticprof.s", "s"},
          {"analysis.staticprof.exact", "count"},
          {"interp.profile.static.s", "s"},
          {"interp.profile.interp.s", "s"},
          {"interp.profile.calls", "count"},
          {"cdfg.analyze.s", "s"},
          {"cdfg.analyze.misses", "count"},
          {"model.estimate.s", "s"},
          {"model.estimate.calls", "count"},
          {"sim.prepare.s", "s"},
          {"sim.prepare.calls", "count"},
          {"sim.accesses", "count"},
          {"sim.engine.s", "s"},
          {"sim.engine.calls", "count"},
          {"sim.engine.ns_per_access", "ns"},
          {"dram.accesses", "count"},
          {"dram.row_hit_ratio", "ratio"},
          {"dram.bank_wait_cycles", "cycles"},
          {"dram.bus_wait_cycles", "cycles"},
          {"dram.refresh_stall_cycles", "cycles"},
          {"sim.mem_stall_cycles", "cycles"},
          {"sim.dispatch_stall_cycles", "cycles"},
          {"sim.cycles", "cycles"},
          {"sdaccel.s", "s"},
          {"sdaccel.calls", "count"},
          {"sdaccel.fail_ratio", "ratio"},
          {"dse.space.s", "s"},
          {"dse.explore.s", "s"},
          {"ledger.residual_pct", "%"},
          {"trace.overhead_pct", "%"},
          {"runtime.profile.hit_ratio", "ratio"},
          {"runtime.profile.lookups", "count"},
          {"runtime.analysis.hit_ratio", "ratio"},
          {"runtime.analysis.lookups", "count"},
          {"runtime.sim_input.hit_ratio", "ratio"},
          {"runtime.sim_input.lookups", "count"},
          {"runtime.flexcl_eval.hit_ratio", "ratio"},
          {"runtime.flexcl_eval.lookups", "count"},
          {"serve.requests", "count"},
          {"serve.estimate.p50_ms", "ms"},
          {"serve.explain.p50_ms", "ms"},
          {"serve.lint.p50_ms", "ms"},
          {"serve.explore.p50_ms", "ms"},
          {"store.open_s", "s"},
          {"store.bytes", "bytes"},
          {"store.entries", "count"},
          {"store.warm_hit_ratio", "ratio"},
          {"store.warm_lookups", "count"},
          {"store.quarantined", "count"},
          {"rodinia.avg_err_pct", "%"},
          {"rodinia.pick_gap_pct", "%"},
          {"polybench.avg_err_pct", "%"},
          {"polybench.pick_gap_pct", "%"},
      }) {
  for (const auto& [name, unit] : order_) values_[name] = 0;
}

void LayerReport::set(const std::string& name, double value) {
  auto it = values_.find(name);
  if (it == values_.end()) {
    std::fprintf(stderr, "perfbench: unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  it->second = value;
}

void LayerReport::emit(Result& result) const {
  for (const auto& [name, unit] : order_) {
    result.metric(name, values_.at(name), unit);
  }
}

namespace {

/// Continued fraction of the incomplete beta function (modified Lentz).
double betaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  double c = 1.0;
  double d = 1.0 - (a + b) * x / (a + 1.0);
  d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
  double h = d;
  for (int m = 1; m <= 10000; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a + m2 - 1.0) * (a + m2));
    d = 1.0 + aa * d;
    d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
    c = 1.0 + aa / c;
    c = std::abs(c) < kTiny ? kTiny : c;
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0));
    d = 1.0 + aa * d;
    d = 1.0 / (std::abs(d) < kTiny ? kTiny : d);
    c = 1.0 + aa / c;
    c = std::abs(c) < kTiny ? kTiny : c;
    const double step = d * c;
    h *= step;
    if (std::abs(step - 1.0) < 1e-15) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double incompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                                a * std::log(x) + b * std::log1p(-x));
  if (x < (a + 1.0) / (a + b + 2.0)) return front * betaContinuedFraction(a, b, x) / a;
  return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

}  // namespace

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 1) return samples[0];
  // Harrell-Davis: a Beta-weighted mean of the order statistics around
  // rank q*n. Unlike picking one or two order statistics, it does not jump
  // when a sparse tail (a few expensive first touches) reorders.
  const double a = q * static_cast<double>(n + 1);
  const double b = (1.0 - q) * static_cast<double>(n + 1);
  double estimate = 0;
  double previous = 0;
  for (std::size_t i = 1; i <= n; ++i) {
    const double cdf = incompleteBeta(a, b, static_cast<double>(i) / static_cast<double>(n));
    estimate += (cdf - previous) * samples[i - 1];
    previous = cdf;
  }
  return estimate;
}

double median(std::vector<double> samples) { return quantile(samples, 0.5); }

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

void Ledger::record(const char* layer, int subject, Clock::time_point t0,
                    Clock::time_point t1) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  spans_.push_back({layer, subject,
                    duration_cast<nanoseconds>(t0 - origin_).count(),
                    duration_cast<nanoseconds>(t1 - t0).count()});
}

double Ledger::seconds(const std::string& layer) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (layer == s.layer) ns += s.durNs;
  }
  return static_cast<double>(ns) * 1e-9;
}

std::uint64_t Ledger::calls(const std::string& layer) const {
  std::uint64_t n = 0;
  for (const Span& s : spans_) {
    if (layer == s.layer) ++n;
  }
  return n;
}

double Ledger::totalSeconds() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) ns += s.durNs;
  return static_cast<double>(ns) * 1e-9;
}

bool Ledger::writeChromeTrace(const std::string& path,
                              const std::vector<std::string>& subjects) const {
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string subject =
        s.subject >= 0 && static_cast<std::size_t>(s.subject) < subjects.size()
            ? subjects[static_cast<std::size_t>(s.subject)]
            : std::string();
    out << (i ? ",\n" : "\n") << "{\"name\": \"" << s.layer
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << static_cast<double>(s.startNs) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.durNs) * 1e-3
        << ", \"args\": {\"subject\": \""
        << flexcl::serve::jsonEscapeString(subject) << "\"}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

std::vector<const flexcl::workloads::Workload*> suiteKernels(int limit) {
  std::vector<const flexcl::workloads::Workload*> out;
  for (const auto* suite : {&flexcl::workloads::rodiniaSuite(),
                            &flexcl::workloads::polybenchSuite()}) {
    for (const auto& w : *suite) out.push_back(&w);
  }
  if (limit > 0 && static_cast<std::size_t>(limit) < out.size()) {
    // Keep both suites represented in a truncated run.
    std::vector<const flexcl::workloads::Workload*> picked;
    const std::size_t rodinia = flexcl::workloads::rodiniaSuite().size();
    for (int i = 0; i < limit; ++i) {
      const std::size_t half = static_cast<std::size_t>(i / 2);
      picked.push_back(i % 2 == 0 ? out[half] : out[rodinia + half]);
    }
    out = std::move(picked);
  }
  return out;
}

std::vector<std::size_t> seededPermutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  flexcl::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.nextBelow(i)]);
  }
  return perm;
}

bool hasBarrier(const flexcl::ir::Function& fn) {
  for (const auto& bb : fn.blocks()) {
    for (const flexcl::ir::Instruction* inst : bb->instructions()) {
      if (inst->opcode() == flexcl::ir::Opcode::Barrier) return true;
    }
  }
  return false;
}

void writeTrace(const Options& options, const Ledger& ledger) {
  std::vector<std::string> subjects;
  for (const auto* w : suiteKernels(options.kernels)) subjects.push_back(w->fullName());
  std::error_code ec;
  std::filesystem::create_directories(options.traceDir, ec);
  const std::string path = options.traceDir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed) + ".json";
  if (!ledger.writeChromeTrace(path, subjects)) {
    std::fprintf(stderr, "perfbench: cannot write trace %s\n", path.c_str());
  }
}

}  // namespace perfbench
