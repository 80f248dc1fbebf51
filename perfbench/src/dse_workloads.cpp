// dse-model and validate-sim: cold sweeps over the 60 suite kernels.
//
// Untraced runs time the sweep as a user pays for it. Traced runs repeat the
// same work twice with fresh caches: once through the public entry point
// (the reference: plain estimates for dse-model, dse::Explorer for
// validate-sim) and once layer by layer, timing every call into a layer's
// public function. The two must agree bit for bit on every design.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>

#include "common.h"
#include "dse/design_space.h"
#include "dse/explorer.h"
#include "model/device.h"
#include "model/flexcl.h"
#include "runtime/compile_cache.h"
#include "sdaccel/sdaccel_estimator.h"
#include "sim/system_sim.h"

namespace perfbench {
namespace {

using namespace flexcl;

/// How often set-up is repeated in one run; setup_s is the median.
constexpr int kSetupRepeats = 9;
/// About the time of one cold dse-model sweep on a 4-core 2.1 GHz host.
constexpr double kSweepSeconds = 10;

struct Kernel {
  const workloads::Workload* meta = nullptr;
  std::unique_ptr<workloads::CompiledWorkload> compiled;
  std::vector<model::DesignPoint> space;
};

using LocalKey = std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>;

LocalKey localKey(const model::LaunchInfo& launch, const model::DesignPoint& d) {
  const interp::NdRange r = model::FlexCl::rangeFor(launch, d);
  return {r.local[0], r.local[1], r.local[2]};
}

/// One design index per distinct effective local size, in design order —
/// the unit the per-launch artifacts (profile, race verdict, sim input) are
/// built for.
std::vector<std::size_t> localSizeReps(const model::LaunchInfo& launch,
                                       const std::vector<model::DesignPoint>& space) {
  std::vector<std::size_t> reps;
  std::set<LocalKey> seen;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (seen.insert(localKey(launch, space[i])).second) reps.push_back(i);
  }
  return reps;
}

/// Compiles one suite kernel and enumerates its design space. A failure is
/// counted and recorded; the kernel is then left without a program.
Kernel compileKernel(const workloads::Workload& w, Result& result) {
  Kernel k;
  k.meta = &w;
  std::string error;
  auto compiled = workloads::compileWorkload(w, &error);
  if (!compiled) {
    result.violate("compile " + w.fullName() + ": " + error);
    return k;
  }
  k.compiled = std::make_unique<workloads::CompiledWorkload>(std::move(*compiled));
  k.space = dse::enumerateDesignSpace(k.compiled->meta.range,
                                      hasBarrier(*k.compiled->fn));
  if (k.space.empty()) result.violate("empty design space: " + w.fullName());
  return k;
}

std::vector<Kernel> compileSuite(const std::vector<const workloads::Workload*>& suite,
                                 Result& result) {
  std::vector<Kernel> kernels;
  kernels.reserve(suite.size());
  for (const auto* w : suite) kernels.push_back(compileKernel(*w, result));
  return kernels;
}

/// Set-up of the dse workloads, repeated kSetupRepeats times: compile +
/// data build of every kernel, plus the FlexCl construction (pattern-latency
/// calibration). Returns the median time; `kernels` holds the last set.
double timedSetup(const Options& options, std::vector<Kernel>* kernels,
                  Result& result) {
  std::vector<double> times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    kernels->clear();
    Result setupResult;
    const Clock::time_point t0 = Clock::now();
    *kernels = compileSuite(suiteKernels(options.kernels), setupResult);
    model::FlexCl flexcl(model::Device::virtex7());
    times.push_back(secondsSince(t0));
    if (r == kSetupRepeats - 1) {
      for (auto& v : setupResult.violations) result.violate(std::move(v));
    }
  }
  return median(times);
}

/// Per-design answers of one sweep, by kernel index then design index.
using Answers = std::vector<std::vector<double>>;

/// Checks one estimate: failures are counted, and the cycle breakdown must
/// add up to the cycles of every ok estimate.
void checkEstimate(const model::Estimate& est, const std::string& where,
                   bool corrupt, Result& result) {
  ++result.attempted;
  if (!est.ok) {
    ++result.failed;
    return;
  }
  const double cycles = corrupt ? est.cycles + 1.0 : est.cycles;
  const double total = est.breakdown.total();
  if (std::abs(total - cycles) > 1e-9 * std::max(1.0, std::abs(cycles))) {
    result.violate("breakdown total " + std::to_string(total) + " != cycles " +
                   std::to_string(cycles) + " at " + where);
  }
}

/// The model-only sweep as a user pays for it: per kernel, the race verdict
/// for each distinct local size (the racy-design annotation an exploration
/// reports), then FlexCl::estimate on every design point.
Answers modelSweep(const std::vector<Kernel>& kernels,
                   const std::vector<std::size_t>& order, model::FlexCl& flexcl,
                   const Options& options, std::vector<double>* latenciesMs,
                   Result& result) {
  Answers answers(kernels.size());
  bool corruptNext = options.corrupt;
  for (std::size_t k : order) {
    const Kernel& kernel = kernels[k];
    if (!kernel.compiled) continue;
    const model::LaunchInfo launch = kernel.compiled->launch();
    for (std::size_t rep : localSizeReps(launch, kernel.space)) {
      flexcl.raceVerdictFor(launch, kernel.space[rep]);
    }
    answers[k].resize(kernel.space.size());
    for (std::size_t i = 0; i < kernel.space.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const model::Estimate est = flexcl.estimate(launch, kernel.space[i]);
      latenciesMs->push_back(secondsSince(t0) * 1e3);
      checkEstimate(est, kernel.meta->fullName() + " " + kernel.space[i].str(),
                    corruptNext, result);
      corruptNext = false;
      answers[k][i] = est.ok ? est.cycles : 0;
    }
  }
  return answers;
}

/// Per-kernel accuracy of one exploration, by suite kernel index; summed in
/// that order, so the suite figures do not depend on the visit order.
struct KernelAccuracy {
  bool explored = false;
  double errPct = 0;
  double gapPct = 0;
};

/// Explores one kernel with all three evaluators, serially, exactly as the
/// paper-reproduction benches do.
dse::ExplorationResult exploreKernel(const Kernel& kernel, model::FlexCl& flexcl) {
  dse::ExplorerOptions exOpts;
  exOpts.jobs = 1;
  exOpts.kernelHash = runtime::kernelKeyHash(kernel.meta->source,
                                             kernel.meta->kernel,
                                             kernel.meta->defines);
  dse::Explorer explorer(flexcl, kernel.compiled->launch(), exOpts);
  return explorer.explore(kernel.space);
}

/// Checks an exploration result: every design must have both answers, the
/// reported average error must match its designs, and the model's answer for
/// the design it picks must be reproducible and add up.
void checkExploration(dse::ExplorationResult& res, const Kernel& kernel,
                      model::FlexCl& flexcl, bool corrupt, Result& result) {
  const std::string name = kernel.meta->fullName();
  if (corrupt && !res.designs.empty()) res.designs[0].flexclCycles *= 1.5;
  double errSum = 0;
  for (const dse::EvaluatedDesign& d : res.designs) {
    ++result.attempted;
    if (d.flexclCycles <= 0 || d.simCycles <= 0) ++result.failed;
    errSum += d.flexclErrorPct();
  }
  const double avg = res.designs.empty() ? 0 : errSum / static_cast<double>(res.designs.size());
  if (std::abs(avg - res.avgFlexclErrorPct) > 1e-9 * std::max(1.0, avg)) {
    result.violate("average error of " + name + " does not match its designs");
  }
  if (res.bestByFlexcl < 0) {
    result.violate("no design picked for " + name);
    return;
  }
  const dse::EvaluatedDesign& best =
      res.designs[static_cast<std::size_t>(res.bestByFlexcl)];
  const model::Estimate est = flexcl.estimate(kernel.compiled->launch(), best.design);
  if (!est.ok || est.cycles != best.flexclCycles) {
    result.violate("picked design of " + name + " does not re-estimate identically");
  }
  if (est.ok && std::abs(est.breakdown.total() - est.cycles) >
                    1e-9 * std::max(1.0, est.cycles)) {
    result.violate("breakdown of the picked design of " + name + " does not add up");
  }
}

void emitAccuracy(const std::vector<const workloads::Workload*>& suite,
                  const std::vector<KernelAccuracy>& accuracy, LayerReport& layers) {
  for (const char* name : {"rodinia", "polybench"}) {
    double err = 0, gap = 0;
    int n = 0;
    for (std::size_t k = 0; k < suite.size(); ++k) {
      if (!accuracy[k].explored || suite[k]->suite != name) continue;
      err += accuracy[k].errPct;
      gap += accuracy[k].gapPct;
      ++n;
    }
    if (n == 0) continue;
    layers.set(std::string(name) + ".avg_err_pct", err / n);
    layers.set(std::string(name) + ".pick_gap_pct", gap / n);
  }
}

/// What the layered pass counts besides its spans: the simulator's exact
/// ground-truth counters, SDAccel outcomes, verdicts and cache traffic.
struct LayerTotals {
  std::uint64_t accesses = 0;  ///< coalesced accesses in prepared inputs
  std::uint64_t dramAccesses = 0;
  std::uint64_t rowHits = 0;
  std::uint64_t bankWait = 0;
  std::uint64_t busWait = 0;
  std::uint64_t refreshStall = 0;
  std::uint64_t memStall = 0;
  std::uint64_t dispatchStall = 0;
  /// Simulated cycles by suite kernel index (summed in that order).
  std::vector<double> cycles;
  std::uint64_t sdaccelCalls = 0;
  std::uint64_t sdaccelFails = 0;
  std::uint64_t exactVerdicts = 0;
  runtime::CounterSnapshot profile;
  runtime::CounterSnapshot analysis;
  runtime::CounterSnapshot simInput;

  void add(std::size_t kernel, const sim::SimResult& r) {
    dramAccesses += r.dramAccesses;
    rowHits += r.dramRowHits;
    bankWait += r.dramBankWaitCycles;
    busWait += r.dramBusWaitCycles;
    refreshStall += r.dramRefreshStallCycles;
    memStall += r.memStallCycles;
    dispatchStall += r.dispatchStallCycles;
    if (cycles.size() <= kernel) cycles.resize(kernel + 1, 0.0);
    cycles[kernel] += r.cycles;
  }
};

/// The same work as the reference sweep, driven layer by layer in dependency
/// order; every call into a layer is one ledger span. Returns the per-design
/// model answers (and simulator answers when `withSim`).
void layeredSweep(const std::vector<const workloads::Workload*>& suite,
                  const std::vector<std::size_t>& order, bool withSim,
                  Ledger& ledger, Answers* flexclAnswers, Answers* simAnswers,
                  LayerTotals* totals, Result& result) {
  model::FlexCl flexcl(model::Device::virtex7());
  flexclAnswers->assign(suite.size(), {});
  simAnswers->assign(suite.size(), {});
  for (std::size_t k : order) {
    const int subject = static_cast<int>(k);
    std::string error;
    std::optional<workloads::CompiledWorkload> compiled = ledger.time(
        "compile", subject, [&] { return workloads::compileWorkload(*suite[k], &error); });
    if (!compiled) {
      result.violate("compile " + suite[k]->fullName() + ": " + error);
      continue;
    }
    const model::LaunchInfo launch = compiled->launch();
    const std::vector<model::DesignPoint> space = ledger.time("dse.space", subject, [&] {
      return dse::enumerateDesignSpace(compiled->meta.range, hasBarrier(*compiled->fn));
    });
    const std::vector<std::size_t> reps = localSizeReps(launch, space);

    const runtime::CounterSnapshot profileBase = flexcl.profileCacheCounters();
    const runtime::CounterSnapshot analysisBase = flexcl.analysisCacheCounters();
    std::map<LocalKey, bool> raceFree;
    for (std::size_t rep : reps) {
      const model::DesignPoint& d = space[rep];
      // The profile span is filed under the tier the verdict says produced it.
      const Clock::time_point t0 = Clock::now();
      flexcl.profileFor(launch, d);
      const Clock::time_point t1 = Clock::now();
      const analysis::staticprof::Verdict verdict = ledger.time(
          "analysis.staticprof", subject, [&] { return flexcl.staticVerdict(launch, d); });
      if (verdict.exact()) ++totals->exactVerdicts;
      ledger.record(verdict.exact() ? "interp.profile.static" : "interp.profile.interp",
                    subject, t0, t1);
      raceFree[localKey(launch, d)] = ledger.time("analysis.raceverify", subject, [&] {
        return flexcl.raceVerdictFor(launch, d).raceFree();
      });
    }
    for (const model::DesignPoint& d : space) {
      ledger.time("cdfg.analyze", subject, [&] { return flexcl.analysisShared(launch, d); });
    }
    std::vector<double>& fc = (*flexclAnswers)[k];
    for (const model::DesignPoint& d : space) {
      const model::Estimate est =
          ledger.time("model.estimate", subject, [&] { return flexcl.estimate(launch, d); });
      fc.push_back(est.ok ? est.cycles : 0);
      ++result.attempted;
      if (!est.ok) ++result.failed;
    }
    totals->profile += flexcl.profileCacheCounters().deltaSince(profileBase);
    totals->analysis += flexcl.analysisCacheCounters().deltaSince(analysisBase);
    if (!withSim) continue;

    // System-Run: one functional execution per local size, then the
    // cycle-level engine per design (and for the unoptimised baseline the
    // pick-quality figure is measured against).
    sim::SimScratch scratch;
    std::map<LocalKey, sim::SimInput> inputs;
    auto inputFor = [&](const model::DesignPoint& d) -> const sim::SimInput& {
      const LocalKey key = localKey(launch, d);
      if (auto it = inputs.find(key); it != inputs.end()) {
        ++totals->simInput.hits;
        return it->second;
      }
      ++totals->simInput.misses;
      sim::SimInputOptions simOptions;
      auto free = raceFree.find(key);
      simOptions.conflictTracking = free == raceFree.end() || !free->second;
      sim::SimInput input = ledger.time("sim.prepare", subject, [&] {
        return sim::prepareSimInput(*launch.fn, model::FlexCl::rangeFor(launch, d),
                                    launch.args, *launch.buffers, simOptions, scratch);
      });
      totals->accesses += input.accesses.size();
      return inputs.emplace(key, std::move(input)).first->second;
    };
    for (std::size_t rep : reps) inputFor(space[rep]);
    std::vector<double>& sc = (*simAnswers)[k];
    for (const model::DesignPoint& d : space) {
      const sim::SimInput& input = inputFor(d);
      const sim::SimResult r = ledger.time("sim.engine", subject, [&] {
        return sim::simulate(input, flexcl.device(), d);
      });
      totals->add(k, r);
      sc.push_back(r.ok ? r.cycles : 0);
      if (!r.ok && fc[sc.size() - 1] != 0) ++result.failed;
    }
    const model::DesignPoint baseline = dse::unoptimizedBaseline(launch.range);
    const sim::SimInput& baseInput = inputFor(baseline);
    totals->add(k, ledger.time("sim.engine", subject, [&] {
      return sim::simulate(baseInput, flexcl.device(), baseline);
    }));
    for (const model::DesignPoint& d : space) {
      const auto sd = ledger.time("sdaccel", subject, [&] {
        const auto analysisPtr = flexcl.analysisShared(launch, d);
        return sdaccel::estimateSdaccel(*launch.fn, *analysisPtr, flexcl.device(), d,
                                        model::FlexCl::rangeFor(launch, d).globalCount());
      });
      ++totals->sdaccelCalls;
      if (!sd) ++totals->sdaccelFails;
    }
  }
}

void compareAnswers(const char* what, const Answers& reference, const Answers& layered,
                    const std::vector<const workloads::Workload*>& suite, bool corrupt,
                    Result& result) {
  for (std::size_t k = 0; k < reference.size(); ++k) {
    if (reference[k].size() != layered[k].size()) {
      result.violate(std::string(what) + " design count differs for " + suite[k]->fullName());
      continue;
    }
    for (std::size_t i = 0; i < reference[k].size(); ++i) {
      const double ref = corrupt && k == 0 && i == 0 ? reference[k][i] + 1 : reference[k][i];
      if (ref != layered[k][i]) {
        result.violate(std::string(what) + " cycles of " + suite[k]->fullName() + " design " +
                       std::to_string(i) + " differ between the layered path and the reference");
        break;
      }
    }
  }
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole) : 0.0;
}

/// Per-layer report of a traced dse run. `referenceWall` is the untraced
/// reference pass (compile + sweep), `layeredWall` the traced pass.
void emitLedger(const Ledger& ledger, const LayerTotals& t, double referenceWall,
                double layeredWall, LayerReport& layers) {
  layers.set("compile.s", ledger.seconds("compile"));
  layers.set("compile.kernels", static_cast<double>(ledger.calls("compile")));
  layers.set("analysis.raceverify.s", ledger.seconds("analysis.raceverify"));
  layers.set("analysis.raceverify.calls", static_cast<double>(ledger.calls("analysis.raceverify")));
  layers.set("analysis.staticprof.exact", static_cast<double>(t.exactVerdicts));
  layers.set("interp.profile.static.s", ledger.seconds("interp.profile.static"));
  layers.set("interp.profile.interp.s", ledger.seconds("interp.profile.interp"));
  layers.set("interp.profile.calls", static_cast<double>(ledger.calls("interp.profile.static") +
                                                         ledger.calls("interp.profile.interp")));
  layers.set("cdfg.analyze.s", ledger.seconds("cdfg.analyze"));
  layers.set("cdfg.analyze.misses", static_cast<double>(t.analysis.misses));
  layers.set("model.estimate.s", ledger.seconds("model.estimate"));
  layers.set("model.estimate.calls", static_cast<double>(ledger.calls("model.estimate")));
  layers.set("sim.prepare.s", ledger.seconds("sim.prepare"));
  layers.set("sim.prepare.calls", static_cast<double>(ledger.calls("sim.prepare")));
  layers.set("sim.accesses", static_cast<double>(t.accesses));
  const double engine = ledger.seconds("sim.engine");
  layers.set("sim.engine.s", engine);
  layers.set("sim.engine.calls", static_cast<double>(ledger.calls("sim.engine")));
  layers.set("sim.engine.ns_per_access",
             t.dramAccesses > 0 ? engine * 1e9 / static_cast<double>(t.dramAccesses) : 0);
  layers.set("dram.accesses", static_cast<double>(t.dramAccesses));
  layers.set("dram.row_hit_ratio", ratio(t.rowHits, t.dramAccesses));
  layers.set("dram.bank_wait_cycles", static_cast<double>(t.bankWait));
  layers.set("dram.bus_wait_cycles", static_cast<double>(t.busWait));
  layers.set("dram.refresh_stall_cycles", static_cast<double>(t.refreshStall));
  layers.set("sim.mem_stall_cycles", static_cast<double>(t.memStall));
  layers.set("sim.dispatch_stall_cycles", static_cast<double>(t.dispatchStall));
  double cycles = 0;
  for (double c : t.cycles) cycles += c;
  layers.set("sim.cycles", cycles);
  layers.set("sdaccel.s", ledger.seconds("sdaccel"));
  layers.set("sdaccel.calls", static_cast<double>(t.sdaccelCalls));
  layers.set("sdaccel.fail_ratio", ratio(t.sdaccelFails, t.sdaccelCalls));
  layers.set("analysis.staticprof.s", ledger.seconds("analysis.staticprof"));
  layers.set("dse.space.s", ledger.seconds("dse.space"));
  layers.set("dse.explore.s", referenceWall);
  layers.set("ledger.residual_pct",
             layeredWall > 0 ? 100.0 * (layeredWall - ledger.totalSeconds()) / layeredWall : 0);
  layers.set("trace.overhead_pct",
             referenceWall > 0 ? 100.0 * (layeredWall - referenceWall) / referenceWall : 0);
  layers.set("runtime.profile.hit_ratio", ratio(t.profile.hits, t.profile.lookups()));
  layers.set("runtime.profile.lookups", static_cast<double>(t.profile.lookups()));
  layers.set("runtime.analysis.hit_ratio", ratio(t.analysis.hits, t.analysis.lookups()));
  layers.set("runtime.analysis.lookups", static_cast<double>(t.analysis.lookups()));
  layers.set("runtime.sim_input.hit_ratio", ratio(t.simInput.hits, t.simInput.lookups()));
  layers.set("runtime.sim_input.lookups", static_cast<double>(t.simInput.lookups()));
}

}  // namespace

Result runDseModel(const Options& options) {
  Result result;
  const auto suite = suiteKernels(options.kernels);
  const std::vector<std::size_t> order = seededPermutation(suite.size(), options.seed);

  if (options.trace) {
    // Reference: the untraced sweep (compile + model sweep, fresh caches).
    Answers refAnswers;
    double referenceWall = 0;
    {
      const Clock::time_point t0 = Clock::now();
      std::vector<Kernel> kernels = compileSuite(suite, result);
      model::FlexCl reference(model::Device::virtex7());
      std::vector<double> latencies;
      Result refResult;  // operations are counted once, on the layered pass
      refAnswers = modelSweep(kernels, order, reference, options, &latencies, refResult);
      referenceWall = secondsSince(t0);
      for (auto& v : refResult.violations) result.violate(std::move(v));
    }

    Ledger ledger;
    Answers flexclAnswers, simAnswers;
    LayerTotals totals;
    const Clock::time_point t2 = Clock::now();
    layeredSweep(suite, order, false, ledger, &flexclAnswers, &simAnswers, &totals, result);
    const double layeredWall = secondsSince(t2);
    compareAnswers("model", refAnswers, flexclAnswers, suite, false, result);

    LayerReport layers;
    emitLedger(ledger, totals, referenceWall, layeredWall, layers);
    layers.emit(result);
    writeTrace(options, ledger);
    return result;
  }

  std::vector<Kernel> kernels;
  EndToEnd e2e;
  e2e.setupS = timedSetup(options, &kernels, result);
  std::vector<double> latencies;
  std::uint64_t points = 0;
  double busy = 0;
  // Whole cold sweeps, each with a fresh model: one per kSweepSeconds of the
  // run, so every run does the same work whatever the host's speed.
  const int sweeps = std::max(1, static_cast<int>(options.seconds / kSweepSeconds));
  for (int s = 0; s < sweeps; ++s) {
    model::FlexCl flexcl(model::Device::virtex7());
    const std::size_t before = latencies.size();
    const Clock::time_point t0 = Clock::now();
    modelSweep(kernels, order, flexcl, options, &latencies, result);
    busy += secondsSince(t0);
    points += latencies.size() - before;
  }
  e2e.throughputPerS = busy > 0 ? static_cast<double>(points) / busy : 0;
  e2e.p50Ms = quantile(latencies, 0.50);
  e2e.p99Ms = quantile(latencies, 0.99);
  e2e.emit(result);
  return result;
}

Result runValidateSim(const Options& options) {
  Result result;
  const auto suite = suiteKernels(options.kernels);
  const std::vector<std::size_t> order = seededPermutation(suite.size(), options.seed);

  if (options.trace) {
    // Reference: dse::Explorer over every kernel, fresh caches.
    const Clock::time_point t0 = Clock::now();
    Answers refFlexcl(suite.size()), refSim(suite.size());
    std::vector<KernelAccuracy> accuracy(suite.size());
    {
      model::FlexCl reference(model::Device::virtex7());
      for (std::size_t k : order) {
        Kernel kernel = compileKernel(*suite[k], result);
        if (!kernel.compiled) continue;
        dse::ExplorationResult res = exploreKernel(kernel, reference);
        for (const dse::EvaluatedDesign& d : res.designs) {
          refFlexcl[k].push_back(d.flexclCycles);
          refSim[k].push_back(d.simCycles);
        }
        accuracy[k] = {true, res.avgFlexclErrorPct, res.pickGapPct};
      }
    }
    const double referenceWall = secondsSince(t0);

    Ledger ledger;
    Answers flexclAnswers, simAnswers;
    LayerTotals totals;
    const Clock::time_point t1 = Clock::now();
    layeredSweep(suite, order, true, ledger, &flexclAnswers, &simAnswers, &totals, result);
    const double layeredWall = secondsSince(t1);
    compareAnswers("model", refFlexcl, flexclAnswers, suite, options.corrupt, result);
    compareAnswers("simulated", refSim, simAnswers, suite, false, result);

    LayerReport layers;
    emitLedger(ledger, totals, referenceWall, layeredWall, layers);
    emitAccuracy(suite, accuracy, layers);
    layers.emit(result);
    writeTrace(options, ledger);
    return result;
  }

  std::vector<Kernel> kernels;
  EndToEnd e2e;
  e2e.setupS = timedSetup(options, &kernels, result);
  model::FlexCl flexcl(model::Device::virtex7());
  std::vector<double> kernelMs;
  std::uint64_t points = 0;
  double busy = 0;
  bool corruptNext = options.corrupt;
  for (std::size_t k : order) {
    if (!kernels[k].compiled) continue;
    const Clock::time_point t0 = Clock::now();
    dse::ExplorationResult res = exploreKernel(kernels[k], flexcl);
    const double s = secondsSince(t0);
    busy += s;
    kernelMs.push_back(s * 1e3);
    points += res.designs.size();
    checkExploration(res, kernels[k], flexcl, corruptNext, result);
    corruptNext = false;
  }
  e2e.throughputPerS = busy > 0 ? static_cast<double>(points) / busy : 0;
  e2e.p50Ms = quantile(kernelMs, 0.50);
  e2e.p99Ms = quantile(kernelMs, 0.99);
  e2e.emit(result);
  return result;
}

}  // namespace perfbench
