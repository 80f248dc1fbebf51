// serve-cold and serve-warm: closed-loop request streams through
// serve::Dispatcher.
//
// Kernel popularity is Zipf over a fixed ranking of the 60 suite kernels, and
// the op mix is estimate 80%, explain 10%, lint 5% and model-only explore 5%.
// Requests are scheduled by smooth weighted round robin over (kernel, op)
// classes, so every class gets its exact share of any stretch of the stream:
// a run's cold work (which kernels are first explored, and when) is the same
// on every seed. Drawing kernels at random instead, or from a seeded ranking,
// moved which expensive first touches fell inside the window, and with them
// p99 and peak memory, by over 30% between seeds. The seed draws each
// request's design point. Request i is a pure function of (seed, i), so the
// stream is the same whichever caller thread takes which request.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <thread>

#include "common.h"
#include "dse/design_space.h"
#include "serve/dispatcher.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "support/rng.h"

namespace perfbench {
namespace {

using namespace flexcl;

constexpr int kCallers = 2;
/// serve-cold set-up repetitions; serve-warm populates kPopulateRepeats times.
constexpr int kSetupRepeats = 9;
constexpr int kPopulateRepeats = 3;
/// Zipf exponent of kernel popularity, and the fixed ranking's seed.
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kRankingSeed = 2017;
/// Requests of the serve-warm populate pass: the cold stream's prefix.
constexpr std::uint64_t kPopulateRequests = 300;
/// Requests per second of --seconds: a run answers a fixed number of
/// requests, so every run answers the same ones (a time window let the
/// expensive first touches near its end fall in or out, moving p99). At 15 s
/// serve-cold answers 1,005 requests, enough for 10 beyond p99; two callers
/// take about 25 s for them on a 4-core 2.1 GHz host, serve-warm's 1,500
/// about 17 s.
constexpr double kColdRate = 67;
constexpr double kWarmRate = 100;
/// Length of the precomputed (kernel, op) schedule; longer streams wrap.
constexpr std::size_t kScheduleLength = 20000;

enum Op : std::uint8_t { kEstimate, kExplain, kLint, kExplore, kOpCount };
const char* const kOpNames[kOpCount] = {"estimate", "explain", "lint", "explore"};
const double kOpShare[kOpCount] = {0.80, 0.10, 0.05, 0.05};

/// One suite kernel as a client sends it: the source with its defines
/// inlined, the launch geometry, and its design space rendered as requests
/// spell it.
struct ServedKernel {
  std::string common;  ///< "source", "kernel", "global", "global_y" fields
  std::vector<std::string> designs;
  /// Design indices grouped by work-group size, in enumeration order.
  std::vector<std::vector<std::size_t>> byWorkGroup;
};

std::vector<ServedKernel> buildCatalog(const Options& options, Ledger* ledger,
                                       Result& result) {
  std::vector<ServedKernel> catalog;
  const auto suite = suiteKernels(options.kernels);
  for (std::size_t k = 0; k < suite.size(); ++k) {
    const workloads::Workload& w = *suite[k];
    std::string error;
    auto compile = [&] { return workloads::compileWorkload(w, &error); };
    std::optional<workloads::CompiledWorkload> compiled =
        ledger ? ledger->time("compile", static_cast<int>(k), compile) : compile();
    if (!compiled) {
      result.violate("compile " + w.fullName() + ": " + error);
      continue;
    }
    const std::map<std::string, std::string> defines(w.defines.begin(), w.defines.end());
    std::string source;
    for (const auto& [name, value] : defines) source += "#define " + name + " " + value + "\n";
    source += w.source;
    ServedKernel sk;
    sk.common = "\"source\": \"" + serve::jsonEscapeString(source) + "\", \"kernel\": \"" +
                w.kernel + "\", \"global\": " + std::to_string(w.range.global[0]) +
                ", \"global_y\": " + std::to_string(w.range.global[1]);
    std::map<std::array<std::uint32_t, 3>, std::size_t> groupOf;
    for (const model::DesignPoint& d :
         dse::enumerateDesignSpace(w.range, hasBarrier(*compiled->fn))) {
      auto [it, fresh] = groupOf.emplace(d.workGroupSize, sk.byWorkGroup.size());
      if (fresh) sk.byWorkGroup.emplace_back();
      sk.byWorkGroup[it->second].push_back(sk.designs.size());
      sk.designs.push_back(serve::renderDesign(d));
    }
    catalog.push_back(std::move(sk));
  }
  return catalog;
}

/// One position of the schedule.
struct Slot {
  std::uint32_t kernel;
  Op op;
  /// How many earlier slots asked this kernel for a design point.
  std::uint32_t occurrence;
};

/// The (kernel, op) sequence every stream follows: smooth weighted round
/// robin, each class weighted by its kernel's Zipf share times its op share.
std::vector<Slot> buildSchedule(std::size_t kernels) {
  const std::vector<std::size_t> ranking = seededPermutation(kernels, kRankingSeed);
  double norm = 0;
  for (std::size_t r = 0; r < kernels; ++r) {
    norm += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
  }
  std::vector<double> weight, credit;
  for (std::size_t r = 0; r < kernels; ++r) {
    const double share = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent) / norm;
    for (double op : kOpShare) weight.push_back(share * op);
  }
  credit.assign(weight.size(), 0.0);
  std::vector<Slot> schedule;
  std::vector<std::uint32_t> occurrences(kernels, 0);
  schedule.reserve(kScheduleLength);
  for (std::size_t i = 0; i < kScheduleLength; ++i) {
    std::size_t best = 0;
    for (std::size_t c = 0; c < weight.size(); ++c) {
      credit[c] += weight[c];
      if (credit[c] > credit[best]) best = c;
    }
    credit[best] -= 1.0;
    const auto kernel = static_cast<std::uint32_t>(ranking[best / kOpCount]);
    const auto op = static_cast<Op>(best % kOpCount);
    schedule.push_back({kernel, op, occurrences[kernel]});
    if (op != kExplore) ++occurrences[kernel];
  }
  return schedule;
}

class Stream {
 public:
  /// `wrap` > 0 repeats the schedule's first `wrap` positions (the warm
  /// stream revisits what the populate pass asked for).
  Stream(const std::vector<ServedKernel>& catalog,
         const std::vector<Slot>& schedule, std::uint64_t seed,
         std::uint64_t wrap = 0)
      : catalog_(catalog), schedule_(schedule), seed_(seed),
        wrap_(wrap > 0 ? wrap : schedule.size()) {}

  struct Request {
    Op op = kEstimate;
    std::size_t kernel = 0;
    std::size_t design = 0;
    /// Identity of the request apart from its id.
    [[nodiscard]] std::uint64_t key() const {
      return (static_cast<std::uint64_t>(kernel) << 40) |
             (static_cast<std::uint64_t>(design) << 8) | op;
    }
  };

  [[nodiscard]] Request draw(std::uint64_t i) const {
    const Slot& slot = schedule_[i % wrap_];
    Request r;
    r.kernel = slot.kernel;
    r.op = slot.op;
    if (slot.op != kExplore) {
      // Work-group sizes in turn, the design within one drawn by the seed:
      // which launch geometries get profiled (most of a kernel's memory)
      // is then the same on every seed.
      const auto& groups = catalog_[slot.kernel].byWorkGroup;
      const auto& group = groups[slot.occurrence % groups.size()];
      Rng rng(stableHashCombine(seed_, i));
      r.design = group[rng.nextBelow(group.size())];
    }
    return r;
  }

  [[nodiscard]] std::string line(std::uint64_t id, const Request& r) const {
    const ServedKernel& k = catalog_[r.kernel];
    std::string out = "{\"id\": " + std::to_string(id) + ", \"op\": \"" + kOpNames[r.op] +
                      "\", " + k.common;
    if (r.op != kExplore) out += ", \"design\": " + k.designs[r.design];
    out += "}";
    return out;
  }

 private:
  const std::vector<ServedKernel>& catalog_;
  const std::vector<Slot>& schedule_;
  std::uint64_t seed_;
  std::uint64_t wrap_;
};

bool responseOk(const std::string& response) {
  const std::size_t okTrue = response.find("\"ok\": true");
  const std::size_t okFalse = response.find("\"ok\": false");
  return okTrue != std::string::npos && (okFalse == std::string::npos || okTrue < okFalse);
}

/// The response without its "id" field (the only part allowed to differ
/// between two answers to the same request).
std::string withoutId(const std::string& response) {
  const std::size_t at = response.find("\"id\": ");
  if (at == std::string::npos) return response;
  const std::size_t end = response.find(", ", at);
  return end == std::string::npos ? response : response.substr(0, at) + response.substr(end + 2);
}

struct Call {
  Stream::Request request;
  Clock::time_point t0;
  Clock::time_point t1;
  std::string response;
};

struct LoopOutcome {
  std::vector<Call> calls;
  double wall = 0;
};

/// Runs kCallers closed-loop callers over the first `requests` requests of
/// `stream`. Responses are kept and checked after the loop, so checking
/// costs the callers nothing.
LoopOutcome closedLoop(serve::Dispatcher& dispatcher, const Stream& stream,
                       std::uint64_t requests) {
  std::atomic<std::uint64_t> next{0};
  std::vector<std::vector<Call>> perCaller(kCallers);
  const Clock::time_point start = Clock::now();
  auto caller = [&](std::vector<Call>* calls) {
    for (std::uint64_t i = next++; i < requests; i = next++) {
      Call call;
      call.request = stream.draw(i);
      const std::string line = stream.line(i + 1, call.request);
      call.t0 = Clock::now();
      call.response = dispatcher.handleLine(line);
      call.t1 = Clock::now();
      calls->push_back(std::move(call));
    }
  };
  std::vector<std::thread> threads;
  for (auto& calls : perCaller) threads.emplace_back(caller, &calls);
  for (std::thread& t : threads) t.join();
  LoopOutcome out;
  out.wall = secondsSince(start);
  for (auto& calls : perCaller) {
    std::move(calls.begin(), calls.end(), std::back_inserter(out.calls));
  }
  return out;
}

/// Counts the loop's requests into `result`: a response that is not ok is a
/// failure, and an ok estimate whose cycle breakdown does not add up to its
/// cycles is a violation. `corrupt` alters the first estimate checked.
void checkResponses(const LoopOutcome& loop, bool corrupt, Result& result) {
  for (const Call& c : loop.calls) {
    ++result.attempted;
    if (!responseOk(c.response)) {
      if (result.failed++ == 0) {
        std::fprintf(stderr, "perfbench: request failed: %.300s\n", c.response.c_str());
      }
      continue;
    }
    if (c.request.op != kEstimate) continue;
    serve::JsonValue doc;
    std::string error;
    const serve::JsonValue* r = nullptr;
    if (!serve::parseJson(c.response, &doc, &error) || !(r = doc.find("result")) ||
        !r->find("breakdown")) {
      result.violate("malformed estimate response: " + c.response.substr(0, 200));
      continue;
    }
    const serve::JsonValue& b = *r->find("breakdown");
    const double total = b.numberOr("compute", 0) + b.numberOr("memory", 0) +
                         b.numberOr("fill_drain", 0) + b.numberOr("dispatch", 0);
    double cycles = r->numberOr("cycles", -1);
    if (corrupt) {
      cycles += 1;
      corrupt = false;
    }
    if (std::abs(total - cycles) > 1e-9 * std::max(1.0, std::abs(cycles))) {
      result.violate("estimate breakdown does not add up: " + c.response.substr(0, 200));
    }
  }
}

double ms(const Call& c) {
  return std::chrono::duration<double, std::milli>(c.t1 - c.t0).count();
}

/// A store directory of this process under the checkout, emptied first.
std::string freshStoreDir(const Options& options) {
  const std::string dir = options.storeRoot + "/" + options.workload + "-" +
                          std::to_string(static_cast<long>(getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir;
}

void removeStore(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

std::unique_ptr<serve::Dispatcher> openDispatcher(const std::string& dir, Result& result) {
  serve::DispatcherOptions dopts;
  dopts.storeDir = dir;
  auto dispatcher = std::make_unique<serve::Dispatcher>(dopts);
  if (!dispatcher->storeOk()) result.violate("store did not open: " + dispatcher->storeError());
  return dispatcher;
}

const char* const kCaches[3] = {"profile", "analysis", "flexcl_eval"};

std::uint64_t timedRequests(const Options& options, double rate) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(options.seconds * rate)));
}

/// End-to-end figures of the timed phase (dispatcher construction included).
void emitEndToEnd(const LoopOutcome& loop, double openS, const std::vector<double>& setupS,
                  Result& result) {
  EndToEnd e2e;
  std::vector<double> latencies;
  for (const Call& c : loop.calls) latencies.push_back(ms(c));
  e2e.throughputPerS = static_cast<double>(loop.calls.size()) / (openS + loop.wall);
  e2e.p50Ms = quantile(latencies, 0.50);
  e2e.p99Ms = quantile(latencies, 0.99);
  e2e.setupS = median(setupS);
  e2e.emit(result);
}

/// Per-layer figures of the timed phase: request spans by op, cache and
/// store counters read through the stats op and Store::stats.
void emitServeLayers(serve::Dispatcher& dispatcher, const LoopOutcome& loop, double openS,
                     Ledger& ledger, LayerReport& layers, Result& result) {
  const Clock::time_point t0 = Clock::now();
  for (const Call& c : loop.calls) {
    ledger.record(kOpNames[c.request.op], static_cast<int>(c.request.kernel), c.t0, c.t1);
  }
  serve::JsonValue stats;
  std::string error;
  const std::string response = dispatcher.handleLine("{\"id\": 0, \"op\": \"stats\"}");
  const serve::JsonValue* runtimeStats = nullptr;
  if (!serve::parseJson(response, &stats, &error) || !stats.find("result") ||
      !(runtimeStats = stats.find("result")->find("runtime"))) {
    result.violate("stats op gave no runtime counters: " + response.substr(0, 200));
    return;
  }
  double warmHits = 0, lookups = 0;
  for (const char* cache : kCaches) {
    const serve::JsonValue* c = runtimeStats->find(cache);
    const double hits = c ? c->numberOr("hits", 0) : 0;
    const double n = c ? hits + c->numberOr("misses", 0) : 0;
    layers.set(std::string("runtime.") + cache + ".hit_ratio", n > 0 ? hits / n : 0);
    layers.set(std::string("runtime.") + cache + ".lookups", n);
    warmHits += c ? c->numberOr("warm_hits", 0) : 0;
    lookups += n;
  }
  layers.set("store.warm_hit_ratio", lookups > 0 ? warmHits / lookups : 0);
  layers.set("store.warm_lookups", lookups);
  if (serve::Store* store = dispatcher.store()) {
    const serve::Store::StoreStats ss = store->stats();
    layers.set("store.bytes", static_cast<double>(ss.totalBytes()));
    layers.set("store.entries", static_cast<double>(ss.totalEntries()));
    layers.set("store.quarantined", static_cast<double>(ss.totalQuarantined()));
  }
  layers.set("store.open_s", openS);
  layers.set("serve.requests", static_cast<double>(loop.calls.size()));
  double inside = 0;
  for (int op = 0; op < kOpCount; ++op) {
    std::vector<double> lat;
    double opSeconds = 0;
    for (const Call& c : loop.calls) {
      if (c.request.op != op) continue;
      lat.push_back(ms(c));
      opSeconds += ms(c) * 1e-3;
    }
    inside += opSeconds;
    if (op == kLint) layers.set("analysis.lint.s", opSeconds);
    layers.set(std::string("serve.") + kOpNames[op] + ".p50_ms", quantile(lat, 0.5));
  }
  layers.set("compile.s", ledger.seconds("compile"));
  layers.set("compile.kernels", static_cast<double>(ledger.calls("compile")));
  // Caller time not spent inside a Dispatcher call (drawing requests,
  // recording them): the serve ledger's residual.
  const double callerTime = kCallers * loop.wall;
  layers.set("ledger.residual_pct",
             callerTime > 0 ? 100.0 * (callerTime - inside) / callerTime : 0);
  // Tracing adds no work inside the loop (latencies are recorded either
  // way); its cost is this post-processing.
  layers.set("trace.overhead_pct", 100.0 * secondsSince(t0) / (openS + loop.wall));
}

/// Prints the run's metrics: end-to-end, or the layer report and trace.
void finish(const Options& options, serve::Dispatcher& dispatcher, const LoopOutcome& loop,
            double openS, const std::vector<double>& setupS, Ledger& ledger,
            Result& result) {
  if (!options.trace) {
    emitEndToEnd(loop, openS, setupS, result);
    return;
  }
  LayerReport layers;
  emitServeLayers(dispatcher, loop, openS, ledger, layers, result);
  layers.emit(result);
  writeTrace(options, ledger);
}

}  // namespace

Result runServeCold(const Options& options) {
  Result result;
  Ledger ledger;
  // Set-up: the client's catalog (compiled to learn each kernel's design
  // space) and an empty store directory; repeated, median kept.
  std::vector<ServedKernel> catalog;
  std::vector<double> setupS;
  std::string dir;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (!dir.empty()) removeStore(dir);
    Result setupResult;
    const bool last = r == kSetupRepeats - 1;
    const Clock::time_point t0 = Clock::now();
    catalog = buildCatalog(options, last && options.trace ? &ledger : nullptr, setupResult);
    dir = freshStoreDir(options);
    setupS.push_back(secondsSince(t0));
    if (last) {
      for (auto& v : setupResult.violations) result.violate(std::move(v));
    }
  }

  // Timed: a fresh daemon over the empty store answering the stream.
  const Clock::time_point open0 = Clock::now();
  auto dispatcher = openDispatcher(dir, result);
  const double openS = secondsSince(open0);
  const auto schedule = buildSchedule(catalog.size());
  const Stream stream(catalog, schedule, options.seed);
  const LoopOutcome loop = closedLoop(*dispatcher, stream, timedRequests(options, kColdRate));
  checkResponses(loop, options.corrupt, result);
  finish(options, *dispatcher, loop, openS, setupS, ledger, result);
  dispatcher.reset();
  removeStore(dir);
  return result;
}

Result runServeWarm(const Options& options) {
  Result result;
  Ledger ledger;
  const std::vector<ServedKernel> catalog =
      buildCatalog(options, options.trace ? &ledger : nullptr, result);
  const auto schedule = buildSchedule(catalog.size());
  const Stream populate(catalog, schedule, options.seed);

  // Set-up: populate a fresh store with the cold stream's first
  // kPopulateRequests requests; repeated, median kept. The last pass's
  // answers are what the restarted daemon is checked against.
  std::string dir;
  std::vector<double> setupS;
  std::map<std::uint64_t, std::string> populated;
  for (int r = 0; r < kPopulateRepeats; ++r) {
    if (!dir.empty()) removeStore(dir);
    dir = freshStoreDir(options);
    const Clock::time_point t0 = Clock::now();
    auto dispatcher = openDispatcher(dir, result);
    const LoopOutcome loop = closedLoop(*dispatcher, populate, kPopulateRequests);
    dispatcher.reset();
    setupS.push_back(secondsSince(t0));
    if (r < kPopulateRepeats - 1) continue;
    Result populateResult;
    checkResponses(loop, false, populateResult);
    for (auto& v : populateResult.violations) result.violate(std::move(v));
    if (populateResult.failed > 0) result.violate("the populate pass had failed requests");
    for (const Call& c : loop.calls) populated.emplace(c.request.key(), withoutId(c.response));
  }

  // Timed: a restarted daemon (its eager store load included) answering the
  // next seed's stream over the populated kernels and ops.
  const Clock::time_point open0 = Clock::now();
  auto dispatcher = openDispatcher(dir, result);
  const double openS = secondsSince(open0);
  const Stream stream(catalog, schedule, options.seed + 1, kPopulateRequests);
  const LoopOutcome loop = closedLoop(*dispatcher, stream, timedRequests(options, kWarmRate));
  checkResponses(loop, false, result);

  // Every answer to a request the populate pass also answered must be the
  // same bytes apart from the id.
  std::uint64_t compared = 0, mismatched = 0;
  bool corrupt = options.corrupt;
  for (const Call& c : loop.calls) {
    auto it = populated.find(c.request.key());
    if (it == populated.end()) continue;
    std::string answer = withoutId(c.response);
    if (corrupt) {
      answer += " ";
      corrupt = false;
    }
    ++compared;
    if (answer != it->second && mismatched++ == 0) {
      std::fprintf(stderr, "perfbench: warm answer differs:\n  cold: %.300s\n  warm: %.300s\n",
                   it->second.c_str(), answer.c_str());
    }
  }
  if (mismatched > 0) {
    result.violate(std::to_string(mismatched) + " of " + std::to_string(compared) +
                   " warm answers differ from the populate pass");
  }
  if (compared == 0) result.violate("no warm request repeated a populated one");
  std::fprintf(stderr, "perfbench: %llu of %zu warm answers compared with the populate pass\n",
               static_cast<unsigned long long>(compared), loop.calls.size());
  finish(options, *dispatcher, loop, openS, setupS, ledger, result);
  dispatcher.reset();
  removeStore(dir);
  return result;
}

}  // namespace perfbench
