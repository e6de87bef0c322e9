// perfbench_driver — one workload of the end-to-end benchmark.
//
//   perfbench_driver --workload fig4-gmp --seed 1 --seconds 20 --trace 0
//                    --maxmin-sim PATH [--trace-out FILE]
//
// Untraced (--trace 0): repeats the workload, each time followed by its
// set-up alone for 0.2 s, for --seconds, and prints the end-to-end
// metrics as medians over the repetitions. Traced (--trace 1):
// alternates untraced and traced repetitions for --seconds, replays the
// last traced run's medium schedule, runs the equivalence self-test, and
// prints the per-layer metrics. Either way the last stdout line is one
// JSON object with `correct`, `attempted`, `failed` and `metrics`; the
// exit status is 1 when a metric is not a number or a check failed.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "replay.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string traceOut;
};

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --maxmin-sim PATH [--trace-out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed" || arg == "--seconds") {
      try {
        if (arg == "--seed") {
          a.seed = std::stoull(v);
        } else {
          a.seconds = std::stod(v);
        }
      } catch (const std::exception&) {
        usage();
      }
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--maxmin-sim") {
      a.cli = v;
    } else if (arg == "--trace-out") {
      a.traceOut = v;
    } else {
      usage();
    }
  }
  if (a.workload.empty() || a.cli.empty() || a.seconds <= 0.0) usage();
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

template <typename F>
double medianOf(const std::vector<RepResult>& reps, F&& f) {
  std::vector<double> v;
  for (const RepResult& r : reps) v.push_back(f(r));
  return median(v);
}

/// This process's peak resident set, from VmHWM. getrusage's ru_maxrss
/// would not do: Linux carries it across exec, so it reports the
/// launching interpreter's peak whenever that is larger.
double peakRssMb() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  return 0.0;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    allFinite_ = allFinite_ && std::isfinite(value);
    std::ostringstream os;
    os << std::setprecision(17) << value;
    items_.push_back("\"" + name + "\": {\"value\": " + os.str() +
                     ", \"unit\": \"" + unit + "\"}");
  }
  [[nodiscard]] std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      s += (i == 0 ? "" : ", ") + items_[i];
    }
    return s + "}";
  }
  [[nodiscard]] bool allFinite() const { return allFinite_; }

 private:
  std::vector<std::string> items_;
  bool allFinite_ = true;
};

void endToEnd(const Workload& w, const Args& a, Tally& tally, Metrics& m) {
  const Clock::time_point t0 = Clock::now();
  std::vector<RepResult> reps;
  // Set-up times: each repetition's own, and after each repetition the
  // set-up alone, repeated for 0.2 s and at least three times. Spread
  // over the whole run, the samples ride out the host's drift in speed
  // that one block at the end would catch at a single moment.
  std::vector<double> setups;
  do {
    reps.push_back(runRep(w, a.seed, false));
    checkModel(w, reps.back(), tally);
    setups.push_back(reps.back().setupS);
    const Clock::time_point s0 = Clock::now();
    for (int i = 0; i < 3 || secondsSince(s0, Clock::now()) < 0.2; ++i) {
      setups.push_back(setupOnly(w, a.seed));
    }
    std::cerr << "perfbench: repetition " << reps.size() << ": wall "
              << reps.back().wallS << " s, set-up " << reps.back().setupS
              << " s, " << reps.back().events << " events, "
              << reps.back().framesDelivered + reps.back().framesCorrupted
              << " receptions\n";
  } while (secondsSince(t0, Clock::now()) < a.seconds);

  m.add("setup_s", median(setups), "s");
  m.add("wall_s", medianOf(reps, [](const RepResult& r) { return r.wallS; }),
        "s");
  m.add("sim_s_per_wall_s",
        medianOf(reps, [](const RepResult& r) { return r.simS / r.runS; }),
        "s/s");
  m.add("receptions_per_s", medianOf(reps, [](const RepResult& r) {
          return static_cast<double>(r.framesDelivered + r.framesCorrupted) /
                 r.runS;
        }),
        "1/s");
  std::cerr << "perfbench: " << w.name << " seed " << a.seed << ": "
            << reps.size() << " repetitions, " << setups.size() << " set-ups\n";
}

void perLayer(const Workload& w, const Args& a, Tally& tally, Metrics& m) {
  const Clock::time_point t0 = Clock::now();
  std::vector<RepResult> untraced;
  std::vector<RepResult> traced;
  // Peak RSS is taken after the first, untraced repetition: one run from a
  // fresh process, as a user runs it.
  double peakRss = 0.0;
  do {
    untraced.push_back(runRep(w, a.seed, false));
    if (untraced.size() == 1) peakRss = peakRssMb();
    if (!traced.empty()) {  // only the last traced run is replayed
      traced.back().recorder.reset();
      traced.back().topology.reset();
    }
    traced.push_back(runRep(w, a.seed, true));
    checkModel(w, untraced.back(), tally);
    checkModel(w, traced.back(), tally);
    checkTracingInert(untraced.back(), traced.back(), tally);
  } while (secondsSince(t0, Clock::now()) < a.seconds);

  std::vector<double> coverage;
  for (const RepResult& r : traced) {
    coverage.push_back(r.spans->topLevelSeconds() / r.wallS);
    tally.check(coverage.back() >= 0.95, [&] {
      return "spans cover " + std::to_string(coverage.back()) + " of wall";
    });
  }

  // Medium replay of the last traced run: with the Medium, then the same
  // events with empty callbacks, twice each, interleaved.
  const RepResult& last = traced.back();
  std::vector<double> full;
  std::vector<double> empty;
  const auto end = maxmin::TimePoint::fromMicros(
      maxmin::Duration::seconds(w.durationS).asMicros());
  for (int i = 0; i < 2; ++i) {
    empty.push_back(replay(*last.recorder, *last.topology, end, false).seconds);
    const ReplayResult rr = replay(*last.recorder, *last.topology, end, true);
    full.push_back(rr.seconds);
    tally.check(rr.framesDelivered == last.framesDelivered, [&] {
      return "replay delivered " + std::to_string(rr.framesDelivered) +
             " vs run " + std::to_string(last.framesDelivered);
    });
    tally.check(rr.framesCorrupted == last.framesCorrupted, [&] {
      return "replay corrupted " + std::to_string(rr.framesCorrupted) +
             " vs run " + std::to_string(last.framesCorrupted);
    });
  }
  const double simReplayS = median(empty);
  const double physReplayS = median(full) - simReplayS;

  // Equivalence self-test: the composition above against the library's
  // own runner and the CLI users run.
  checkRunScenario(w, a.seed, last, tally);
  if (w.cliSeed(a.seed) == a.seed) {
    checkCli(w, a.seed, last, a.cli, tally);
  } else {
    checkCli(w, a.seed, runRep(w, w.cliSeed(a.seed), false), a.cli, tally);
  }

  using maxmin::phys::FrameKind;
  const MediumRecorder& rec = *last.recorder;
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  const auto med = [&traced](auto f) { return medianOf(traced, f); };
  m.add("scenarios.build_s", med([](const RepResult& r) { return r.scenariosS; }), "s");
  m.add("net.build_s", med([](const RepResult& r) { return r.netS; }), "s");
  m.add("gmp.build_s", med([](const RepResult& r) { return r.gmpS; }), "s");
  m.add("fluid.ff_s", med([](const RepResult& r) { return r.fluidS; }), "s");
  m.add("fluid.ff_periods", last.ffPeriods, "count");
  m.add("gmp.tick_s", med([](const RepResult& r) { return r.gmpTickS; }), "s");
  m.add("gmp.snapshot_s", med([](const RepResult& r) { return r.gmpSnapshotS; }), "s");
  m.add("sim.events", static_cast<double>(last.events), "count");
  // From the untraced repetitions: the profiler adds two clock reads per
  // event to the traced ones.
  m.add("sim.ns_per_event", medianOf(untraced, [](const RepResult& r) {
          return r.runS * 1e9 / static_cast<double>(r.events);
        }),
        "ns");
  m.add("phys.replay_s", physReplayS, "s");
  m.add("sim.replay_s", simReplayS, "s");
  m.add("phys.ns_per_rx",
        physReplayS * 1e9 /
            static_cast<double>(last.framesDelivered + last.framesCorrupted),
        "ns");
  m.add("mac.rts_ok_ratio", ratio(rec.countOf(FrameKind::kCts), rec.countOf(FrameKind::kRts)), "ratio");
  m.add("mac.data_ok_ratio", ratio(rec.countOf(FrameKind::kAck), rec.countOf(FrameKind::kData)), "ratio");
  m.add("net.queue_drops", static_cast<double>(last.queueDrops), "count");
  m.add("run.period_wall_p50_s", med([](const RepResult& r) { return median(r.periodWallS); }), "s");
  m.add("run.period_wall_max_s", med([](const RepResult& r) {
          return *std::max_element(r.periodWallS.begin(), r.periodWallS.end());
        }),
        "s");
  m.add("obs.trace_overhead_s",
        med([](const RepResult& r) { return r.wallS; }) -
            medianOf(untraced, [](const RepResult& r) { return r.wallS; }),
        "s");
  m.add("obs.span_coverage", median(coverage), "ratio");
  m.add("mem.peak_rss_mb", peakRss, "MB");

  if (!a.traceOut.empty()) {
    std::ofstream out{a.traceOut};
    last.spans->writeJson(out);
  }
  std::cerr << "perfbench: " << w.name << " seed " << a.seed << ": "
            << traced.size() << " traced + " << untraced.size()
            << " untraced repetitions, " << rec.starts().size()
            << " transmissions replayed, " << rec.anchoredBefore().size() +
                                                   rec.anchoredAfter().size()
            << " anchored\n";
}

/// One JSON line: the host and build, the seeds, and the make-up of the
/// workload's input.
void printContext(const Workload& w, const Args& a) {
  const maxmin::scenarios::Scenario scenario = w.buildScenario();
  const maxmin::topo::Topology& topo = scenario.topology;
  double txDegree = 0.0;
  double csDegree = 0.0;
  for (int n = 0; n < topo.numNodes(); ++n) {
    txDegree += static_cast<double>(topo.neighbors(n).size());
    csDegree += static_cast<double>(topo.csNeighbors(n).size());
  }
  std::cout << "{\"context\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"workload\": \"" << w.name << "\", \"seed\": " << a.seed
            << ", \"topology_seed\": " << w.topologySeed
            << ", \"nodes\": " << topo.numNodes()
            << ", \"flows\": " << scenario.flows.size()
            << ", \"mean_tx_degree\": " << txDegree / topo.numNodes()
            << ", \"mean_cs_degree\": " << csDegree / topo.numNodes()
            << ", \"sim_seconds\": " << w.durationS
            << ", \"warmup_seconds\": " << w.warmupS
            << ", \"seconds\": " << a.seconds << ", \"trace\": " << a.trace
            << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Workload* w = findWorkload(a.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << a.workload << "'; known:";
    for (const Workload& k : allWorkloads()) std::cerr << ' ' << k.name;
    std::cerr << '\n';
    return 2;
  }

  printContext(*w, a);

  Tally tally;
  Metrics metrics;
  if (a.trace) {
    perLayer(*w, a, tally, metrics);
  } else {
    endToEnd(*w, a, tally, metrics);
  }
  for (const std::string& f : tally.failures()) {
    std::cerr << "perfbench: FAILED " << f << '\n';
  }
  // A run is correct only if every metric is a number and every output
  // check passed; a failed check also fails the process.
  const bool correct = metrics.allFinite() && tally.failed() == 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted()
            << ", \"failed\": " << tally.failed()
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
