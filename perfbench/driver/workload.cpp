#include "workload.hpp"

#include <algorithm>
#include <optional>
#include <ostream>
#include <sstream>

#include "baselines/configs.hpp"
#include "gmp/controller.hpp"
#include "hybrid/engine.hpp"
#include "net/network.hpp"
#include "obs/profile.hpp"
#include "util/table.hpp"

namespace perfbench {

using maxmin::Duration;
using maxmin::Table;
namespace analysis = maxmin::analysis;
namespace net = maxmin::net;

// --- spans -------------------------------------------------------------------

std::int64_t Spans::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Spans::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), stack_.empty() ? -1 : stack_.back(),
                        nowNs(), 0});
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  spans_[static_cast<std::size_t>(id)].endNs = nowNs();
  stack_.pop_back();
}

double Spans::topLevelSeconds() const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) ns += s.endNs - s.startNs;
  }
  return static_cast<double>(ns) * 1e-9;
}

void Spans::writeJson(std::ostream& os) const {
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"parent\": " << s.parent
       << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs << "}";
  }
  os << "\n]\n";
}

// --- workloads ---------------------------------------------------------------

const std::vector<Workload>& allWorkloads() {
  static const std::vector<Workload> kWorkloads = {
      // The paper's Fig. 4 session: 12 nodes, 8 flows, 400 s, measured
      // over the second half.
      {"fig4-gmp", analysis::Protocol::kGmp, false, 400.0, 200.0, 0, 0, 0},
      // Dense N=800 mesh under plain 802.11.
      {"dense800-dcf", analysis::Protocol::kDcf80211, false, 16.0, 4.0, 800,
       20, 1},
      // The same mesh and flows under GMP, started at the fluid fixed point.
      {"dense800-gmp-ff", analysis::Protocol::kGmp, true, 16.0, 8.0, 800, 20,
       1},
  };
  return kWorkloads;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : allWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

maxmin::scenarios::Scenario Workload::buildScenario() const {
  if (nodes == 0) return maxmin::scenarios::fig4();
  return maxmin::scenarios::denseMesh(topologySeed, nodes, flows);
}

analysis::RunConfig Workload::runConfig(std::uint64_t seed) const {
  analysis::RunConfig cfg;
  cfg.protocol = protocol;
  cfg.duration = Duration::seconds(durationS);
  cfg.warmup = Duration::seconds(warmupS);
  cfg.seed = seed;
  cfg.hybrid.fastForward = fastForward;
  return cfg;
}

std::vector<std::string> Workload::cliArgs(std::uint64_t seed) const {
  std::vector<std::string> args;
  if (nodes == 0) {
    args = {"--scenario", "fig4"};
  } else {
    args = {"--scenario", "dense", "--nodes", std::to_string(nodes),
            "--flows", std::to_string(flows)};
  }
  args.insert(args.end(),
              {"--protocol",
               protocol == analysis::Protocol::kGmp ? "gmp" : "802.11",
               "--duration", Table::num(durationS, 0), "--warmup",
               Table::num(warmupS, 0), "--seed", std::to_string(cliSeed(seed))});
  if (fastForward) args.emplace_back("--fast-forward");
  return args;
}

// --- one repetition ----------------------------------------------------------

namespace {

/// The layers a repetition builds before its first simulated event, in
/// analysis::runScenario's order.
struct Stack {
  maxmin::scenarios::Scenario scenario;
  std::unique_ptr<net::Network> network;
  std::optional<maxmin::gmp::Controller> controller;
  std::optional<maxmin::hybrid::Engine> engine;
};

void buildStack(const Workload& w, std::uint64_t seed, Stack& st,
                RepResult& r, Spans* spans) {
  const analysis::RunConfig cfg = w.runConfig(seed);
  Clock::time_point t = Clock::now();
  const auto lap = [&t] {
    const Clock::time_point now = Clock::now();
    const double s = secondsSince(t, now);
    t = now;
    return s;
  };
  const Clock::time_point t0 = t;
  {
    const SpanScope span{spans, "setup.scenarios"};
    st.scenario = w.buildScenario();
  }
  r.scenariosS = lap();
  {
    const SpanScope span{spans, "setup.net"};
    net::NetworkConfig nc = cfg.netBase;
    nc.seed = cfg.seed;
    nc = w.protocol == analysis::Protocol::kGmp
             ? maxmin::baselines::configGmp(nc)
             : maxmin::baselines::config80211(nc);
    st.network = std::make_unique<net::Network>(
        st.scenario.topology, nc,
        maxmin::hybrid::Engine::foregroundFlows(st.scenario.flows, cfg.hybrid));
  }
  r.netS = lap();
  {
    const SpanScope span{spans, "setup.gmp"};
    if (w.protocol == analysis::Protocol::kGmp) {
      {
        const SpanScope inner{spans, "gmp.controller_build"};
        st.controller.emplace(*st.network, cfg.gmpParams);
      }
      const SpanScope inner{spans, "gmp.start"};
      st.controller->start();
    }
  }
  r.gmpS = lap();
  {
    const SpanScope span{spans, "setup.fluid"};
    if (cfg.hybrid.enabled()) {
      {
        const SpanScope inner{spans, "fluid.engine_build"};
        st.engine.emplace(*st.network, *st.controller, st.scenario.flows,
                          cfg.gmpParams, cfg.hybrid);
      }
      {
        const SpanScope inner{spans, "fluid.fast_forward"};
        st.engine->fastForward();
      }
      const SpanScope inner{spans, "fluid.start"};
      st.engine->start();
    }
  }
  r.fluidS = lap();
  r.setupS = secondsSince(t0, t);
}

/// Summed wall time of one profiler site, read from the --profile table.
double profilerSeconds(const std::string& table, const std::string& site) {
  std::istringstream in{table};
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream row{line};
    std::string name;
    long long calls = 0;
    double totalMs = 0.0;
    if (row >> name >> calls >> totalMs && name == site) return totalMs * 1e-3;
  }
  return 0.0;
}

}  // namespace

double setupOnly(const Workload& w, std::uint64_t seed) {
  Stack st;
  RepResult r;
  buildStack(w, seed, st, r, nullptr);
  return r.setupS;
}

RepResult runRep(const Workload& w, std::uint64_t seed, bool traced) {
  RepResult r;
  const Clock::time_point t0 = Clock::now();
  Spans* spans = nullptr;
  if (traced) {
    r.spans = std::make_unique<Spans>(t0);
    spans = r.spans.get();
    maxmin::obs::Profiler::global().reset();
    maxmin::obs::Profiler::setEnabled(true);
  }

  Stack st;
  buildStack(w, seed, st, r, spans);
  net::Network& network = *st.network;
  if (traced) {
    r.recorder =
        std::make_unique<MediumRecorder>(network.topology().numNodes());
    network.medium().setObserver(r.recorder.get());
  }

  const auto runUntil = [&](double endS) {
    while (network.now().asSeconds() < endS) {
      const double windowS =
          std::min(kPeriodS, endS - network.now().asSeconds());
      const SpanScope span{spans, "run.period"};
      const Clock::time_point p0 = Clock::now();
      network.run(Duration::seconds(windowS));
      const double s = secondsSince(p0, Clock::now());
      r.runS += s;
      r.periodWallS.push_back(s);
    }
  };
  runUntil(w.warmupS);
  const net::Network::DeliverySnapshot start = network.snapshotDeliveries();
  runUntil(w.durationS);
  std::map<net::FlowId, double> rates;
  {
    const SpanScope span{spans, "summary"};
    rates = net::Network::ratesBetween(start, network.snapshotDeliveries());
    if (st.engine) st.engine->stop();
  }
  r.wallS = secondsSince(t0, Clock::now());

  if (traced) {
    maxmin::obs::Profiler::setEnabled(false);
    network.medium().setObserver(nullptr);
    r.recorder->finish();
    std::ostringstream table;
    maxmin::obs::Profiler::global().printTable(table);
    r.gmpTickS = profilerSeconds(table.str(), "gmp.tick");
    r.gmpSnapshotS = profilerSeconds(table.str(), "gmp.assemble_snapshot");
    r.topology = std::make_unique<maxmin::topo::Topology>(network.topology());
  }

  r.simS = w.durationS;
  r.events = network.simulator().executedEvents();
  r.framesDelivered = network.framesDelivered();
  r.framesCorrupted = network.framesCorrupted();
  r.queueDrops = network.totalQueueDrops();
  r.numNodes = network.topology().numNodes();
  if (st.engine) {
    r.seededPackets = st.engine->stats().seededPackets;
    r.ffPeriods = st.engine->stats().ffPeriods;
  }
  for (const net::FlowSpec& f : st.scenario.flows) {
    FlowRecord fr;
    fr.id = f.id;
    fr.name = f.name;
    fr.offeredPps = f.desiredRate.asPerSecond();
    fr.ratePps = rates.at(f.id);
    fr.deliveredTotal = network.delivered(f.id);
    fr.admitted = network.stack(f.src).sourceCounters(f.id).admitted;
    fr.path = network.pathOf(f.id);
    // The flow row exactly as maxmin-sim --csv prints it.
    fr.row = f.name + "," + std::to_string(f.src) + ">" +
             std::to_string(f.dst) + "," + Table::num(f.weight, 1) + "," +
             std::to_string(network.hopCount(f.id)) + "," +
             Table::num(fr.ratePps) + "," + Table::num(fr.ratePps / f.weight);
    r.flows.push_back(std::move(fr));
  }
  return r;
}

}  // namespace perfbench
