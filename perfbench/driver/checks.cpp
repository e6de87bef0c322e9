#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>

namespace perfbench {

namespace analysis = maxmin::analysis;

double minimalExchangeSeconds() {
  // 802.11b DSSS with the short PLCP preamble and header: control frames
  // at the 2 Mb/s basic rate, DATA at 11 Mb/s.
  constexpr double kPlcpUs = 96.0;
  constexpr double kSifsUs = 10.0;
  constexpr double kSlotUs = 20.0;
  constexpr double kDifsUs = kSifsUs + 2.0 * kSlotUs;
  constexpr double kBasicMbps = 2.0;
  constexpr double kDataMbps = 11.0;
  constexpr double kRtsBytes = 20.0;
  constexpr double kCtsBytes = 14.0;
  constexpr double kAckBytes = 14.0;
  constexpr double kMacOverheadBytes = 28.0;  // header + FCS
  constexpr double kPacketBytes = 1024.0;
  const auto frameUs = [](double bytes, double mbps) {
    return kPlcpUs + bytes * 8.0 / mbps;
  };
  const double us = kDifsUs + frameUs(kRtsBytes, kBasicMbps) + kSifsUs +
                    frameUs(kCtsBytes, kBasicMbps) + kSifsUs +
                    frameUs(kPacketBytes + kMacOverheadBytes, kDataMbps) +
                    kSifsUs + frameUs(kAckBytes, kBasicMbps);
  return us * 1e-6;
}

void checkModel(const Workload& w, const RepResult& r, Tally& t) {
  // Airtime: every link incident to a node conflicts with every other
  // one under any interference model, so the node's links share one
  // channel. Each delivered packet crossed each link of its path once.
  const double exchangeS = minimalExchangeSeconds();
  std::vector<double> busy(static_cast<std::size_t>(r.numNodes), 0.0);
  for (const FlowRecord& f : r.flows) {
    for (std::size_t h = 0; h + 1 < f.path.size(); ++h) {
      busy[static_cast<std::size_t>(f.path[h])] += f.ratePps * exchangeS;
      busy[static_cast<std::size_t>(f.path[h + 1])] += f.ratePps * exchangeS;
    }
  }
  for (std::size_t n = 0; n < busy.size(); ++n) {
    t.check(busy[n] <= 1.0, [&] {
      return "airtime: node " + std::to_string(n) + " busy " +
             std::to_string(busy[n]);
    });
  }

  for (const FlowRecord& f : r.flows) {
    t.check(f.deliveredTotal <= f.admitted + r.seededPackets, [&] {
      return "conservation: " + f.name + " delivered " +
             std::to_string(f.deliveredTotal) + " > admitted " +
             std::to_string(f.admitted) + " + seeded " +
             std::to_string(r.seededPackets);
    });
    t.check(f.ratePps <= f.offeredPps, [&] {
      return "offered: " + f.name + " rate " + std::to_string(f.ratePps) +
             " > offered " + std::to_string(f.offeredPps);
    });
    if (w.protocol == analysis::Protocol::kGmp) {
      t.check(f.ratePps > 0.0, [&] { return "starvation: " + f.name; });
    }
  }

  if (w.nodes == 0) {
    // Fig. 4 mirror pairs: chain k mirrors chain 3 - k.
    const std::pair<int, int> kMirror[] = {{0, 6}, {1, 7}, {2, 4}, {3, 5}};
    for (const auto& [a, b] : kMirror) {
      const double ra = r.flows[static_cast<std::size_t>(a)].ratePps;
      const double rb = r.flows[static_cast<std::size_t>(b)].ratePps;
      const double rel = std::abs(ra - rb) / (0.5 * (ra + rb));
      t.check(rel <= kMirrorTolerance, [&] {
        return "mirror: f" + std::to_string(a + 1) + " " + std::to_string(ra) +
               " vs f" + std::to_string(b + 1) + " " + std::to_string(rb);
      });
    }
  }
}

void checkTracingInert(const RepResult& untraced, const RepResult& traced,
                       Tally& t) {
  for (std::size_t i = 0; i < untraced.flows.size(); ++i) {
    const FlowRecord& u = untraced.flows[i];
    const FlowRecord& tr = traced.flows[i];
    t.check(u.deliveredTotal == tr.deliveredTotal, [&] {
      return "tracing: " + u.name + " delivered " +
             std::to_string(u.deliveredTotal) + " untraced, " +
             std::to_string(tr.deliveredTotal) + " traced";
    });
  }
}

namespace {

std::string shellQuote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  return out + "'";
}

/// maxmin-sim's CSV flow rows, keyed by flow name.
std::map<std::string, std::string> cliFlowRows(const std::string& cliPath,
                                               const std::vector<std::string>& args) {
  std::string cmd = shellQuote(cliPath);
  for (const std::string& a : args) cmd += " " + shellQuote(a);
  cmd += " --csv";
  std::map<std::string, std::string> rows;
  FILE* pipe = ::popen(cmd.c_str(), "r");
  if (pipe == nullptr) return rows;
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
  if (::pclose(pipe) != 0) return {};
  std::istringstream in{out};
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line) && !line.empty()) {
    rows[line.substr(0, line.find(','))] = line;
  }
  return rows;
}

}  // namespace

void checkRunScenario(const Workload& w, std::uint64_t seed,
                      const RepResult& r, Tally& t) {
  const analysis::RunResult ref =
      analysis::runScenario(w.buildScenario(), w.runConfig(seed));
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const FlowRecord& f = r.flows[i];
    const bool same = i < ref.flows.size() && ref.flows[i].id == f.id &&
                      std::memcmp(&ref.flows[i].ratePps, &f.ratePps,
                                  sizeof f.ratePps) == 0;
    t.check(same, [&] {
      return "equivalence: " + f.name + " differs from analysis::runScenario";
    });
  }
}

void checkCli(const Workload& w, std::uint64_t seed, const RepResult& r,
              const std::string& cliPath, Tally& t) {
  const auto rows = cliFlowRows(cliPath, w.cliArgs(seed));
  for (const FlowRecord& f : r.flows) {
    const auto it = rows.find(f.name);
    t.check(it != rows.end() && it->second == f.row, [&] {
      return "equivalence: " + f.name + " row '" + f.row +
             "' vs maxmin-sim '" + (it == rows.end() ? "" : it->second) + "'";
    });
  }
}

}  // namespace perfbench
