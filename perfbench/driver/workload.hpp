// The benchmark's workloads and the layer-by-layer composition that runs
// them: scenarios → net::Network → gmp::Controller → hybrid::Engine →
// Network::run, in the order analysis::runScenario uses, each call timed
// from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/experiment.hpp"
#include "replay.hpp"
#include "scenarios/scenarios.hpp"
#include "topology/node_id.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Wall-clock spans of one traced repetition, kept in memory and written
/// out when the benchmark ends. A span's parent is the span open when it
/// began (-1 = top level).
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
  };

  explicit Spans(Clock::time_point origin) : origin_{origin} {}

  int open(std::string name);
  void close(int id);

  /// Summed duration of the top-level spans, in seconds.
  [[nodiscard]] double topLevelSeconds() const;
  void writeJson(std::ostream& os) const;

 private:
  [[nodiscard]] std::int64_t nowNs() const;

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when `spans` is null (untraced repetitions).
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name)
      : spans_{spans}, id_{spans ? spans->open(std::move(name)) : -1} {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

struct Workload {
  std::string name;
  maxmin::analysis::Protocol protocol = maxmin::analysis::Protocol::kGmp;
  bool fastForward = false;
  double durationS = 0.0;
  double warmupS = 0.0;
  /// Dense-mesh size; 0 selects the paper's Fig. 4 topology.
  int nodes = 0;
  int flows = 0;
  /// Seed of the dense mesh's placement and flows. It is fixed, so that
  /// every run of a workload does the same amount of work; the run's
  /// --seed drives the network's random streams (backoff, sources).
  std::uint64_t topologySeed = 1;

  [[nodiscard]] maxmin::scenarios::Scenario buildScenario() const;
  /// The run with network seed `seed`, as analysis::runScenario input.
  [[nodiscard]] maxmin::analysis::RunConfig runConfig(std::uint64_t seed) const;
  /// The network seed maxmin-sim can pair with this topology: its
  /// `dense` scenario draws the mesh from --seed too.
  [[nodiscard]] std::uint64_t cliSeed(std::uint64_t seed) const {
    return nodes == 0 ? seed : topologySeed;
  }
  /// The run with network seed cliSeed(seed), as maxmin-sim arguments
  /// (without --csv).
  [[nodiscard]] std::vector<std::string> cliArgs(std::uint64_t seed) const;
};

/// Null for an unknown name.
const Workload* findWorkload(const std::string& name);
const std::vector<Workload>& allWorkloads();

/// Length of one Network::run window: the GMP measurement period.
inline constexpr double kPeriodS = 4.0;

struct FlowRecord {
  std::int32_t id = 0;
  std::string name;
  std::string row;  ///< the maxmin-sim --csv flow row for this flow
  double offeredPps = 0.0;
  double ratePps = 0.0;  ///< over [warmup, duration]
  std::int64_t deliveredTotal = 0;
  std::int64_t admitted = 0;
  std::vector<maxmin::topo::NodeId> path;
};

/// Everything one repetition of a workload produced.
struct RepResult {
  // Host wall time, seconds.
  double scenariosS = 0.0;
  double netS = 0.0;
  double gmpS = 0.0;
  double fluidS = 0.0;
  double setupS = 0.0;  ///< scenario build start → first simulated event
  double runS = 0.0;    ///< summed Network::run windows
  double wallS = 0.0;   ///< the whole repetition
  std::vector<double> periodWallS;

  double simS = 0.0;
  std::uint64_t events = 0;
  std::uint64_t framesDelivered = 0;
  std::uint64_t framesCorrupted = 0;
  std::int64_t queueDrops = 0;
  std::int64_t seededPackets = 0;
  int ffPeriods = 0;
  int numNodes = 0;
  std::vector<FlowRecord> flows;

  // Traced repetitions only.
  std::unique_ptr<Spans> spans;
  std::unique_ptr<MediumRecorder> recorder;
  std::unique_ptr<maxmin::topo::Topology> topology;
  double gmpTickS = 0.0;
  double gmpSnapshotS = 0.0;
};

/// Run one repetition. A traced repetition keeps spans, records every
/// transmission start on the medium, and reads the GMP profiler sites.
RepResult runRep(const Workload& w, std::uint64_t seed, bool traced);

/// Build everything a repetition builds before its first simulated
/// event, then tear it down; returns the set-up time in seconds.
double setupOnly(const Workload& w, std::uint64_t seed);

}  // namespace perfbench
