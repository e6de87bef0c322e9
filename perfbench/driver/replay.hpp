// Medium replay: record every transmission start of a traced run, then
// replay the same starts into a fresh phys::Medium on a fresh
// sim::Simulator with stub radios. Replaying the identical schedule with
// empty callbacks times the kernel and the replay harness alone; the
// difference between the two is the Medium's own time.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "phys/medium.hpp"
#include "topology/topology.hpp"

namespace perfbench {

/// Records transmission starts and, per start, where it fell among the
/// transmissions finishing at the same instant. Events at one instant run
/// in scheduling order, and a finish lowers the energy a start at the
/// same instant would otherwise see, so that position decides
/// corruption. The replay reproduces it.
class MediumRecorder final : public maxmin::phys::MediumObserver {
 public:
  struct Start {
    std::int64_t atUs = 0;
    std::int64_t durationUs = 0;
    std::int64_t navUs = 0;
    std::int32_t transmitter = 0;
    std::int32_t addressee = 0;
    maxmin::phys::FrameKind kind = maxmin::phys::FrameKind::kData;
  };

  explicit MediumRecorder(int numNodes);

  void onTransmissionStart(const maxmin::phys::Frame& frame,
                           maxmin::TimePoint at) override;
  void onDelivery(const maxmin::phys::Frame& frame,
                  maxmin::topo::NodeId receiver, maxmin::TimePoint at) override;
  void onCorruption(const maxmin::phys::Frame& frame,
                    maxmin::topo::NodeId receiver,
                    maxmin::TimePoint at) override;

  /// Close the last instant; call once after the run.
  void finish() { flushInstant(); }

  [[nodiscard]] const std::vector<Start>& starts() const { return starts_; }
  /// (anchor start, start): the start must run just before / just after
  /// the anchor start is replayed.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  anchoredBefore() const {
    return before_;
  }
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
  anchoredAfter() const {
    return after_;
  }
  [[nodiscard]] std::uint64_t countOf(maxmin::phys::FrameKind kind) const {
    return kindCount_[static_cast<std::size_t>(kind)];
  }

 private:
  void advanceTo(std::int64_t atUs);
  void noteFinish(const maxmin::phys::Frame& frame, maxmin::TimePoint at);
  void flushInstant();

  std::vector<Start> starts_;
  std::vector<std::uint32_t> activeStart_;  ///< per node: its current start
  std::int64_t instantUs_ = -1;
  /// Starts at the current instant with the number of finishes before
  /// each; the finishes (as start indices) at the current instant.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> startsNow_;
  std::vector<std::uint32_t> finishesNow_;
  std::int32_t lastFinishSender_ = -1;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> before_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> after_;
  std::uint64_t kindCount_[5] = {};
};

struct ReplayResult {
  double seconds = 0.0;
  std::uint64_t framesDelivered = 0;
  std::uint64_t framesCorrupted = 0;
};

/// Replay `rec` over `topo` up to `end`, where the recorded run stopped.
/// With `withMedium` false the same events fire but never reach a Medium.
ReplayResult replay(const MediumRecorder& rec,
                    const maxmin::topo::Topology& topo, maxmin::TimePoint end,
                    bool withMedium);

}  // namespace perfbench
