#include "replay.hpp"

#include <algorithm>
#include <optional>

#include "sim/simulator.hpp"
#include "workload.hpp"

namespace perfbench {

using maxmin::Duration;
using maxmin::TimePoint;
using maxmin::phys::Frame;

MediumRecorder::MediumRecorder(int numNodes)
    : activeStart_(static_cast<std::size_t>(numNodes), 0) {}

void MediumRecorder::advanceTo(std::int64_t atUs) {
  if (atUs == instantUs_) return;
  flushInstant();
  instantUs_ = atUs;
}

void MediumRecorder::flushInstant() {
  const auto m = static_cast<std::uint32_t>(finishesNow_.size());
  for (const auto& [start, k] : startsNow_) {
    if (k >= m) continue;  // after every finish: the replay's default
    if (k == 0) {
      before_.emplace_back(finishesNow_[0], start);
    } else {
      after_.emplace_back(finishesNow_[k - 1], start);
    }
  }
  startsNow_.clear();
  finishesNow_.clear();
  lastFinishSender_ = -1;
}

void MediumRecorder::onTransmissionStart(const Frame& frame, TimePoint at) {
  advanceTo(at.asMicros());
  const auto idx = static_cast<std::uint32_t>(starts_.size());
  starts_.push_back(Start{at.asMicros(), frame.duration.asMicros(),
                          frame.navAfterEnd.asMicros(), frame.transmitter,
                          frame.addressee, frame.kind});
  startsNow_.emplace_back(idx, static_cast<std::uint32_t>(finishesNow_.size()));
  activeStart_[static_cast<std::size_t>(frame.transmitter)] = idx;
  lastFinishSender_ = -1;
  ++kindCount_[static_cast<std::size_t>(frame.kind)];
}

void MediumRecorder::noteFinish(const Frame& frame, TimePoint at) {
  advanceTo(at.asMicros());
  // One finish reports each of its receivers in a row.
  if (frame.transmitter == lastFinishSender_) return;
  lastFinishSender_ = frame.transmitter;
  finishesNow_.push_back(
      activeStart_[static_cast<std::size_t>(frame.transmitter)]);
}

void MediumRecorder::onDelivery(const Frame& frame, maxmin::topo::NodeId,
                                TimePoint at) {
  noteFinish(frame, at);
}

void MediumRecorder::onCorruption(const Frame& frame, maxmin::topo::NodeId,
                                  TimePoint at) {
  noteFinish(frame, at);
}

namespace {

class StubRadio final : public maxmin::phys::RadioListener {
 public:
  void onChannelBusy() override {}
  void onChannelIdle() override {}
  void onFrameReceived(const Frame&) override {}
  void onFrameCorrupted(const Frame&) override {}
};

/// Anchor lists as offsets into one array, indexed by anchor start.
struct AnchorIndex {
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> start;

  AnchorIndex(std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs,
              std::size_t numStarts)
      : offset(numStarts + 1, 0) {
    std::stable_sort(pairs.begin(), pairs.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& p : pairs) ++offset[p.first + 1];
    for (std::size_t i = 0; i < numStarts; ++i) offset[i + 1] += offset[i];
    start.reserve(pairs.size());
    for (const auto& p : pairs) start.push_back(p.second);
  }
};

class Replayer {
 public:
  Replayer(const MediumRecorder& rec, const maxmin::topo::Topology& topo,
           bool withMedium)
      : starts_{rec.starts()},
        before_{rec.anchoredBefore(), rec.starts().size()},
        after_{rec.anchoredAfter(), rec.starts().size()},
        anchored_(rec.starts().size(), 0),
        radios_(static_cast<std::size_t>(topo.numNodes())) {
    for (const auto s : before_.start) anchored_[s] = 1;
    for (const auto s : after_.start) anchored_[s] = 1;
    if (withMedium) {
      medium_.emplace(sim_, topo);
      for (int n = 0; n < topo.numNodes(); ++n) {
        medium_->attachRadio(n, &radios_[static_cast<std::size_t>(n)]);
      }
    }
  }

  ReplayResult run(TimePoint end) {
    const Clock::time_point t0 = Clock::now();
    if (!starts_.empty()) scheduleInstant(0);
    sim_.runUntil(end);
    ReplayResult r;
    r.seconds = secondsSince(t0, Clock::now());
    if (medium_) {
      r.framesDelivered = medium_->framesDelivered();
      r.framesCorrupted = medium_->framesCorrupted();
    }
    return r;
  }

 private:
  static TimePoint at(const MediumRecorder::Start& s) {
    return TimePoint::fromMicros(s.atUs);
  }

  /// One event per recorded instant runs that instant's unanchored
  /// starts. It was posted at the previous instant, after every finish
  /// due at this one was scheduled, so it runs after them.
  void scheduleInstant(std::size_t first) {
    sim_.postAt(at(starts_[first]), [this, first] {
      std::size_t i = first;
      const std::int64_t now = starts_[first].atUs;
      for (; i < starts_.size() && starts_[i].atUs == now; ++i) {
        if (anchored_[i] == 0) doStart(i);
      }
      if (i < starts_.size()) scheduleInstant(i);
    });
  }

  void postAnchored(const AnchorIndex& idx, std::size_t anchor) {
    for (std::uint32_t k = idx.offset[anchor]; k < idx.offset[anchor + 1]; ++k) {
      const std::uint32_t s = idx.start[k];
      sim_.postAt(at(starts_[s]), [this, s] { doStart(s); });
    }
  }

  void doStart(std::size_t i) {
    postAnchored(before_, i);
    const MediumRecorder::Start& s = starts_[i];
    Frame f;
    f.kind = s.kind;
    f.transmitter = s.transmitter;
    f.addressee = s.addressee;
    f.duration = Duration::micros(s.durationUs);
    f.navAfterEnd = Duration::micros(s.navUs);
    if (medium_) medium_->startTransmission(f);
    postAnchored(after_, i);
  }

  const std::vector<MediumRecorder::Start>& starts_;
  AnchorIndex before_;
  AnchorIndex after_;
  std::vector<std::uint8_t> anchored_;
  std::vector<StubRadio> radios_;
  maxmin::sim::Simulator sim_;
  std::optional<maxmin::phys::Medium> medium_;
};

}  // namespace

ReplayResult replay(const MediumRecorder& rec,
                    const maxmin::topo::Topology& topo, TimePoint end,
                    bool withMedium) {
  Replayer r{rec, topo, withMedium};
  return r.run(end);
}

}  // namespace perfbench
