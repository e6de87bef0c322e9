// Output checks. Each check of one flow or one node is one operation; a
// check that does not pass is a failed operation. The checks derive
// their limits from the model (802.11b airtime, packet conservation, the
// offered load, the Fig. 4 mirror), never from today's output.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload.hpp"

namespace perfbench {

class Tally {
 public:
  /// Count one operation; `describe` is called only when it failed.
  template <typename F>
  void check(bool ok, F&& describe) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(describe());
  }

  [[nodiscard]] std::int64_t attempted() const { return attempted_; }
  [[nodiscard]] std::int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Largest relative difference between Fig. 4 mirror flows' rates,
/// |a - b| / mean(a, b). Mirror chains see the same contention, but GMP
/// treats rates within its equality tolerance beta = 10 % as equal, so
/// mirror rates may settle up to beta apart, plus the sampling noise of
/// a 200 s window (~3 % at ~100 pps). Over network seeds 11-50 the
/// largest difference was 7.2 %; the side/middle chain gap is ~20 %.
inline constexpr double kMirrorTolerance = 0.15;

/// Minimal airtime of one RTS/CTS/DATA/ACK exchange of a 1024 B packet
/// in 802.11b, in seconds, computed from the standard's constants.
double minimalExchangeSeconds();

/// Airtime, conservation, offered rate, GMP starvation and (on fig4)
/// mirror symmetry.
void checkModel(const Workload& w, const RepResult& r, Tally& t);

/// Per flow: the traced repetition delivered exactly what the untraced
/// one did.
void checkTracingInert(const RepResult& untraced, const RepResult& traced,
                       Tally& t);

/// Per flow: analysis::runScenario gives `r` (network seed `seed`)
/// bit-identical rates.
void checkRunScenario(const Workload& w, std::uint64_t seed,
                      const RepResult& r, Tally& t);

/// Per flow: maxmin-sim --csv (the binary at `cliPath`) prints the flow
/// rows of `r`, a run with network seed w.cliSeed(seed).
void checkCli(const Workload& w, std::uint64_t seed, const RepResult& r,
              const std::string& cliPath, Tally& t);

}  // namespace perfbench
