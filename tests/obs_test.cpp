// Observability plane: metrics registry semantics (including the two
// gates), trace-sink determinism (fixed seed => byte-identical JSONL),
// the profiler, and the trace -> replay round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <locale>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/trace_replay.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "scenarios/scenarios.hpp"
#include "util/check.hpp"

namespace maxmin {
namespace {

// The registry and profiler are process-global; every test leaves them
// disabled and zeroed so suites compose in any order. Registration
// deliberately survives reset() (macro sites cache references into the
// registry), so assertions look up specific names instead of assuming an
// empty table.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { cleanup(); }
  void TearDown() override { cleanup(); }
  static void cleanup() {
    obs::Registry::setEnabled(false);
    obs::Registry::global().reset();
    obs::Profiler::setEnabled(false);
    obs::Profiler::global().reset();
  }
  /// Current value of a registered counter; -1 when the name was never
  /// registered in this process.
  static std::int64_t counterValue(std::string_view name) {
    for (const auto& [n, v] : obs::Registry::global().counterValues()) {
      if (n == name) return v;
    }
    return -1;
  }
};

// --- registry primitives ----------------------------------------------------

TEST_F(ObsTest, CounterAccumulates) {
  obs::Counter c;
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST_F(ObsTest, GaugeTracksHighWaterMark) {
  obs::Gauge g;
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.maxValue(), 7);
}

TEST_F(ObsTest, HistogramBucketsByPowerOfTwo) {
  obs::Histogram h;
  h.record(0);
  h.record(1);
  h.record(1000);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 1001);
  EXPECT_NEAR(h.mean(), 1001.0 / 3.0, 1e-9);
  // p100 lands in 1000's bucket [512, 1024): inclusive upper bound 1023.
  EXPECT_EQ(h.percentile(1.0), 1023);
  EXPECT_EQ(h.percentile(0.0), 0);
}

TEST_F(ObsTest, RegistryNamesAreStableAndSorted) {
  auto& r = obs::Registry::global();
  r.counter("obs_test.b_second").add(2);
  r.counter("obs_test.a_first").add(1);
  EXPECT_EQ(&r.counter("obs_test.a_first"), &r.counter("obs_test.a_first"));
  const auto values = r.counterValues();
  ASSERT_GE(values.size(), 2u);
  EXPECT_TRUE(std::is_sorted(
      values.begin(), values.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
  EXPECT_EQ(counterValue("obs_test.a_first"), 1);
  EXPECT_EQ(counterValue("obs_test.b_second"), 2);
}

// --- the two gates ----------------------------------------------------------

TEST_F(ObsTest, MacrosAreQuietWhenRuntimeDisabled) {
  ASSERT_FALSE(obs::Registry::enabled());
  MAXMIN_COUNT("obs_test.quiet", 1);
  MAXMIN_GAUGE("obs_test.quiet_gauge", 5);
  MAXMIN_HIST("obs_test.quiet_hist", 5);
  // The name may not even register: a disabled run leaves no trace of
  // the sites it passed through.
  EXPECT_EQ(counterValue("obs_test.quiet"), -1);
}

TEST_F(ObsTest, MacrosRecordOnlyInObservabilityBuilds) {
  obs::Registry::setEnabled(true);
  MAXMIN_COUNT("obs_test.counted", 2);
  MAXMIN_COUNT("obs_test.counted", 3);
#if defined(MAXMIN_OBSERVABILITY) && MAXMIN_OBSERVABILITY
  EXPECT_EQ(counterValue("obs_test.counted"), 5);
#else
  // Compiled out: the sites vanish entirely.
  EXPECT_EQ(counterValue("obs_test.counted"), -1);
#endif
}

TEST_F(ObsTest, InstrumentedRunFillsKernelCountersWhenEnabled) {
  obs::Registry::setEnabled(true);
  analysis::RunConfig cfg;
  cfg.duration = Duration::seconds(20.0);
  cfg.warmup = Duration::seconds(10.0);
  cfg.seed = 5;
  (void)analysis::runScenario(scenarios::fig3(), cfg);
#if defined(MAXMIN_OBSERVABILITY) && MAXMIN_OBSERVABILITY
  EXPECT_GT(counterValue("sim.events_scheduled"), 0);
  EXPECT_GT(counterValue("sim.events_fired"), 0);
  EXPECT_GT(counterValue("mac.backoff_draws"), 0);
#else
  EXPECT_EQ(counterValue("sim.events_scheduled"), -1);
  EXPECT_EQ(counterValue("mac.backoff_draws"), -1);
#endif
}

// --- JSON writer ------------------------------------------------------------

TEST_F(ObsTest, JsonWriterEmitsDeterministicRecords) {
  const auto build = [] {
    obs::JsonWriter w;
    w.beginObject();
    w.key("name").value("a\"b\\c");
    w.key("pi").value(3.141592653589793);
    w.key("n").value(std::int64_t{-7});
    w.key("ok").value(true);
    w.key("list").beginArray().value(1).value(2).endArray();
    w.endObject();
    return w.str();
  };
  const std::string a = build();
  EXPECT_EQ(a, build());
  EXPECT_EQ(a,
            "{\"name\":\"a\\\"b\\\\c\",\"pi\":3.1415926535897931,"
            "\"n\":-7,\"ok\":true,\"list\":[1,2]}");
}

// --- trace sink -------------------------------------------------------------

TEST_F(ObsTest, TraceLevelParses) {
  EXPECT_EQ(obs::parseTraceLevel("period"), obs::TraceLevel::kPeriod);
  EXPECT_EQ(obs::parseTraceLevel("event"), obs::TraceLevel::kEvent);
  EXPECT_FALSE(obs::parseTraceLevel("verbose").has_value());
}

TEST_F(ObsTest, TraceSinkAppendsLines) {
  std::ostringstream os;
  obs::TraceSink sink{os, obs::TraceLevel::kPeriod};
  EXPECT_FALSE(sink.wantsEvents());
  sink.writeRecord("{\"record\":\"period\"}");
  sink.writeRecord("{\"record\":\"period\"}");
  EXPECT_EQ(sink.recordsWritten(), 2);
  EXPECT_EQ(os.str(), "{\"record\":\"period\"}\n{\"record\":\"period\"}\n");
}

namespace {

std::string traceFixedSeedRun(obs::TraceLevel level) {
  std::ostringstream os;
  obs::TraceSink sink{os, level};
  analysis::RunConfig cfg;
  cfg.duration = Duration::seconds(30.0);
  cfg.warmup = Duration::seconds(15.0);
  cfg.seed = 11;
  cfg.trace = &sink;
  (void)analysis::runScenario(scenarios::fig3(), cfg);
  return os.str();
}

}  // namespace

TEST_F(ObsTest, FixedSeedTraceIsByteIdentical) {
  const std::string first = traceFixedSeedRun(obs::TraceLevel::kEvent);
  const std::string second = traceFixedSeedRun(obs::TraceLevel::kEvent);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "fixed-seed traces must be byte-identical";
}

TEST_F(ObsTest, TraceReplayRecomputesFairnessTrajectory) {
  const std::string trace = traceFixedSeedRun(obs::TraceLevel::kEvent);
  std::istringstream in{trace};
  const auto replay = analysis::traceReplay(in);
  // 30 s at the default 4 s period: 7 boundaries.
  ASSERT_EQ(replay.periods.size(), 7u);
  const auto imm = replay.immTrajectory();
  const auto ieq = replay.ieqTrajectory();
  ASSERT_EQ(imm.size(), 7u);
  for (std::size_t i = 0; i < imm.size(); ++i) {
    EXPECT_GE(imm[i], 0.0);
    EXPECT_LE(imm[i], 1.0 + 1e-12);
    EXPECT_GT(ieq[i], 0.0);
    EXPECT_EQ(replay.periods[i].period, static_cast<int>(i));
    EXPECT_EQ(replay.periods[i].hops.size(), 3u) << "fig3 has 3 flows";
  }
}

TEST_F(ObsTest, JsonDoublesRoundTripThroughWriterAndReplay) {
  // Satellite regression for locale-independent number text: doubles that
  // exercise shortest-vs-17-digit formatting, subnormals, and huge
  // magnitudes must survive JsonWriter -> traceReplay bit-exactly, and the
  // emitted bytes must not change when the global locale uses a ','
  // decimal separator (to_chars/from_chars ignore locale by definition).
  const std::vector<double> rates = {0.1, 1.0 / 3.0, 12.5,
                                     6.02214076e23, 5e-324};
  const auto cycle = [&rates] {
    obs::JsonWriter w;
    w.beginObject();
    w.key("record").value("period");
    w.key("period").value(0);
    w.key("timeUs").value(std::int64_t{4000000});
    w.key("flows").beginArray();
    for (std::size_t i = 0; i < rates.size(); ++i) {
      w.beginObject();
      w.key("id").value(static_cast<int>(i));
      w.key("hops").value(1);
      w.key("ratePps").value(rates[i]);
      w.endObject();
    }
    w.endArray().endObject();
    const std::string text = w.str() + "\n";
    std::istringstream in{text};
    const auto replay = analysis::traceReplay(in);
    return std::pair{text, replay};
  };

  const auto [text, replay] = cycle();
  ASSERT_EQ(replay.periods.size(), 1u);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto it = replay.periods[0].ratesPps.find(static_cast<int>(i));
    ASSERT_NE(it, replay.periods[0].ratesPps.end());
    EXPECT_EQ(it->second, rates[i]) << "rate " << i << " not bit-exact";
  }

  // Re-run the whole cycle under a comma-decimal locale when the host has
  // one installed; skip silently otherwise (CI images vary).
  const std::locale saved;
  bool haveLocale = false;
  try {
    std::locale::global(std::locale{"de_DE.UTF-8"});
    haveLocale = true;
  } catch (const std::runtime_error&) {
  }
  if (haveLocale) {
    const auto [localeText, localeReplay] = cycle();
    std::locale::global(saved);
    EXPECT_EQ(localeText, text) << "writer bytes depend on the locale";
    ASSERT_EQ(localeReplay.periods.size(), 1u);
    for (std::size_t i = 0; i < rates.size(); ++i) {
      EXPECT_EQ(localeReplay.periods[0].ratesPps.at(static_cast<int>(i)),
                rates[i]);
    }
  }
}

TEST_F(ObsTest, TraceReplayRejectsMalformedLines) {
  std::istringstream in{"{\"record\":\"period\",\"broken\n"};
  EXPECT_THROW((void)analysis::traceReplay(in), InvariantViolation);
  std::istringstream noRecord{"{\"period\":1}\n"};
  EXPECT_THROW((void)analysis::traceReplay(noRecord), InvariantViolation);
}

TEST_F(ObsTest, TraceReplaySkipsEventRecords) {
  std::istringstream in{
      "{\"record\":\"command\",\"period\":0,\"flow\":1,"
      "\"kind\":\"set_limit\",\"limitPps\":12.5}\n"
      "{\"record\":\"period\",\"period\":0,\"timeUs\":4000000,\"flows\":"
      "[{\"id\":0,\"hops\":3,\"ratePps\":10.0},"
      "{\"id\":1,\"hops\":1,\"ratePps\":20.0}]}\n"};
  const auto replay = analysis::traceReplay(in);
  ASSERT_EQ(replay.periods.size(), 1u);
  EXPECT_DOUBLE_EQ(replay.periods[0].summary.imm, 0.5);
  EXPECT_DOUBLE_EQ(replay.periods[0].summary.effectiveThroughputPps, 50.0);
}

// --- profiler ---------------------------------------------------------------

TEST_F(ObsTest, ProfilerSitesAreIdempotent) {
  auto& p = obs::Profiler::global();
  const obs::SiteId a = p.site("obs_test.site_a");
  EXPECT_EQ(p.site("obs_test.site_a"), a);
  EXPECT_NE(p.site("obs_test.site_b"), a);
}

TEST_F(ObsTest, ProfilerSitesMatchByContentNotPointer) {
  auto& p = obs::Profiler::global();
  const obs::SiteId a = p.site("obs_test.same_text");
  const std::string copy{"obs_test.same_text"};
  EXPECT_EQ(p.site(copy.c_str()), a);
}

TEST_F(ObsTest, ScopedProfileRecordsOnlyWhenEnabled) {
  auto& p = obs::Profiler::global();
  const obs::SiteId id = p.site("obs_test.scoped");
  { const obs::ScopedProfile off{id}; }
  obs::Profiler::setEnabled(true);
  { const obs::ScopedProfile on{id}; }
  std::ostringstream os;
  p.printTable(os);
  EXPECT_NE(os.str().find("obs_test.scoped"), std::string::npos);
  // Exactly the enabled pass recorded.
  EXPECT_NE(os.str().find(" 1 "), std::string::npos) << os.str();
}

TEST_F(ObsTest, WallNanosIsMonotonic) {
  const std::int64_t a = obs::Profiler::wallNanos();
  const std::int64_t b = obs::Profiler::wallNanos();
  EXPECT_GE(b, a);
}

TEST_F(ObsTest, ProfiledRunMatchesUnprofiledResults) {
  analysis::RunConfig cfg;
  cfg.duration = Duration::seconds(20.0);
  cfg.warmup = Duration::seconds(10.0);
  cfg.seed = 3;
  const auto plain = analysis::runScenario(scenarios::fig3(), cfg);
  obs::Profiler::setEnabled(true);
  obs::Registry::setEnabled(true);
  const auto profiled = analysis::runScenario(scenarios::fig3(), cfg);
  ASSERT_EQ(plain.flows.size(), profiled.flows.size());
  for (std::size_t i = 0; i < plain.flows.size(); ++i) {
    EXPECT_EQ(plain.flows[i].ratePps, profiled.flows[i].ratePps)
        << "observability must not perturb simulation results";
  }
}

}  // namespace
}  // namespace maxmin
