// Memory bound of the DES calendar: the kernel's heap footprint must stay
// O(pending events), however long the run.
//
// A global operator new that tracks live bytes (each block carries its
// size in a small header) measures the kernel from outside. The workload
// keeps only 21 events pending but never lets the active run drain:
// 20 self-rescheduling chains fire every ~50 us while one 4 s periodic
// event stretches every calendar window to ~4 s, so each window's first
// bucket absorbs every chain reschedule for seconds of simulated time.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "sim/simulator.hpp"

namespace {

std::atomic<std::int64_t> g_liveBytes{0};
std::atomic<std::int64_t> g_peakLiveBytes{0};

// Header in front of every block: keeps max_align_t alignment and records
// the request size for the matching delete.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* countedAlloc(std::size_t size) {
  auto* base = static_cast<unsigned char*>(std::malloc(size + kHeader));
  if (base == nullptr) throw std::bad_alloc{};
  *reinterpret_cast<std::size_t*>(base) = size;
  const std::int64_t live =
      g_liveBytes.fetch_add(static_cast<std::int64_t>(size),
                            std::memory_order_relaxed) +
      static_cast<std::int64_t>(size);
  std::int64_t peak = g_peakLiveBytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peakLiveBytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return base + kHeader;
}

void countedFree(void* p) noexcept {
  if (p == nullptr) return;
  unsigned char* base = static_cast<unsigned char*>(p) - kHeader;
  g_liveBytes.fetch_sub(
      static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(base)),
      std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

// Over-aligned allocations (the kernel's 64-byte event records) keep the
// default aligned operators; everything else is counted. noinline for the
// same reason as in phys_pipeline_test: sanitizer builds otherwise see a
// malloc/free pair through the operator boundary.
__attribute__((noinline)) void* operator new(std::size_t size) {
  return countedAlloc(size);
}
__attribute__((noinline)) void* operator new[](std::size_t size) {
  return countedAlloc(size);
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  countedFree(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  countedFree(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  countedFree(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  countedFree(p);
}

namespace maxmin::sim {
namespace {

/// An event that reschedules itself every `period`, forever.
struct Periodic {
  Simulator* sim;
  Duration period;
  void fire() {
    sim->post(period, [this] { fire(); });
  }
};

TEST(CalendarMemory, LongRunWithFewPendingEventsStaysBounded) {
  Simulator sim;
  std::vector<Periodic> chains;
  chains.reserve(21);
  for (int i = 0; i < 20; ++i) {
    chains.push_back(Periodic{&sim, Duration::micros(45 + i / 2)});
  }
  chains.push_back(Periodic{&sim, Duration::seconds(4)});
  for (Periodic& c : chains) c.fire();
  ASSERT_EQ(sim.pendingEvents(), 21u);

  const std::int64_t before = g_liveBytes.load(std::memory_order_relaxed);
  g_peakLiveBytes.store(before, std::memory_order_relaxed);
  sim.runUntil(TimePoint::origin() + Duration::seconds(12));

  EXPECT_EQ(sim.pendingEvents(), 21u);
  EXPECT_GT(sim.executedEvents(), 4'000'000u);  // the run really was long
  const std::int64_t peakGrowth =
      g_peakLiveBytes.load(std::memory_order_relaxed) - before;
  const std::int64_t liveGrowth =
      g_liveBytes.load(std::memory_order_relaxed) - before;
  // 21 pending 24-byte keys; the bound leaves room for the trim
  // threshold and vector doubling, and sits far below the tens of MB an
  // unbounded active run reaches on this workload.
  EXPECT_LT(peakGrowth, 256 * 1024) << "peak live bytes grew by " << peakGrowth;
  EXPECT_LT(liveGrowth, 256 * 1024) << "live bytes grew by " << liveGrowth;
}

// Trimming the popped prefix must not change pop order: interleaved
// chains with equal timestamps still fire in (when, FIFO) order.
TEST(CalendarMemory, TrimKeepsFifoOrderAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  std::vector<int> expected;
  for (int round = 0; round < 2000; ++round) {
    for (int i = 0; i < 3; ++i) expected.push_back(i);
  }
  struct Chain {
    Simulator* sim;
    std::vector<int>* order;
    int id;
    int left;
    void fire() {
      order->push_back(id);
      if (--left > 0) sim->post(Duration::micros(10), [this] { fire(); });
    }
  };
  std::vector<Chain> chains;
  for (int i = 0; i < 3; ++i) chains.push_back(Chain{&sim, &order, i, 2000});
  for (Chain& c : chains) sim.post(Duration::zero(), [&c] { c.fire(); });
  sim.post(Duration::seconds(4), [] {});  // widens the calendar window
  sim.run();
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace maxmin::sim
