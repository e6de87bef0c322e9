#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <string_view>
#include <vector>

namespace maxmin::obs {

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

std::atomic<bool>& Profiler::enabledFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}

SiteId Profiler::site(const char* name) {
  // Linear probe over the registered prefix: registration happens once
  // per static site, so O(sites) here is irrelevant. Names match by
  // content, so a lookup from another translation unit (or from a
  // runtime string) finds the site its literal registered.
  const std::string_view wanted{name};
  const int n = std::min(siteCount_.load(std::memory_order_acquire),
                         static_cast<int>(kMaxSites));
  for (int i = 0; i < n; ++i) {
    if (sites_[i].name != nullptr && sites_[i].name == wanted) return i;
  }
  const int id = siteCount_.fetch_add(1, std::memory_order_acq_rel);
  if (id >= kMaxSites) return kMaxSites - 1;  // overflow bucket
  sites_[id].name = name;
  return id;
}

std::int64_t Profiler::wallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Profiler::reset() {
  const int n = std::min(siteCount_.load(std::memory_order_acquire),
                         static_cast<int>(kMaxSites));
  for (int i = 0; i < n; ++i) sites_[i].hist.reset();
}

void Profiler::printTable(std::ostream& os) const {
  const int n = std::min(siteCount_.load(std::memory_order_acquire),
                         static_cast<int>(kMaxSites));
  struct Row {
    const char* name;
    std::int64_t calls;
    std::int64_t totalNs;
    double meanNs;
    std::int64_t p50;
    std::int64_t p99;
  };
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    const Site& s = sites_[i];
    if (s.name == nullptr || s.hist.count() == 0) continue;
    rows.push_back(Row{s.name, s.hist.count(), s.hist.sum(), s.hist.mean(),
                       s.hist.percentile(0.5), s.hist.percentile(0.99)});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.totalNs != b.totalNs) return a.totalNs > b.totalNs;
    return std::string_view{a.name} < std::string_view{b.name};
  });
  os << "self-profile (wall time per callback site)\n";
  os << "site                          calls     total_ms   mean_us   "
        "p50_us    p99_us\n";
  for (const Row& r : rows) {
    os << r.name;
    for (std::size_t pad = std::char_traits<char>::length(r.name); pad < 30;
         ++pad) {
      os << ' ';
    }
    os << r.calls << "  " << static_cast<double>(r.totalNs) * 1e-6 << "  "
       << r.meanNs * 1e-3 << "  " << static_cast<double>(r.p50) * 1e-3 << "  "
       << static_cast<double>(r.p99) * 1e-3 << '\n';
  }
  if (rows.empty()) os << "(no samples; was --profile set before the run?)\n";
}

}  // namespace maxmin::obs
