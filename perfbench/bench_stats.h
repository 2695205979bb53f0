// Statistics the benchmark reports, kept free of any benchmark state so
// bench_stats_test.cc can pin each rule on hand-made inputs. Percentiles
// come from the experiment harness (bench/bench_util.h).

#ifndef PERFBENCH_BENCH_STATS_H_
#define PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"

namespace perfbench {

/// Linear-interpolation percentile (p in [0, 100]); 0 for an empty sample.
using vdb::bench::Percentile;

inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50.0);
}

/// A tail percentile is reported as supported only when at least ten
/// samples lie beyond it (p99 needs n >= 1000).
inline bool PercentileSupported(std::size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

/// Closed-loop capacity: completions are bucketed into consecutive
/// `window`-second windows that lie wholly inside [start, end); returns the
/// per-window rates (empty when no whole window fits). qps_max is their
/// median, so one host stall moves one window, not the figure.
inline std::vector<double> SubWindowRates(
    const std::vector<double>& completions, double start, double end,
    double window) {
  if (window <= 0.0 || end - start < window) return {};
  const auto windows = static_cast<std::size_t>((end - start) / window + 1e-9);
  std::vector<double> rates(windows, 0.0);
  for (double t : completions) {
    if (t < start) continue;
    const auto w = static_cast<std::size_t>((t - start) / window);
    if (w < windows) rates[w] += 1.0 / window;
  }
  return rates;
}

/// Open-loop schedule: request i is due `i / rate` seconds after start.
inline double DueTime(std::size_t i, double rate) {
  return static_cast<double>(i) / rate;
}

/// One open-loop request, in seconds since the schedule started.
struct OpenLoopSample {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

struct OpenLoopSummary {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::size_t samples = 0;
  bool p99_supported = false;
  double late_max_ms = 0.0;  ///< how far behind schedule the generator sent
};

/// Latency is timed from the due time, not the send time, so a stall that
/// delays later sends is charged to the requests that waited behind it.
inline OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopSample>& s) {
  OpenLoopSummary out;
  std::vector<double> lat;
  lat.reserve(s.size());
  for (const auto& x : s) {
    lat.push_back((x.done - x.due) * 1e3);
    out.late_max_ms = std::max(out.late_max_ms, (x.sent - x.due) * 1e3);
  }
  out.samples = lat.size();
  out.p99_supported = PercentileSupported(lat.size(), 99.0);
  out.p50_ms = Percentile(lat, 50.0);
  out.p99_ms = Percentile(std::move(lat), 99.0);
  return out;
}

/// One returned row with its distance recomputed exactly by the oracle.
struct ScoredRow {
  std::uint64_t id = 0;
  double exact_dist = 0.0;
};

/// recall@k against an exact answer `truth_dists` (ascending, length
/// min(k, rows that qualify)). A returned row counts as a hit when its
/// exact distance is within the k-th true distance, so any of several rows
/// tied at the boundary is credited. A repeated id counts once; a short
/// result list scores its missing slots as misses. 1 when nothing
/// qualifies and nothing is returned.
inline double RecallWithTies(const std::vector<ScoredRow>& returned,
                             const std::vector<double>& truth_dists,
                             std::size_t k) {
  const std::size_t want = std::min(k, truth_dists.size());
  if (want == 0) return returned.empty() ? 1.0 : 0.0;
  const double bound = truth_dists[want - 1];
  const double slack = 1e-6 * std::max(1.0, std::fabs(bound));
  std::unordered_set<std::uint64_t> seen;
  std::size_t hits = 0;
  for (const auto& r : returned) {
    if (!seen.insert(r.id).second) continue;
    if (r.exact_dist <= bound + slack) ++hits;
  }
  return static_cast<double>(std::min(hits, want)) / static_cast<double>(want);
}

/// Host-noise gate. Each measured unit (a set-up, a round, a cycle) carries
/// the share of CPU time the hypervisor stole while it ran. Returns the
/// indices, ascending, of the units to keep: every unit whose steal is at
/// most `max_steal` when there are at least `want` of them, else the `want`
/// least-stolen units (all units when there are fewer than `want`).
inline std::vector<std::size_t> KeepQuietest(const std::vector<double>& steal,
                                             double max_steal,
                                             std::size_t want) {
  std::vector<std::size_t> idx(steal.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::vector<std::size_t> quiet;
  for (std::size_t i : idx) {
    if (steal[i] <= max_steal) quiet.push_back(i);
  }
  if (quiet.size() >= want) return quiet;
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  idx.resize(std::min(want, idx.size()));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Durability oracle for a simulated crash that keeps exactly the WAL
/// bytes made durable by the last sync. Rows [0, acked) were acknowledged
/// and must be present; rows [acked, written) were written after the last
/// sync and must be absent.
struct DurabilityVerdict {
  std::size_t missing_acked = 0;
  std::size_t resurrected = 0;
  bool ok() const { return missing_acked == 0 && resurrected == 0; }
};

inline DurabilityVerdict CheckDurability(
    std::size_t acked, std::size_t written,
    const std::function<bool(std::uint64_t)>& present) {
  DurabilityVerdict v;
  for (std::size_t id = 0; id < written; ++id) {
    const bool p = present(id);
    if (id < acked && !p) ++v.missing_acked;
    if (id >= acked && p) ++v.resurrected;
  }
  return v;
}

/// Where the simulated crash cuts the live WAL: everything past the last
/// sync is lost. A sync point beyond the file means the log shrank after
/// it was acknowledged, which the oracle reports as an error (-1).
inline std::int64_t CrashCutLength(std::uint64_t file_bytes,
                                   std::uint64_t synced_bytes) {
  if (synced_bytes > file_bytes) return -1;
  return static_cast<std::int64_t>(synced_bytes);
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_STATS_H_
