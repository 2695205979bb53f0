// Unit tests for bench_stats.h. Self-contained (no test framework) so the
// benchmark package builds from the library sources alone; exits 1 when any
// expectation fails. run.py runs it after every build.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what, int line) {
  if (!cond) {
    std::fprintf(stderr, "bench_stats_test:%d: FAILED %s\n", line, what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

using namespace perfbench;

void TestPercentile() {
  EXPECT(Percentile({}, 50) == 0.0);
  EXPECT(Near(Percentile({7}, 99), 7));
  // Unsorted input, linear interpolation between ranks.
  EXPECT(Near(Percentile({4, 1, 3, 2}, 50), 2.5));
  EXPECT(Near(Percentile({1, 2, 3, 4, 5}, 0), 1));
  EXPECT(Near(Percentile({1, 2, 3, 4, 5}, 100), 5));
  EXPECT(Near(Percentile({0, 10}, 90), 9));
  EXPECT(Near(Median({5, 1, 9}), 5));
}

void TestSampleCountRule() {
  // p99 needs ten samples beyond it.
  EXPECT(!PercentileSupported(999, 99));
  EXPECT(PercentileSupported(1000, 99));
  EXPECT(PercentileSupported(20, 50));
  EXPECT(!PercentileSupported(19, 50));
  EXPECT(PercentileSupported(200, 95));
}

void TestSubWindowMedian() {
  // 100/s for 2 s, then a 0.5 s stall, then 100/s again: the stall empties
  // two 0.25 s windows out of sixteen and does not move the median.
  std::vector<double> done;
  for (int i = 0; i < 200; ++i) done.push_back(0.005 + i * 0.01);
  for (int i = 0; i < 150; ++i) done.push_back(2.5 + 0.005 + i * 0.01);
  const std::vector<double> rates = SubWindowRates(done, 0.0, 4.0, 0.25);
  EXPECT(rates.size() == 16 && rates[8] == 0.0 && rates[9] == 0.0);
  EXPECT(Near(Median(rates), 100.0));
  // Completions before start or past the last whole window are ignored.
  EXPECT((SubWindowRates({-1, 0.1, 0.2, 0.9}, 0.0, 0.7, 0.5) ==
          std::vector<double>{4.0}));
  // No whole window fits.
  EXPECT(SubWindowRates(done, 0.0, 0.1, 0.25).empty());
}

void TestOpenLoopAccounting() {
  EXPECT(Near(DueTime(0, 1000), 0));
  EXPECT(Near(DueTime(250, 1000), 0.25));
  // Request 1 is sent 20 ms late because the only connection was busy; its
  // latency counts from its due time, and the lateness is reported.
  std::vector<OpenLoopSample> s = {
      {0.000, 0.000, 0.030},  // 30 ms service
      {0.010, 0.030, 0.031},  // due 10 ms, sent 30 ms, done 31 ms
      {0.020, 0.031, 0.032},
  };
  OpenLoopSummary sum = SummarizeOpenLoop(s);
  EXPECT(sum.samples == 3);
  EXPECT(Near(sum.p50_ms, 21.0));
  EXPECT(Near(sum.late_max_ms, 20.0));
  EXPECT(!sum.p99_supported);
  EXPECT(Near(sum.p99_ms, 29.82));
}

void TestRecall() {
  const std::vector<double> truth = {1, 2, 3, 3};
  // Exact answer.
  EXPECT(Near(RecallWithTies({{1, 1}, {2, 2}, {3, 3}, {4, 3}}, truth, 4), 1));
  // A different row tied at the k-th distance is still a hit.
  EXPECT(Near(RecallWithTies({{1, 1}, {2, 2}, {3, 3}, {9, 3}}, truth, 4), 1));
  // A row beyond the k-th distance is a miss.
  EXPECT(Near(RecallWithTies({{1, 1}, {2, 2}, {3, 3}, {9, 3.5}}, truth, 4),
              0.75));
  // Short result: missing slots are misses.
  EXPECT(Near(RecallWithTies({{1, 1}, {2, 2}}, truth, 4), 0.5));
  // Duplicates count once.
  EXPECT(Near(RecallWithTies({{1, 1}, {1, 1}, {1, 1}, {1, 1}}, truth, 4),
              0.25));
  // Fewer rows qualify than k: the denominator is what qualifies.
  EXPECT(Near(RecallWithTies({{1, 1}, {2, 2}}, {1, 2}, 10), 1));
  EXPECT(Near(RecallWithTies({}, {}, 10), 1));
  EXPECT(Near(RecallWithTies({{5, 1}}, {}, 10), 0));
}

void TestDurabilityOracle() {
  // 10 written, 6 acknowledged by the last sync.
  auto exact = [](std::uint64_t id) { return id < 6; };
  EXPECT(CheckDurability(6, 10, exact).ok());
  auto lost = [](std::uint64_t id) { return id < 5; };
  EXPECT(CheckDurability(6, 10, lost).missing_acked == 1);
  auto kept = [](std::uint64_t id) { return id < 8; };
  DurabilityVerdict v = CheckDurability(6, 10, kept);
  EXPECT(v.resurrected == 2 && v.missing_acked == 0 && !v.ok());
  // The crash keeps the synced prefix of the live log and nothing else.
  EXPECT(CrashCutLength(4096, 1024) == 1024);
  EXPECT(CrashCutLength(1024, 1024) == 1024);
  EXPECT(CrashCutLength(0, 0) == 0);
  EXPECT(CrashCutLength(100, 101) == -1);
}

void TestHostNoiseGate() {
  using Idx = std::vector<std::size_t>;
  // Enough quiet units: keep every quiet one, drop the stolen ones.
  EXPECT((KeepQuietest({0.01, 0.05, 0.0, 0.02}, 0.015, 2) == Idx{0, 2}));
  EXPECT((KeepQuietest({0.0, 0.0, 0.0}, 0.015, 2) == Idx{0, 1, 2}));
  // Too few quiet units: the `want` least-stolen ones, in unit order.
  EXPECT((KeepQuietest({0.05, 0.02, 0.03, 0.01}, 0.015, 2) == Idx{1, 3}));
  // Ties keep the earlier unit.
  EXPECT((KeepQuietest({0.04, 0.04, 0.04}, 0.015, 1) == Idx{0}));
  // Fewer units than wanted: all of them.
  EXPECT((KeepQuietest({0.09}, 0.015, 3) == Idx{0}));
  EXPECT(KeepQuietest({}, 0.015, 2).empty());
}

}  // namespace

int main() {
  TestPercentile();
  TestSampleCountRule();
  TestSubWindowMedian();
  TestOpenLoopAccounting();
  TestRecall();
  TestDurabilityOracle();
  TestHostNoiseGate();
  if (failures != 0) return 1;
  std::printf("bench_stats_test: all passed\n");
  return 0;
}
