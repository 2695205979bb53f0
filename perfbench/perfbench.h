// Shared pieces of vdb_perfbench: arguments, the result report, the
// host-noise witness and the exact oracle. NOTES.md explains the design.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "bench_stats.h"
#include "core/types.h"

namespace perfbench {

using vdb::bench::Clock;
/// Wall time of `fn()` in seconds.
using vdb::bench::Seconds;

inline Clock::duration Duration(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;    ///< per-layer run: spans around each public call
  std::string workdir;   ///< scratch directory for data files (removed)
  std::string rev;       ///< source revision, for the host fingerprint
};

/// Everything one run prints. An untraced run reports the end-to-end
/// metrics and a traced run the per-layer ones; a workload sets every
/// metric it measures and the report keeps those of the run's mode. A
/// per-layer metric of a layer the workload never calls stays 0.
class Report {
 public:
  explicit Report(bool trace);

  void Metric(const std::string& name, double value);
  /// One operation attempted; `ok == false` counts it as failed and logs
  /// `what` to stderr (the first few of each kind).
  void Check(bool ok, const std::string& what);
  void Attempted(std::size_t n) { attempted_ += n; }
  void Failed(std::size_t n, const std::string& what);

  bool trace() const { return trace_; }
  std::size_t failed() const { return failed_; }

  /// Prints the final result line; returns the process exit code.
  int Print() const;

 private:
  bool trace_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::map<std::string, int> fail_logged_;
  std::map<std::string, double> values_;
};

/// Cumulative CPU time of the whole host, in /proc/stat ticks.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
/// Share of CPU time the hypervisor stole between two readings.
double StealRatio(const CpuTimes& from, const CpuTimes& to);

/// A unit of measurement during which the hypervisor stole more than this
/// share of CPU time measured the host, not the program; the host-noise
/// gate (KeepQuietest) drops it when enough quieter units exist. Quiet
/// runs on the reference host show 0.5-0.9% steal, disturbed ones 2.5-11%.
inline constexpr double kMaxSteal = 0.015;

/// setup_s. A workload sets up several times, spread across its run (the
/// last set-up is the one measured against), so the set-ups sample the
/// host's drift over the run as the measured rounds do instead of all
/// falling in its first seconds. Each set-up records its wall time and the
/// steal share while it ran.
class SetupTimes {
 public:
  /// Runs `setup`, which returns its wall time in seconds.
  template <typename Fn>
  void Run(Fn&& setup) {
    const CpuTimes t0 = ReadCpuTimes();
    seconds_.push_back(setup());
    steal_.push_back(StealRatio(t0, ReadCpuTimes()));
  }

  /// The median over the set-ups the host-noise gate keeps (all but at
  /// most one). Adds the number dropped to `*dropped`.
  double QuietMedian(std::size_t* dropped) const {
    const std::size_t want = seconds_.empty() ? 0 : seconds_.size() - 1;
    std::vector<double> kept;
    for (std::size_t i : KeepQuietest(steal_, kMaxSteal, want)) {
      kept.push_back(seconds_[i]);
    }
    *dropped += seconds_.size() - kept.size();
    return Median(kept);
  }

 private:
  std::vector<double> seconds_, steal_;
};

/// Host-noise witness: a thread sleeping to a 2 kHz schedule records how
/// late it wakes, and /proc/stat gives the steal share over the same span.
/// Neither is gated; they say whether a run's tail came from the host.
class HostWitness {
 public:
  HostWitness() = default;
  ~HostWitness() { Stop(); }
  HostWitness(const HostWitness&) = delete;
  HostWitness& operator=(const HostWitness&) = delete;

  void Start();
  void Stop();
  double late_p99_ms() const;
  double steal_ratio() const;

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> late_ms_;  ///< written by the thread until joined
  CpuTimes start_, end_;
  std::thread thread_;  ///< declared last: uses the members above
};

/// Squared L2 in double precision, independent of the library's kernels.
double ExactL2(const float* a, const float* b, std::size_t dim);

/// Ascending exact distances of the k nearest rows among the first `rows`
/// of `data` for which `keep` holds (all rows when `keep` is empty).
std::vector<double> ExactTopK(const vdb::FloatMatrix& data, std::size_t rows,
                              const float* q, std::size_t k,
                              const std::function<bool(std::size_t)>& keep);

/// Peak resident set (VmHWM) in MiB.
double PeakRssMb();

/// Total size of the regular files under `dir`.
std::uint64_t DirBytes(const std::string& dir);

/// simd::L2SqBatchGather cost per row, in 64-row gathers of random rows of
/// `rows` at their dimension (median over repetitions for ~0.3 s).
double L2NsPerRow(const vdb::FloatMatrix& rows, const float* query,
                  std::uint64_t seed);

/// Shortest round-trip decimal text of a vector, as a client would send it.
std::string VectorLiteral(const float* v, std::size_t dim);

void RunServed(const Args& args, Report* report);
void RunIngest(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
