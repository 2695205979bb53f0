// vdb_perfbench — one run of one workload of the repository benchmark.
//
//   vdb_perfbench --workload knn-d768|hybrid-d128|ingest-recover
//                 --seed N --seconds S --trace 0|1 --workdir DIR [--rev R]
//
// Prints a host fingerprint line, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. run.py builds and runs it.

#include "perfbench.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench_stats.h"
#include "core/rng.h"
#include "core/simd.h"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py cross-checks names and units.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"recall_at_10", "ratio"},
    {"rss_mb", "MiB"},
    {"recover_s", "s"},
    {"bytes_per_user_byte", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"parse.p50_us", "us"},
    {"index.search_p50_us", "us"},
    {"index.ndis_per_query", "count"},
    {"index.hops_per_query", "count"},
    {"index.nodes_visited_per_query", "count"},
    {"index.insert_p50_us", "us"},
    {"index.memory_mb", "MiB"},
    {"simd.l2_ns_per_row", "ns"},
    {"exec.self_p50_us", "us"},
    {"exec.explain_p50_us", "us"},
    {"exec.hybrid_p50_us", "us"},
    {"exec.bitmask_rows_per_query", "count"},
    {"exec.filter_checks_per_query", "count"},
    {"exec.plan_share.brute_force", "ratio"},
    {"exec.plan_share.pre_filter", "ratio"},
    {"exec.plan_share.post_filter", "ratio"},
    {"exec.plan_share.visit_first", "ratio"},
    {"exec.plan_share.partition_pruned", "ratio"},
    {"exec.short_results_ratio", "ratio"},
    {"exec.recall_sel01", "ratio"},
    {"exec.recall_sel10", "ratio"},
    {"exec.recall_sel50", "ratio"},
    {"net.self_p50_us", "us"},
    {"net.request_bytes_per_query", "bytes"},
    {"net.response_bytes_per_query", "bytes"},
    {"wal.sync_p50_ms", "ms"},
    {"wal.bytes_per_row", "bytes"},
    {"checkpoint.s", "s"},
    {"checkpoint.bytes", "bytes"},
    {"recovery.restore_s", "s"},
    {"recovery.index_load_s", "s"},
    {"recovery.replay_s", "s"},
    {"recovery.wal_records_replayed", "count"},
    {"recovery.index_from_snapshot", "ratio"},
    {"gen.query_p99_ms", "ms"},
    {"gen.samples", "count"},
    {"gen.late_max_ms", "ms"},
    {"host.timer_late_p99_ms", "ms"},
    {"host.steal_ratio", "ratio"},
    {"host.units_dropped", "count"},
    {"trace.overhead_ratio", "ratio"},
};

template <std::size_t N>
const MetricDef* Find(const MetricDef (&table)[N], const std::string& name) {
  for (const auto& m : table) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Fingerprint(const Args& args) {
  std::ostringstream o;
  o << "{\"cpu\": " << JsonString(CpuModel())
    << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
    << ", \"simd_tier\": "
    << JsonString(vdb::simd::TierName(vdb::simd::ActiveTier()))
    << ", \"compiler\": " << JsonString(PERFBENCH_COMPILER)
    << ", \"flags\": " << JsonString(PERFBENCH_FLAGS)
    << ", \"rev\": " << JsonString(args.rev.empty() ? "unknown" : args.rev)
    << ", \"workload\": " << JsonString(args.workload)
    << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
    << ", \"trace\": " << (args.trace ? 1 : 0) << "}";
  return o.str();
}

}  // namespace

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string tag;
  std::uint64_t v[8] = {};
  in >> tag;
  for (auto& x : v) in >> x;
  if (tag != "cpu" || !in) return t;
  t.steal = v[7];
  for (auto x : v) t.total += x;
  return t;
}

double StealRatio(const CpuTimes& from, const CpuTimes& to) {
  if (to.total <= from.total) return 0.0;
  return static_cast<double>(to.steal - from.steal) /
         static_cast<double>(to.total - from.total);
}

Report::Report(bool trace) : trace_(trace) {
  if (trace_) {
    for (const auto& m : kPerLayer) values_[m.name] = 0.0;
  }
}

void Report::Metric(const std::string& name, double value) {
  const bool e2e = Find(kEndToEnd, name) != nullptr;
  if (!e2e && Find(kPerLayer, name) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
    std::abort();
  }
  if (e2e != trace_) values_[name] = value;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Failed(1, what);
}

void Report::Failed(std::size_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  if (fail_logged_[what]++ < 3) {
    std::fprintf(stderr, "perfbench: FAILED %s (x%zu)\n", what.c_str(), n);
  }
}

int Report::Print() const {
  std::size_t failed = failed_;
  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    auto it = values_.find(m.name);
    double v = it == values_.end() ? NAN : it->second;
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: FAILED metric %s not measured\n",
                   m.name);
      ++failed;
      v = 0.0;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    metrics << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
            << buf << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (trace_) {
    for (const auto& m : kPerLayer) emit(m);
  } else {
    for (const auto& m : kEndToEnd) emit(m);
  }
  const bool correct = failed == 0 && attempted_ > 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", std::max<std::size_t>(attempted_, 1),
      failed, metrics.str().c_str());
  std::fflush(stdout);
  return 0;
}

void HostWitness::Start() {
  start_ = ReadCpuTimes();
  stop_ = false;
  thread_ = std::thread([this] {
    constexpr auto kPeriod = std::chrono::microseconds(500);
    auto next = Clock::now() + kPeriod;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_until(next);
      const auto now = Clock::now();
      late_ms_.push_back(
          std::chrono::duration<double, std::milli>(now - next).count());
      next += kPeriod;
      if (next < now) next = now + kPeriod;  // skip ticks lost to a stall
    }
  });
}

void HostWitness::Stop() {
  if (!thread_.joinable()) return;
  stop_ = true;
  thread_.join();
  end_ = ReadCpuTimes();
}

double HostWitness::late_p99_ms() const { return Percentile(late_ms_, 99.0); }

double HostWitness::steal_ratio() const { return StealRatio(start_, end_); }

double ExactL2(const float* a, const float* b, std::size_t dim) {
  double acc[4] = {0, 0, 0, 0};
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const double d = static_cast<double>(a[i + j]) - b[i + j];
      acc[j] += d * d;
    }
  }
  for (; i < dim; ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc[0] += d * d;
  }
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

std::vector<double> ExactTopK(const vdb::FloatMatrix& data, std::size_t rows,
                              const float* q, std::size_t k,
                              const std::function<bool(std::size_t)>& keep) {
  std::vector<double> d;
  d.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    if (keep && !keep(i)) continue;
    d.push_back(ExactL2(q, data.row(i), data.cols()));
  }
  const std::size_t m = std::min(k, d.size());
  std::partial_sort(d.begin(), d.begin() + static_cast<std::ptrdiff_t>(m),
                    d.end());
  d.resize(m);
  return d;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

std::uint64_t DirBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

double L2NsPerRow(const vdb::FloatMatrix& rows, const float* query,
                  std::uint64_t seed) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kCalls = 64;
  vdb::Rng rng(seed);
  std::vector<std::uint32_t> ids(kBatch * kCalls);
  for (auto& id : ids) id = static_cast<std::uint32_t>(rng.Next(rows.rows()));
  std::vector<float> out(kBatch);
  std::vector<double> per_row;
  const auto end = Clock::now() + std::chrono::milliseconds(300);
  while (Clock::now() < end) {
    const double s = Seconds([&] {
      for (std::size_t c = 0; c < kCalls; ++c) {
        vdb::simd::L2SqBatchGather(query, rows.row(0), rows.cols(),
                                   ids.data() + c * kBatch, kBatch, out.data());
      }
    });
    per_row.push_back(s * 1e9 / static_cast<double>(kCalls * kBatch));
  }
  return Median(per_row);
}

std::string VectorLiteral(const float* v, std::size_t dim) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < dim; ++i) {
    if (i != 0) out += ", ";
    auto res = std::to_chars(buf, buf + sizeof(buf), v[i]);
    out.append(buf, res.ptr);
  }
  return out + "]";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") args.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") args.seconds = std::strtod(value, nullptr);
    else if (flag == "--trace") args.trace = std::strcmp(value, "0") != 0;
    else if (flag == "--workdir") args.workdir = value;
    else if (flag == "--rev") args.rev = value;
    else {
      std::fprintf(stderr, "vdb_perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const bool served =
      args.workload == "knn-d768" || args.workload == "hybrid-d128";
  if ((!served && args.workload != "ingest-recover") || args.workdir.empty() ||
      !(args.seconds > 0)) {
    std::fprintf(stderr,
                 "usage: vdb_perfbench --workload knn-d768|hybrid-d128|"
                 "ingest-recover --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--rev R]\n");
    return 2;
  }

  std::filesystem::remove_all(args.workdir);
  std::filesystem::create_directories(args.workdir);
  std::printf("host %s\n", Fingerprint(args).c_str());
  std::fflush(stdout);

  Report report(args.trace);
  if (served) {
    RunServed(args, &report);
  } else {
    RunIngest(args, &report);
  }
  std::filesystem::remove_all(args.workdir);
  return report.Print();
}
