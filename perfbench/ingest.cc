// ingest-recover: WAL-logged inserts through RecoveryManager, acknowledged
// in fixed batches by SyncWal, with k-NN reads between batches and
// periodic checkpoints; then a simulated crash that loses every WAL byte
// written after the last sync, and recovery checked by a durability oracle.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench_stats.h"
#include "core/synthetic.h"
#include "db/recovery.h"
#include "index/hnsw.h"
#include "perfbench.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDim = 128;
constexpr std::size_t kBase = 20000;       // rows loaded by set-up
constexpr std::size_t kBatch = 256;        // rows per SyncWal
constexpr std::size_t kBatches = 32;       // acknowledged batches per cycle
constexpr std::size_t kCheckpointEvery = 12;  // batches
constexpr std::size_t kReadsPerBatch = 4;
constexpr std::size_t kQueries = 200;
constexpr std::size_t kK = 10;
constexpr std::size_t kSetups = 3;
constexpr int kRecoveriesPerCycle = 3;

constexpr std::size_t kWritten = kBatches * kBatch;  // acknowledged per cycle
// Checkpoints run after batches 12 and 24; the last 8 batches stay in the
// WAL as the tail that recovery replays.
constexpr std::size_t kLastCheckpoint =
    (kBatches - 1) / kCheckpointEvery * kCheckpointEvery;
constexpr std::size_t kTailRows = (kBatches - kLastCheckpoint) * kBatch;
constexpr double kRowBytes = kDim * sizeof(float) + sizeof(std::int64_t);

struct Data {
  vdb::FloatMatrix rows;  ///< base rows, then every row a cycle writes
  vdb::FloatMatrix queries;
};

vdb::RecoveryOptions OptionsFor(const std::string& dir) {
  vdb::RecoveryOptions o;
  o.dir = dir;
  o.collection.dim = kDim;
  o.collection.attributes = {{"seq", vdb::AttrType::kInt64}};
  o.collection.index_factory = [] {
    vdb::HnswOptions h;
    h.m = 16;
    h.ef_construction = 64;
    return std::make_unique<vdb::HnswIndex>(h);
  };
  return o;
}

std::vector<vdb::AttrBinding> AttrsOf(std::size_t id) {
  return {{"seq", static_cast<std::int64_t>(id)}};
}

std::string LiveWal(const vdb::RecoveryManager& m, const std::string& dir) {
  return dir + "/" + m.manifest().Current()->wal_file;
}

std::uint64_t GenerationBytes(const vdb::RecoveryManager& m,
                              const std::string& dir) {
  const vdb::ManifestGeneration* g = m.manifest().Current();
  std::uint64_t bytes = fs::file_size(dir + "/" + g->checkpoint_file);
  if (!g->index_file.empty()) bytes += fs::file_size(dir + "/" + g->index_file);
  return bytes;
}

/// Set-up: a fresh data directory, base rows through the WAL, BuildIndex,
/// and the first checkpoint. Returns the wall time.
double Setup(const Data& d, const std::string& dir, Report* r) {
  const auto t0 = Clock::now();
  auto opened = vdb::RecoveryManager::Open(OptionsFor(dir));
  r->Check(opened.ok(), "open fresh data directory");
  if (!opened.ok()) return SecondsSince(t0);
  vdb::RecoveryManager& m = **opened;
  std::size_t failed = 0;
  for (std::size_t id = 0; id < kBase; ++id) {
    failed += !m.collection().Insert(id, d.rows.row_view(id), AttrsOf(id)).ok();
  }
  r->Attempted(kBase);
  r->Failed(failed, "insert");
  r->Check(m.collection().BuildIndex().ok(), "build index");
  r->Check(m.Checkpoint().ok(), "first checkpoint");
  return SecondsSince(t0);
}

/// What one cycle measured. The per-call timings fill only when traced.
struct Cycle {
  bool traced = false;
  double rows_per_s = 0;
  std::vector<double> read_ms;
  std::vector<double> recover_s;
  double bytes_per_user_byte = 0;
  std::vector<double> insert_us, sync_ms, checkpoint_s;
  double ndis = 0, hops = 0, nodes = 0;
  double checkpoint_bytes = 0, wal_bytes_per_row = 0;
  double restore_s = 0, index_load_s = 0, replay_s = 0;
  double wal_records_replayed = 0, from_snapshot = 0, memory_mb = 0;
  double recall = -1;  ///< measured on the first cycle only
  double steal = 0;    ///< host-noise gate input
};

/// Checks one mixed read: at most k rows, each an acknowledged id at its
/// exact distance.
void CheckRead(const Data& d, const float* q, std::size_t acked,
               const std::vector<vdb::Neighbor>& rows, Report* r) {
  bool ok = rows.size() <= kK;
  for (const auto& nb : rows) {
    if (nb.id >= acked) {
      ok = false;
      continue;
    }
    const double exact = ExactL2(q, d.rows.row(nb.id), kDim);
    if (std::fabs(nb.dist - exact) > 1e-3 * std::max(1.0, exact)) ok = false;
  }
  r->Check(ok, "mixed read rows: count <= k, acknowledged ids, distances");
}

/// Times Restore, LoadIndexSnapshot and ReplayWalFile separately on a copy
/// of the crashed directory (RecoveryManager::Open does the same steps).
void TimeRecoverySteps(const std::string& dir, Cycle* c, Report* r) {
  auto manifest = vdb::Manifest::Load(dir);
  r->Check(manifest.ok(), "manifest loads");
  if (!manifest.ok()) return;
  const vdb::ManifestGeneration* g = manifest->Current();
  vdb::CollectionOptions copts = OptionsFor(dir).collection;
  std::unique_ptr<vdb::Collection> coll;
  c->restore_s = Seconds([&] {
    auto restored =
        vdb::Collection::Restore(copts, dir + "/" + g->checkpoint_file);
    r->Check(restored.ok(), "restore checkpoint");
    if (restored.ok()) coll = std::move(*restored);
  });
  if (coll == nullptr) return;
  c->index_load_s = Seconds([&] {
    r->Check(coll->LoadIndexSnapshot(dir + "/" + g->index_file).ok(),
             "load index snapshot");
  });
  c->replay_s = Seconds([&] {
    r->Check(coll->ReplayWalFile(dir + "/" + g->wal_file).ok(), "replay WAL");
  });
}

Cycle RunCycle(const Data& d, const std::string& pristine,
               const std::string& workdir, bool traced, bool measure_recall,
               Report* r) {
  Cycle c;
  c.traced = traced;
  const std::string dir = workdir + "/cycle";
  fs::remove_all(dir);
  fs::copy(pristine, dir, fs::copy_options::recursive);
  auto opened = vdb::RecoveryManager::Open(OptionsFor(dir));
  r->Check(opened.ok(), "open post-setup copy");
  if (!opened.ok()) return c;
  std::unique_ptr<vdb::RecoveryManager> m = std::move(*opened);

  std::size_t acked = kBase;
  std::uint64_t synced_bytes = 0;
  std::size_t failed_inserts = 0;
  const auto t0 = Clock::now();
  for (std::size_t b = 0; b < kBatches; ++b) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      const std::size_t id = acked + j;
      const auto t = Clock::now();
      failed_inserts +=
          !m->collection().Insert(id, d.rows.row_view(id), AttrsOf(id)).ok();
      if (traced) c.insert_us.push_back(SecondsSince(t) * 1e6);
    }
    const auto ts = Clock::now();
    r->Check(m->collection().SyncWal().ok(), "SyncWal");
    if (traced) c.sync_ms.push_back(SecondsSince(ts) * 1e3);
    acked += kBatch;
    synced_bytes = fs::file_size(LiveWal(*m, dir));
    for (std::size_t i = 0; i < kReadsPerBatch; ++i) {
      const float* q = d.queries.row((b * kReadsPerBatch + i) % kQueries);
      std::vector<vdb::Neighbor> out;
      vdb::SearchStats st;
      const auto tr = Clock::now();
      const bool ok =
          m->collection().Knn(vdb::VectorView(q, kDim), kK, &out, &st).ok();
      c.read_ms.push_back(SecondsSince(tr) * 1e3);
      r->Check(ok, "mixed read");
      CheckRead(d, q, acked, out, r);
      c.ndis += st.distance_comps;
      c.hops += st.hops;
      c.nodes += st.nodes_visited;
    }
    if ((b + 1) % kCheckpointEvery == 0 && b + 1 < kBatches) {
      c.checkpoint_s.push_back(
          Seconds([&] { r->Check(m->Checkpoint().ok(), "checkpoint"); }));
      c.checkpoint_bytes = static_cast<double>(GenerationBytes(*m, dir));
    }
  }
  c.rows_per_s = kWritten / SecondsSince(t0);
  r->Attempted(kWritten);
  r->Failed(failed_inserts, "insert");
  c.wal_bytes_per_row = static_cast<double>(synced_bytes) / kTailRows;

  // One more batch is written but never synced, then the process "dies":
  // the crash keeps only what the last sync made durable.
  for (std::size_t j = 0; j < kBatch; ++j) {
    const std::size_t id = acked + j;
    r->Check(m->collection().Insert(id, d.rows.row_view(id), AttrsOf(id)).ok(),
             "unsynced insert");
  }
  const std::string wal = LiveWal(*m, dir);
  m.reset();
  const std::int64_t cut = CrashCutLength(fs::file_size(wal), synced_bytes);
  r->Check(cut >= 0, "synced WAL prefix still on disk at the crash");
  if (cut >= 0) fs::resize_file(wal, static_cast<std::uintmax_t>(cut));
  c.bytes_per_user_byte = DirBytes(dir) / (acked * kRowBytes);

  for (int i = 0; i < kRecoveriesPerCycle; ++i) {
    const std::string copy = workdir + "/recovered";
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    vdb::RecoveryReport rep;
    std::unique_ptr<vdb::RecoveryManager> rm;
    c.recover_s.push_back(Seconds([&] {
      auto rec = vdb::RecoveryManager::Open(OptionsFor(copy), &rep);
      r->Check(rec.ok(), "recover");
      if (rec.ok()) rm = std::move(*rec);
    }));
    if (rm == nullptr) continue;
    r->Check(rep.index_loaded_from_snapshot, "index loaded from snapshot");
    r->Check(rep.wal_records_replayed == kTailRows,
             "WAL tail replayed exactly");
    c.wal_records_replayed = static_cast<double>(rep.wal_records_replayed);
    c.from_snapshot += rep.index_loaded_from_snapshot ? 1.0 : 0.0;
    const vdb::Collection& coll = rm->collection();
    c.memory_mb = coll.MemoryBytes() / (1024.0 * 1024.0);

    // Durability oracle: every acknowledged row is back with its
    // attribute, and none of the unsynced batch is.
    r->Check(coll.Size() == acked, "recovered row count");
    const DurabilityVerdict v =
        CheckDurability(acked, acked + kBatch, [&](std::uint64_t id) {
          auto got = coll.attributes().Get(id, "seq");
          return got.ok() && std::get<std::int64_t>(*got) ==
                                 static_cast<std::int64_t>(id);
        });
    r->Attempted(acked + kBatch);
    r->Failed(v.missing_acked, "acknowledged row lost");
    r->Failed(v.resurrected, "unsynced row resurrected");

    if (measure_recall && i == 0) {
      double total = 0;
      for (std::size_t q = 0; q < kQueries; ++q) {
        const float* qv = d.queries.row(q);
        std::vector<vdb::Neighbor> out;
        r->Check(coll.Knn(vdb::VectorView(qv, kDim), kK, &out).ok(),
                 "read after recovery");
        CheckRead(d, qv, acked, out, r);
        std::vector<ScoredRow> scored;
        for (const auto& nb : out) {
          if (nb.id < acked)
            scored.push_back({nb.id, ExactL2(qv, d.rows.row(nb.id), kDim)});
        }
        total += RecallWithTies(scored, ExactTopK(d.rows, acked, qv, kK, {}),
                                kK);
      }
      c.recall = total / kQueries;
    }
  }
  c.from_snapshot /= kRecoveriesPerCycle;
  if (traced) {
    const std::string copy = workdir + "/steps";
    fs::remove_all(copy);
    fs::copy(dir, copy, fs::copy_options::recursive);
    TimeRecoverySteps(copy, &c, r);
    fs::remove_all(copy);
  }
  fs::remove_all(workdir + "/recovered");
  fs::remove_all(dir);
  return c;
}

}  // namespace

void RunIngest(const Args& args, Report* r) {
  Data d;
  vdb::SyntheticOptions so;
  so.n = kBase + kWritten + kBatch;
  so.dim = kDim;
  so.seed = args.seed;
  so.num_clusters = 64;
  d.rows = vdb::GaussianClusters(so);
  d.queries =
      vdb::PerturbedQueries(d.rows, kQueries, 0.03f, args.seed * 7919 + 1);

  // Set-ups are spread across the run: each one is followed by its share
  // of the cycles, which start from copies of its post-set-up directory.
  // A traced run alternates untraced and traced cycles.
  const std::string pristine = args.workdir + "/setup";
  SetupTimes setups;
  std::vector<Cycle> cycles;
  HostWitness witness;
  witness.Start();
  for (std::size_t s = 0; s < kSetups; ++s) {
    fs::remove_all(pristine);
    setups.Run([&] { return Setup(d, pristine, r); });
    const auto t0 = Clock::now();
    do {
      const bool traced = r->trace() && cycles.size() % 2 == 1;
      const CpuTimes c0 = ReadCpuTimes();
      cycles.push_back(
          RunCycle(d, pristine, args.workdir, traced, cycles.empty(), r));
      cycles.back().steal = StealRatio(c0, ReadCpuTimes());
    } while (SecondsSince(t0) < args.seconds / kSetups);
  }
  witness.Stop();
  std::size_t dropped = 0;
  r->Metric("setup_s", setups.QuietMedian(&dropped));

  // The host-noise gate keeps the untraced cycles the hypervisor left
  // alone, and all but at most one of them in any case: under light steal
  // the host's own drift moves a cycle more than the steal does, so one
  // cycle would make a noisier figure than the median of the others.
  std::vector<const Cycle*> untraced;
  std::vector<double> untraced_steal;
  for (const Cycle& c : cycles) {
    if (c.traced) continue;
    untraced.push_back(&c);
    untraced_steal.push_back(c.steal);
  }
  const auto quiet = KeepQuietest(untraced_steal, kMaxSteal,
                                  std::max<std::size_t>(1, untraced.size() - 1));
  dropped += untraced.size() - quiet.size();
  r->Metric("host.units_dropped", static_cast<double>(dropped));

  std::vector<double> rate, traced_rate, reads, recover, bytes;
  for (std::size_t i : quiet) {
    const Cycle& c = *untraced[i];
    rate.push_back(c.rows_per_s);
    recover.insert(recover.end(), c.recover_s.begin(), c.recover_s.end());
    bytes.push_back(c.bytes_per_user_byte);
    reads.insert(reads.end(), c.read_ms.begin(), c.read_ms.end());
  }
  std::vector<double> traced_reads, insert_us, sync_ms, checkpoint_s;
  double ndis = 0, hops = 0, nodes = 0;
  const Cycle* last_traced = nullptr;
  for (const Cycle& c : cycles) {
    if (!c.traced) continue;
    traced_rate.push_back(c.rows_per_s);
    traced_reads.insert(traced_reads.end(), c.read_ms.begin(), c.read_ms.end());
    insert_us.insert(insert_us.end(), c.insert_us.begin(), c.insert_us.end());
    sync_ms.insert(sync_ms.end(), c.sync_ms.begin(), c.sync_ms.end());
    checkpoint_s.insert(checkpoint_s.end(), c.checkpoint_s.begin(),
                        c.checkpoint_s.end());
    ndis += c.ndis;
    hops += c.hops;
    nodes += c.nodes;
    last_traced = &c;
  }
  r->Metric("throughput_per_s", Median(rate));
  r->Metric("latency_p50_ms", Median(reads));
  r->Metric("recall_at_10", cycles.front().recall);
  r->Metric("recover_s", Median(recover));
  r->Metric("bytes_per_user_byte", Median(bytes));
  r->Metric("rss_mb", PeakRssMb());
  std::fprintf(stderr,
               "ingest-recover: %zu cycles (%zu untraced kept), rows/s %.1f, "
               "read p50 %.4f ms, recover %.3f s, %.3f bytes/user byte  host: "
               "steal %.4f, timer late p99 %.3f ms\n",
               cycles.size(), quiet.size(), Median(rate), Median(reads),
               Median(recover), Median(bytes), witness.steal_ratio(),
               witness.late_p99_ms());

  if (last_traced != nullptr) {
    const Cycle& c = *last_traced;
    const double n = static_cast<double>(traced_reads.size());
    r->Metric("index.search_p50_us", Median(traced_reads) * 1e3);
    r->Metric("index.ndis_per_query", ndis / n);
    r->Metric("index.hops_per_query", hops / n);
    r->Metric("index.nodes_visited_per_query", nodes / n);
    r->Metric("index.insert_p50_us", Median(insert_us));
    r->Metric("index.memory_mb", c.memory_mb);
    r->Metric("wal.sync_p50_ms", Median(sync_ms));
    r->Metric("wal.bytes_per_row", c.wal_bytes_per_row);
    r->Metric("checkpoint.s", Median(checkpoint_s));
    r->Metric("checkpoint.bytes", c.checkpoint_bytes);
    r->Metric("recovery.restore_s", c.restore_s);
    r->Metric("recovery.index_load_s", c.index_load_s);
    r->Metric("recovery.replay_s", c.replay_s);
    r->Metric("recovery.wal_records_replayed", c.wal_records_replayed);
    r->Metric("recovery.index_from_snapshot", c.from_snapshot);
    r->Metric("trace.overhead_ratio", Median(traced_rate) / Median(rate));
  }
  // The mixed reads are this workload's latency sample.
  r->Metric("gen.query_p99_ms", Percentile(reads, 99.0));
  r->Metric("gen.samples", static_cast<double>(reads.size()));
  r->Metric("host.timer_late_p99_ms", witness.late_p99_ms());
  r->Metric("host.steal_ratio", witness.steal_ratio());
  if (r->trace()) {
    r->Metric("simd.l2_ns_per_row",
              L2NsPerRow(d.rows, d.queries.row(0), args.seed));
  }
}

}  // namespace perfbench
