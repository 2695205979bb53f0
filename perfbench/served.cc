// Served workloads: k-NN at d=768 and filtered k-NN at d=128, sent over
// the wire protocol to an in-process server, then a restart of the served
// collection from its checkpoint.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "bench_stats.h"
#include "core/synthetic.h"
#include "db/database.h"
#include "db/query_language.h"
#include "index/hnsw.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "perfbench.h"

namespace perfbench {

namespace {

using vdb::net::Client;
using vdb::net::WireStatus;

constexpr std::size_t kK = 10;
constexpr const char* kCollection = "items";
constexpr std::size_t kConns = 3;         // lock-step client connections
constexpr std::size_t kServerWorkers = 2;
constexpr double kWindowS = 0.25;         // qps_max sub-window
constexpr double kWarmupS = 0.25;         // closed loop, before measuring
constexpr std::size_t kRounds = 6;
constexpr std::size_t kKeepRounds = 4;     // at least, by the host-noise gate
constexpr std::size_t kSetups = 3;
constexpr int kRestarts = 3;
constexpr std::size_t kReplayCalls = 600;  // traced run: unloaded replay calls

struct Spec {
  std::size_t n;
  std::size_t dim;
  std::size_t clusters;
  std::vector<double> bands;  ///< predicate `u < band`; empty = plain k-NN
  std::size_t queries_per_band;
  double open_rate;  ///< offered open-loop rate, ~40% of qps_max at the seed
};

Spec SpecFor(const std::string& workload) {
  if (workload == "knn-d768") return {10000, 768, 32, {}, 200, 1800.0};
  return {20000, 128, 64, {0.01, 0.1, 0.5}, 200, 130.0};
}

struct Query {
  std::string text;
  std::vector<float> vec;  ///< the vector the server parses from `text`
  double band = INFINITY;
  int band_index = -1;
  std::vector<double> truth;  ///< exact distances of the true top k
  std::size_t matching = 0;   ///< rows that pass the predicate
};

struct Workload {
  Spec spec;
  vdb::FloatMatrix data;
  std::vector<double> u;  ///< the filtered attribute (hybrid only)
  std::vector<Query> queries;

  bool filtered() const { return !spec.bands.empty(); }
  bool Keep(std::size_t row, const Query& q) const {
    return !filtered() || u[row] < q.band;
  }
};

vdb::CollectionOptions CollectionOptionsFor(const Workload& w) {
  vdb::CollectionOptions o;
  o.dim = w.spec.dim;
  if (w.filtered()) o.attributes = {{"u", vdb::AttrType::kDouble}};
  o.index_factory = [] {
    vdb::HnswOptions h;
    h.m = 16;
    h.ef_construction = 64;
    return std::make_unique<vdb::HnswIndex>(h);
  };
  return o;
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed,
                      Report* r) {
  Workload w;
  w.spec = SpecFor(name);
  vdb::SyntheticOptions so;
  so.n = w.spec.n;
  so.dim = w.spec.dim;
  so.seed = seed;
  so.num_clusters = w.spec.clusters;
  if (w.filtered()) {
    auto hw = vdb::MakeHybridWorkload(so);
    w.data = std::move(hw.vectors);
    w.u = std::move(hw.uniform_attr);
  } else {
    w.data = vdb::GaussianClusters(so);
  }
  const std::size_t bands = std::max<std::size_t>(1, w.spec.bands.size());
  const vdb::FloatMatrix qs = vdb::PerturbedQueries(
      w.data, w.spec.queries_per_band * bands, 0.03f, seed * 7919 + 1);
  for (std::size_t i = 0; i < qs.rows(); ++i) {
    Query q;
    std::string where;
    if (w.filtered()) {
      // Bands interleave so every phase and sub-window sees the same mix.
      q.band_index = static_cast<int>(i % bands);
      q.band = w.spec.bands[i % bands];
      char buf[32];
      std::snprintf(buf, sizeof(buf), " WHERE u < %g", q.band);
      where = buf;
    }
    q.text = std::string("SELECT knn(10) FROM ") + kCollection + where +
             " ORDER BY distance(" + VectorLiteral(qs.row(i), qs.cols()) + ")";
    auto parsed = vdb::ParseQuery(q.text);
    r->Check(parsed.ok() && parsed->query_vector.size() == w.spec.dim,
             "query text parses to a vector of the collection's dimension");
    q.vec = parsed.ok() ? parsed->query_vector
                        : std::vector<float>(qs.row(i), qs.row(i) + qs.cols());
    auto keep = [&](std::size_t row) { return w.Keep(row, q); };
    q.truth = ExactTopK(w.data, w.spec.n, q.vec.data(), kK, keep);
    for (std::size_t row = 0; row < w.spec.n; ++row) q.matching += keep(row);
    w.queries.push_back(std::move(q));
  }
  return w;
}

/// Ingest plus BuildIndex into `db`; returns the wall time. With
/// `insert_us` set, each Insert is timed.
double Setup(const Workload& w, vdb::Database* db,
             std::vector<double>* insert_us, Report* r) {
  const auto t0 = Clock::now();
  auto created = db->CreateCollection(kCollection, CollectionOptionsFor(w));
  r->Check(created.ok(), "create collection");
  if (!created.ok()) return SecondsSince(t0);
  vdb::Collection* c = *created;
  std::size_t failed = 0;
  std::vector<vdb::AttrBinding> attrs;
  for (std::size_t i = 0; i < w.spec.n; ++i) {
    if (w.filtered()) attrs = {{"u", w.u[i]}};
    const auto t = Clock::now();
    failed += !c->Insert(i, w.data.row_view(i), attrs).ok();
    if (insert_us != nullptr) insert_us->push_back(SecondsSince(t) * 1e6);
  }
  r->Attempted(w.spec.n);
  r->Failed(failed, "insert");
  r->Check(c->BuildIndex().ok(), "build index");
  return SecondsSince(t0);
}

/// Checks one answer against the exact oracle (row count, ids, predicate,
/// reported distances, no repeats) and returns its recall@10.
double Verify(const Workload& w, const Query& q,
              const std::vector<vdb::Neighbor>& rows, Report* r) {
  bool ok = rows.size() <= kK;
  std::vector<ScoredRow> scored;
  std::unordered_set<vdb::VectorId> seen;
  for (const auto& nb : rows) {
    if (nb.id >= w.spec.n || !w.Keep(nb.id, q) || !seen.insert(nb.id).second) {
      ok = false;
      continue;
    }
    const double exact = ExactL2(q.vec.data(), w.data.row(nb.id), w.spec.dim);
    if (std::fabs(nb.dist - exact) > 1e-3 * std::max(1.0, exact)) ok = false;
    scored.push_back({nb.id, exact});
  }
  r->Check(ok, "answer rows: count <= k, valid ids, predicate, distances");
  return RecallWithTies(scored, q.truth, kK);
}

struct Sample {
  std::size_t query = 0;
  bool transport_ok = false;
  WireStatus status = WireStatus::kOk;
  std::vector<vdb::Neighbor> rows;
};

/// Checks one wire answer: transport, verdict, then the rows. Returns its
/// recall@10 (0 for a failed answer).
double CheckSample(const Workload& w, const Sample& s, Report* r) {
  r->Check(s.transport_ok, "transport");
  if (!s.transport_ok) return 0.0;
  r->Check(s.status == WireStatus::kOk,
           std::string("wire status ") + vdb::net::WireStatusName(s.status));
  if (s.status != WireStatus::kOk) return 0.0;
  return Verify(w, w.queries[s.query], s.rows, r);
}

void VerifySamples(const Workload& w, const std::vector<Sample>& samples,
                   Report* r) {
  for (const auto& s : samples) CheckSample(w, s, r);
}

Sample Send(Client* c, const Workload& w, std::size_t query, bool trace) {
  Sample s;
  s.query = query;
  auto resp = c->Query(w.queries[query].text, "", 0, trace);
  s.transport_ok = resp.ok();
  if (resp.ok()) {
    s.status = resp->status;
    s.rows = std::move(resp->rows);
  }
  return s;
}

std::vector<std::unique_ptr<Client>> Connect(std::uint16_t port, Report* r) {
  std::vector<std::unique_ptr<Client>> out;
  for (std::size_t i = 0; i < kConns; ++i) {
    auto c = Client::Connect("127.0.0.1", port);
    r->Check(c.ok(), "connect");
    if (c.ok()) out.push_back(std::move(*c));
  }
  return out;
}

/// Closed loop: each connection sends its next request when the previous
/// answer arrives. Returns the sub-window completion rates.
std::vector<double> RunClosed(const Workload& w, std::uint16_t port,
                              double seconds, bool wire_trace,
                              std::vector<Sample>* samples, Report* r) {
  auto clients = Connect(port, r);
  std::mutex mu;
  std::vector<double> done;
  const auto t0 = Clock::now() + Duration(kWarmupS);
  const auto end = t0 + Duration(seconds);
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < clients.size(); ++j) {
    threads.emplace_back([&, j] {
      std::vector<double> my_done;
      std::vector<Sample> my_samples;
      for (std::size_t i = 0; Clock::now() < end; ++i) {
        const std::size_t q = (j + i * kConns) % w.queries.size();
        Sample s = Send(clients[j].get(), w, q, wire_trace);
        my_done.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        const bool dead = !s.transport_ok;
        my_samples.push_back(std::move(s));
        if (dead) break;
      }
      std::lock_guard<std::mutex> lock(mu);
      done.insert(done.end(), my_done.begin(), my_done.end());
      for (auto& s : my_samples) samples->push_back(std::move(s));
    });
  }
  for (auto& t : threads) t.join();
  return SubWindowRates(done, 0.0, seconds, kWindowS);
}

/// Open loop at a fixed offered rate: request i is due at i / rate, goes
/// to the next free connection, and is timed from its due time.
void RunOpen(const Workload& w, std::uint16_t port, double seconds,
             std::vector<OpenLoopSample>* timing, std::vector<Sample>* samples,
             Report* r) {
  auto clients = Connect(port, r);
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const double rate = w.spec.open_rate;
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  std::vector<std::thread> threads;
  for (std::size_t j = 0; j < clients.size(); ++j) {
    threads.emplace_back([&, j] {
      std::vector<OpenLoopSample> my_timing;
      std::vector<Sample> my_samples;
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        const double due = DueTime(i, rate);
        if (due >= seconds) break;
        std::this_thread::sleep_until(t0 + Duration(due));
        OpenLoopSample t;
        t.due = due;
        t.sent = SecondsSince(t0);
        Sample s = Send(clients[j].get(), w, i % w.queries.size(), false);
        t.done = SecondsSince(t0);
        my_timing.push_back(t);
        const bool dead = !s.transport_ok;
        my_samples.push_back(std::move(s));
        if (dead) break;
      }
      std::lock_guard<std::mutex> lock(mu);
      timing->insert(timing->end(), my_timing.begin(), my_timing.end());
      for (auto& s : my_samples) samples->push_back(std::move(s));
    });
  }
  for (auto& t : threads) t.join();
}

/// One answer per distinct query over one connection: the recall figures
/// (overall and per selectivity band) and the short-answer count.
void RecallPass(const Workload& w, std::uint16_t port, Report* r) {
  auto c = Client::Connect("127.0.0.1", port);
  r->Check(c.ok(), "connect");
  if (!c.ok()) return;
  double total = 0.0;
  std::size_t short_answers = 0;
  std::vector<double> band_sum(w.spec.bands.size(), 0.0);
  std::vector<double> band_n(w.spec.bands.size(), 0.0);
  for (std::size_t i = 0; i < w.queries.size(); ++i) {
    const Sample s = Send(c->get(), w, i, false);
    const Query& q = w.queries[i];
    const double recall = CheckSample(w, s, r);
    total += recall;
    if (s.rows.size() < kK && q.matching >= kK) ++short_answers;
    if (q.band_index >= 0) {
      band_sum[q.band_index] += recall;
      band_n[q.band_index] += 1;
    }
  }
  const double nq = static_cast<double>(w.queries.size());
  r->Metric("recall_at_10", total / nq);
  r->Metric("exec.short_results_ratio", short_answers / nq);
  const char* band_names[] = {"exec.recall_sel01", "exec.recall_sel10",
                              "exec.recall_sel50"};
  for (std::size_t b = 0; b < band_sum.size() && b < 3; ++b) {
    r->Metric(band_names[b], band_sum[b] / band_n[b]);
  }
}

const char* PlanMetric(vdb::PlanKind kind) {
  switch (kind) {
    case vdb::PlanKind::kBruteForceHybrid:
      return "exec.plan_share.brute_force";
    case vdb::PlanKind::kPreFilterIndexScan:
      return "exec.plan_share.pre_filter";
    case vdb::PlanKind::kPostFilterIndexScan:
      return "exec.plan_share.post_filter";
    case vdb::PlanKind::kVisitFirstIndexScan:
      return "exec.plan_share.visit_first";
    case vdb::PlanKind::kPartitionPruned:
      return "exec.plan_share.partition_pruned";
  }
  return "exec.plan_share.brute_force";
}

/// Traced run, server idle: times each public call of the query path on
/// the workload's own queries, unloaded. Each layer gets its own sweep over
/// the queries, so no call runs right after another call on the same query
/// (which would find that query's rows in cache); per-call differences
/// still pair up by query.
void Replay(const Workload& w, vdb::Database* db, vdb::Collection* coll,
            std::uint16_t port, Report* r) {
  auto client = Client::Connect("127.0.0.1", port);
  r->Check(client.ok(), "connect");
  if (!client.ok()) return;
  const std::size_t nq = w.queries.size();
  const std::size_t calls = (kReplayCalls + nq - 1) / nq * nq;
  auto sweep = [&](auto&& call) {
    std::vector<double> us;
    for (std::size_t i = 0; i < calls; ++i) {
      us.push_back(1e6 * Seconds([&] { call(i % nq, i < nq); }));
    }
    return us;
  };
  std::vector<vdb::ParsedQuery> parsed(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    auto p = vdb::ParseQuery(w.queries[q].text);
    r->Check(p.ok(), "parse");
    if (p.ok()) parsed[q] = std::move(*p);
  }
  auto vec = [&](std::size_t q) {
    return vdb::VectorView(parsed[q].query_vector.data(),
                           parsed[q].query_vector.size());
  };

  double ndis = 0, hops = 0, nodes = 0, bitmask = 0, checks = 0;
  double req_bytes = 0, resp_bytes = 0;
  std::map<std::string, double> plans;
  std::vector<vdb::Neighbor> out;
  const auto parse_us = sweep([&](std::size_t q, bool) {
    r->Check(vdb::ParseQuery(w.queries[q].text).ok(), "parse");
  });
  const auto knn_us = sweep([&](std::size_t q, bool first) {
    vdb::SearchStats st;
    r->Check(coll->Knn(vec(q), kK, &out, &st).ok(), "knn");
    if (!first) return;
    ndis += st.distance_comps;
    hops += st.hops;
    nodes += st.nodes_visited;
  });
  std::vector<double> explain_us, hybrid_us;
  if (w.filtered()) {
    explain_us = sweep([&](std::size_t q, bool first) {
      auto plan = coll->ExplainHybrid(parsed[q].predicate);
      r->Check(plan.ok(), "explain");
      if (first && plan.ok()) plans[PlanMetric(plan->kind)] += 1;
    });
    hybrid_us = sweep([&](std::size_t q, bool first) {
      vdb::ExecStats es;
      r->Check(coll->Hybrid(vec(q), parsed[q].predicate, kK, &out, &es).ok(),
               "hybrid");
      if (!first) return;
      bitmask += es.bitmask_rows;
      checks += es.search.filter_checks;
    });
  }
  const auto exec_us = sweep([&](std::size_t q, bool) {
    r->Check(vdb::ExecuteQueryTraced(db, w.queries[q].text).ok(), "execute");
  });
  const auto wire_us = sweep([&](std::size_t q, bool) {
    auto resp = (*client)->Query(w.queries[q].text, "", 0);
    r->Check(resp.ok() && resp->status == WireStatus::kOk, "wire replay");
    if (!resp.ok()) return;
    std::vector<std::uint8_t> frame;
    vdb::net::EncodeResponse(*resp, &frame);
    resp_bytes += static_cast<double>(frame.size());
  });
  for (std::size_t i = 0; i < calls; ++i) {
    vdb::net::Request req;
    req.text = w.queries[i % nq].text;
    std::vector<std::uint8_t> frame;
    vdb::net::EncodeRequest(req, &frame);
    req_bytes += static_cast<double>(frame.size());
  }

  const double n = static_cast<double>(nq);
  r->Metric("parse.p50_us", Median(parse_us));
  r->Metric("index.search_p50_us", Median(knn_us));
  r->Metric("index.ndis_per_query", ndis / n);
  r->Metric("index.hops_per_query", hops / n);
  r->Metric("index.nodes_visited_per_query", nodes / n);
  // Self times are medians of per-call differences over the same queries.
  const std::vector<double>& search_us = w.filtered() ? hybrid_us : knn_us;
  std::vector<double> exec_self, net_self;
  for (std::size_t i = 0; i < calls; ++i) {
    exec_self.push_back(exec_us[i] - parse_us[i] - search_us[i]);
    net_self.push_back(wire_us[i] - exec_us[i]);
  }
  r->Metric("exec.self_p50_us", Median(exec_self));
  r->Metric("net.self_p50_us", Median(net_self));
  r->Metric("net.request_bytes_per_query", req_bytes / calls);
  r->Metric("net.response_bytes_per_query", resp_bytes / calls);
  if (w.filtered()) {
    r->Metric("exec.explain_p50_us", Median(explain_us));
    r->Metric("exec.hybrid_p50_us", Median(hybrid_us));
    r->Metric("exec.bitmask_rows_per_query", bitmask / n);
    r->Metric("exec.filter_checks_per_query", checks / n);
    for (const auto& [name, count] : plans) r->Metric(name, count / n);
  }
}

/// Restart of the served collection: checkpoint plus index snapshot, then
/// Restore + LoadIndexSnapshot, checked against the live collection.
void Restart(const Workload& w, const vdb::Collection& live,
             const std::string& workdir, Report* r) {
  const std::string dir = workdir + "/served";
  std::filesystem::create_directories(dir);
  const std::string ckpt = dir + "/checkpoint.vdb";
  const std::string index = dir + "/index.vdb";
  r->Metric("checkpoint.s", Seconds([&] {
              r->Check(live.Checkpoint(ckpt).ok(), "checkpoint");
              r->Check(live.SaveIndexSnapshot(index).ok(), "index snapshot");
            }));
  const double bytes = static_cast<double>(DirBytes(dir));
  r->Metric("checkpoint.bytes", bytes);
  const double user_bytes = static_cast<double>(w.spec.n) *
                            (w.spec.dim * sizeof(float) +
                             (w.filtered() ? sizeof(double) : 0));
  r->Metric("bytes_per_user_byte", bytes / user_bytes);

  std::vector<double> total, restore, load;
  for (int i = 0; i < kRestarts; ++i) {
    std::unique_ptr<vdb::Collection> c;
    const auto t0 = Clock::now();
    restore.push_back(Seconds([&] {
      auto restored = vdb::Collection::Restore(CollectionOptionsFor(w), ckpt);
      r->Check(restored.ok(), "restore");
      if (restored.ok()) c = std::move(*restored);
    }));
    if (c == nullptr) continue;
    load.push_back(Seconds([&] {
      r->Check(c->LoadIndexSnapshot(index).ok(), "load index snapshot");
    }));
    total.push_back(SecondsSince(t0));
    r->Check(c->Size() == w.spec.n, "restored row count");
    for (std::size_t q = 0; q < 20 && q < w.queries.size(); ++q) {
      const vdb::VectorView v(w.queries[q].vec.data(), w.spec.dim);
      std::vector<vdb::Neighbor> a, b;
      r->Check(live.Knn(v, kK, &a).ok() && c->Knn(v, kK, &b).ok() && a == b,
               "restored collection answers as the live one");
    }
  }
  r->Metric("recover_s", Median(total));
  r->Metric("recovery.restore_s", Median(restore));
  r->Metric("recovery.index_load_s", Median(load));
  r->Metric("recovery.index_from_snapshot",
            static_cast<double>(load.size()) / kRestarts);
  std::filesystem::remove_all(dir);
}

/// Serves `db` with the benchmark's server options; null on failure.
std::unique_ptr<vdb::net::Server> StartServer(vdb::Database* db, Report* r) {
  vdb::net::ServerOptions so;
  so.num_workers = kServerWorkers;
  // Quotas far above capacity: the benchmark measures serving, and any
  // throttled answer would count as a failure.
  so.admission.default_quota.tokens_per_sec = 1e9;
  so.admission.default_quota.burst = 1e9;
  so.admission.default_quota.max_in_flight = 1u << 20;
  so.admission.max_queue_depth = 1u << 16;
  auto started = vdb::net::Server::Start(db, so);
  r->Check(started.ok(), "server start");
  if (!started.ok()) return nullptr;
  return std::move(*started);
}

}  // namespace

void RunServed(const Args& args, Report* r) {
  const Workload w = MakeWorkload(args.workload, args.seed, r);

  // Closed and open phases alternate in short rounds, so both sample the
  // whole run rather than one half of the host's slow drift each. The
  // set-ups are spread across the run the same way: each set-up is served
  // for its share of the rounds, then dropped before the next one, so one
  // collection is alive at a time. A traced run adds a closed phase with
  // the wire trace flag to every round. The host-noise gate then keeps the
  // set-ups and rounds the hypervisor left alone.
  struct Round {
    std::vector<double> rates, traced_rates;
    std::vector<OpenLoopSample> open;
    double steal = 0;
  };
  const double chunk = args.seconds / (2.0 * kRounds);
  SetupTimes setups;
  std::vector<double> insert_us;
  std::vector<Sample> samples;
  std::vector<Round> rounds(kRounds);
  std::unique_ptr<vdb::Database> db;
  vdb::Collection* coll = nullptr;
  HostWitness witness;
  witness.Start();
  for (std::size_t s = 0; s < kSetups; ++s) {
    db.reset();
    setups.Run([&] {
      db = std::make_unique<vdb::Database>();
      return Setup(w, db.get(), r->trace() ? &insert_us : nullptr, r);
    });
    auto got = db->GetCollection(kCollection);
    r->Check(got.ok(), "collection exists");
    if (!got.ok()) return;
    coll = *got;
    std::unique_ptr<vdb::net::Server> server = StartServer(db.get(), r);
    if (server == nullptr) return;
    const std::uint16_t port = server->port();
    if (s == 0) RecallPass(w, port, r);
    for (std::size_t i = s * kRounds / kSetups; i < (s + 1) * kRounds / kSetups;
         ++i) {
      Round& round = rounds[i];
      const CpuTimes t0 = ReadCpuTimes();
      round.rates = RunClosed(w, port, chunk, false, &samples, r);
      if (r->trace()) {
        round.traced_rates = RunClosed(w, port, chunk, true, &samples, r);
      }
      RunOpen(w, port, chunk, &round.open, &samples, r);
      round.steal = StealRatio(t0, ReadCpuTimes());
    }
    if (s + 1 == kSetups && r->trace()) {
      witness.Stop();
      Replay(w, db.get(), coll, port, r);
    }
    const vdb::net::DrainReport drain = server->Shutdown();
    r->Check(drain.clean, "clean server drain");
  }
  witness.Stop();
  VerifySamples(w, samples, r);

  std::size_t dropped = 0;
  r->Metric("setup_s", setups.QuietMedian(&dropped));
  r->Metric("index.insert_p50_us", Median(insert_us));
  r->Metric("index.memory_mb", coll->MemoryBytes() / (1024.0 * 1024.0));
  std::vector<double> steal, rates, traced_rates;
  std::vector<OpenLoopSample> open_timing;
  for (const Round& round : rounds) steal.push_back(round.steal);
  const auto quiet = KeepQuietest(steal, kMaxSteal, kKeepRounds);
  for (std::size_t i : quiet) {
    const Round& round = rounds[i];
    rates.insert(rates.end(), round.rates.begin(), round.rates.end());
    traced_rates.insert(traced_rates.end(), round.traced_rates.begin(),
                        round.traced_rates.end());
    open_timing.insert(open_timing.end(), round.open.begin(), round.open.end());
  }
  const double qps = Median(rates);
  const OpenLoopSummary open = SummarizeOpenLoop(open_timing);
  dropped += kRounds - quiet.size();
  r->Metric("host.units_dropped", static_cast<double>(dropped));
  r->Metric("throughput_per_s", qps);
  r->Metric("latency_p50_ms", open.p50_ms);
  r->Metric("gen.query_p99_ms", open.p99_ms);
  r->Metric("gen.samples", static_cast<double>(open.samples));
  r->Metric("gen.late_max_ms", open.late_max_ms);
  r->Metric("host.timer_late_p99_ms", witness.late_p99_ms());
  r->Metric("host.steal_ratio", witness.steal_ratio());
  std::fprintf(stderr,
               "%s: qps_max %.1f  open p50 %.3f ms p99 %.3f ms (n=%zu, "
               "p99 %s, late max %.2f ms)  host: steal %.4f, timer late p99 "
               "%.3f ms, %zu of %zu rounds kept\n",
               args.workload.c_str(), qps, open.p50_ms, open.p99_ms,
               open.samples, open.p99_supported ? "supported" : "unsupported",
               open.late_max_ms, witness.steal_ratio(), witness.late_p99_ms(),
               quiet.size(), kRounds);

  if (r->trace()) {
    r->Metric("trace.overhead_ratio", Median(traced_rates) / qps);
    r->Metric("simd.l2_ns_per_row",
              L2NsPerRow(w.data, w.queries[0].vec.data(), args.seed));
  }
  r->Metric("rss_mb", PeakRssMb());

  Restart(w, *coll, args.workdir, r);
}

}  // namespace perfbench
