// Tests for the query processor: predicate evaluation & selectivity,
// hybrid plans (all strategies agree at generous knobs; post-filter
// deficit), plan enumeration, rule- and cost-based optimizers, offline
// partitioning, batched execution, and multi-vector aggregate search.

#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/eval.h"
#include "core/rng.h"
#include "core/synthetic.h"
#include "core/topk.h"
#include "exec/batch.h"
#include "exec/executor.h"
#include "exec/multivector.h"
#include "exec/optimizer.h"
#include "exec/partitioned_index.h"
#include "exec/predicate.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"

namespace vdb {
namespace {

std::int64_t I(int v) { return static_cast<std::int64_t>(v); }

// Shared hybrid fixture: clustered vectors with a correlated categorical
// column and an independent numeric column.
struct HybridFixture {
  FloatMatrix data;
  FloatMatrix queries;
  VectorStore vectors{16};
  AttributeStore attrs;
  std::unique_ptr<HnswIndex> index;
  std::unique_ptr<IvfFlatIndex> ivf;
  std::unique_ptr<AttributePartitionedIndex> partitioned;
  Scorer scorer;
  std::vector<std::int64_t> cluster_attr;

  /// Fixture setup is fatal-on-error: a half-built fixture would fail
  /// every test with misleading symptoms.
  static void Must(const Status& st) {
    if (!st.ok()) {
      std::fprintf(stderr, "HybridFixture: %s\n", st.ToString().c_str());
      std::abort();
    }
  }

  HybridFixture() {
    SyntheticOptions opts;
    opts.n = 2000;
    opts.dim = 16;
    opts.num_clusters = 8;
    opts.seed = 13;
    auto workload = MakeHybridWorkload(opts);
    data = std::move(workload.vectors);
    cluster_attr = workload.cluster_attr;
    queries = PerturbedQueries(data, 20, 0.02f, 3);
    scorer = Scorer::Create(MetricSpec::L2(), 16).value();

    Must(attrs.AddColumn("cluster", AttrType::kInt64));
    Must(attrs.AddColumn("score", AttrType::kDouble));
    Must(attrs.AddColumn("tag", AttrType::kString));
    for (std::size_t i = 0; i < data.rows(); ++i) {
      Must(vectors.Put(i, data.row(i)));
      Must(attrs.PutRow(
          i, {{"cluster", workload.cluster_attr[i]},
              {"score", workload.uniform_attr[i]},
              {"tag", std::string(i % 3 == 0 ? "hot" : "cold")}}));
    }
    HnswOptions ho;
    ho.ef_construction = 64;
    index = std::make_unique<HnswIndex>(ho);
    Must(index->Build(data, {}));

    IvfOptions io;
    io.nlist = 32;
    ivf = std::make_unique<IvfFlatIndex>(io);
    Must(ivf->Build(data, {}));

    IndexFactory factory = [] {
      HnswOptions o;
      o.m = 8;
      o.ef_construction = 48;
      return std::make_unique<HnswIndex>(o);
    };
    auto built = AttributePartitionedIndex::Build(
        data, {}, workload.cluster_attr, factory, "cluster");
    partitioned = std::move(built).value();
  }

  CollectionView View() const {
    return {&vectors, &attrs, index.get(), partitioned.get(), &scorer};
  }
  /// View backed by the IVF index — the natural carrier for bitmask
  /// (block-first) filtering, where blocking skips scoring but cannot
  /// damage traversal structure.
  CollectionView ViewIvf() const {
    return {&vectors, &attrs, ivf.get(), partitioned.get(), &scorer};
  }
};

const HybridFixture& Fixture() {
  static const HybridFixture* fx = new HybridFixture();
  return *fx;
}

// -------------------------------------------------------------- Predicate

TEST(PredicateTest, CmpEvaluateAndMatch) {
  const auto& fx = Fixture();
  auto pred = Predicate::Cmp("cluster", CmpOp::kEq, I(3));
  auto bits = pred.Evaluate(fx.attrs);
  ASSERT_TRUE(bits.ok());
  std::size_t expected = 0;
  for (auto c : fx.cluster_attr) expected += c == 3;
  EXPECT_EQ(bits->Count(), expected);
  for (std::size_t i = 0; i < 50; ++i) {
    auto m = pred.MatchesRow(fx.attrs, i);
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(*m, fx.cluster_attr[i] == 3);
  }
}

TEST(PredicateTest, BooleanCombinations) {
  const auto& fx = Fixture();
  auto a = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  auto b = Predicate::Cmp("tag", CmpOp::kEq, std::string("hot"));
  auto both = Predicate::And(a, b);
  auto either = Predicate::Or(a, b);
  auto neither = Predicate::Not(either);
  auto ba = both.Evaluate(fx.attrs);
  auto be = either.Evaluate(fx.attrs);
  auto bn = neither.Evaluate(fx.attrs);
  ASSERT_TRUE(ba.ok() && be.ok() && bn.ok());
  EXPECT_LE(ba->Count(), be->Count());
  EXPECT_EQ(bn->Count(), fx.attrs.NumRows() - be->Count());
  // Spot-check row semantics.
  for (std::size_t i = 0; i < 100; ++i) {
    bool in_a = fx.cluster_attr[i] == 1;
    bool in_b = i % 3 == 0;
    EXPECT_EQ(ba->Test(i), in_a && in_b);
    EXPECT_EQ(be->Test(i), in_a || in_b);
  }
}

TEST(PredicateTest, BetweenAndIn) {
  const auto& fx = Fixture();
  auto between = Predicate::Between("score", 0.2, 0.4);
  auto bits = between.Evaluate(fx.attrs);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < 200; ++i) {
    double v = std::get<double>(*fx.attrs.Get(i, "score"));
    EXPECT_EQ(bits->Test(i), v >= 0.2 && v <= 0.4) << i;
  }
  auto in = Predicate::In("cluster", {AttrValue(I(0)), AttrValue(I(7))});
  auto ibits = in.Evaluate(fx.attrs);
  ASSERT_TRUE(ibits.ok());
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_EQ(ibits->Test(i),
              fx.cluster_attr[i] == 0 || fx.cluster_attr[i] == 7);
  }
}

TEST(PredicateTest, NumericPromotionInt64VsDouble) {
  const auto& fx = Fixture();
  auto pred = Predicate::Cmp("cluster", CmpOp::kLe, 3.5);
  auto bits = pred.Evaluate(fx.attrs);
  ASSERT_TRUE(bits.ok());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(bits->Test(i), fx.cluster_attr[i] <= 3);
  }
}

TEST(PredicateTest, TypeMismatchReported) {
  const auto& fx = Fixture();
  auto pred = Predicate::Cmp("tag", CmpOp::kEq, I(5));
  EXPECT_FALSE(pred.MatchesRow(fx.attrs, 0).ok());
  auto missing = Predicate::Cmp("nope", CmpOp::kEq, I(5));
  EXPECT_FALSE(missing.Evaluate(fx.attrs).ok());
}

TEST(PredicateTest, SelectivityEstimates) {
  const auto& fx = Fixture();
  // cluster = c: 8 clusters, ~1/8 each.
  auto eq = Predicate::Cmp("cluster", CmpOp::kEq, I(2));
  auto s_eq = eq.EstimateSelectivity(fx.attrs);
  ASSERT_TRUE(s_eq.ok());
  EXPECT_NEAR(*s_eq, 1.0 / 8.0, 0.02);
  // score <= 0.25 over uniform [0,1): ~0.25 via histogram.
  auto range = Predicate::Cmp("score", CmpOp::kLe, 0.25);
  auto s_range = range.EstimateSelectivity(fx.attrs);
  ASSERT_TRUE(s_range.ok());
  EXPECT_NEAR(*s_range, 0.25, 0.05);
  // BETWEEN avoids the independence penalty.
  auto between = Predicate::Between("score", 0.2, 0.7);
  auto s_btw = between.EstimateSelectivity(fx.attrs);
  ASSERT_TRUE(s_btw.ok());
  EXPECT_NEAR(*s_btw, 0.5, 0.08);
  // TRUE is 1.
  EXPECT_DOUBLE_EQ(*Predicate::True().EstimateSelectivity(fx.attrs), 1.0);
}

TEST(PredicateTest, ToStringRoundTripsShape) {
  auto pred = Predicate::And(
      Predicate::Cmp("a", CmpOp::kGe, I(3)),
      Predicate::Not(Predicate::In("b", {AttrValue(std::string("x"))})));
  EXPECT_EQ(pred.ToString(), "(a >= 3 AND NOT (b IN ('x')))");
}

// ------------------------------- Column-bound evaluation vs per-row reference

// The per-row semantics predicates had before column binding, kept here as
// the oracle: every leaf fetches an AttrValue through AttributeStore::Get
// and compares variants.
struct RefNode {
  enum Kind { kTrue, kCmp, kIn, kBetween, kAnd, kOr, kNot } kind = kTrue;
  std::string column;
  CmpOp op = CmpOp::kEq;
  std::vector<AttrValue> values;
  std::shared_ptr<RefNode> left, right;
};

Result<int> RefCompare(const AttrValue& stored, const AttrValue& literal) {
  if (stored.index() != literal.index()) {
    if (stored.index() == 2 || literal.index() == 2) {
      return Status::InvalidArgument("type mismatch in predicate");
    }
    double a = stored.index() == 0
                   ? static_cast<double>(std::get<std::int64_t>(stored))
                   : std::get<double>(stored);
    double b = literal.index() == 0
                   ? static_cast<double>(std::get<std::int64_t>(literal))
                   : std::get<double>(literal);
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  return stored < literal ? -1 : (literal < stored ? 1 : 0);
}

bool RefApply(CmpOp op, int cmp) {
  switch (op) {
    case CmpOp::kEq: return cmp == 0;
    case CmpOp::kNe: return cmp != 0;
    case CmpOp::kLt: return cmp < 0;
    case CmpOp::kLe: return cmp <= 0;
    case CmpOp::kGt: return cmp > 0;
    case CmpOp::kGe: return cmp >= 0;
  }
  return false;
}

Result<bool> RefMatches(const RefNode& n, const AttributeStore& attrs,
                        VectorId id) {
  switch (n.kind) {
    case RefNode::kTrue:
      return true;
    case RefNode::kCmp: {
      VDB_ASSIGN_OR_RETURN(AttrValue stored, attrs.Get(id, n.column));
      VDB_ASSIGN_OR_RETURN(int cmp, RefCompare(stored, n.values[0]));
      return RefApply(n.op, cmp);
    }
    case RefNode::kIn: {
      VDB_ASSIGN_OR_RETURN(AttrValue stored, attrs.Get(id, n.column));
      for (const auto& v : n.values) {
        auto cmp = RefCompare(stored, v);
        if (cmp.ok() && *cmp == 0) return true;
      }
      return false;
    }
    case RefNode::kBetween: {
      VDB_ASSIGN_OR_RETURN(AttrValue stored, attrs.Get(id, n.column));
      VDB_ASSIGN_OR_RETURN(int lo, RefCompare(stored, n.values[0]));
      VDB_ASSIGN_OR_RETURN(int hi, RefCompare(stored, n.values[1]));
      return lo >= 0 && hi <= 0;
    }
    case RefNode::kAnd: {
      VDB_ASSIGN_OR_RETURN(bool a, RefMatches(*n.left, attrs, id));
      if (!a) return false;
      return RefMatches(*n.right, attrs, id);
    }
    case RefNode::kOr: {
      VDB_ASSIGN_OR_RETURN(bool a, RefMatches(*n.left, attrs, id));
      if (a) return true;
      return RefMatches(*n.right, attrs, id);
    }
    case RefNode::kNot: {
      VDB_ASSIGN_OR_RETURN(bool a, RefMatches(*n.left, attrs, id));
      return !a;
    }
  }
  return Status::Internal("bad kind");
}

Result<Bitset> RefEvaluate(const RefNode& n, const AttributeStore& attrs) {
  Bitset bits(attrs.NumRows());
  switch (n.kind) {
    case RefNode::kTrue:
      bits.SetAll();
      return bits;
    case RefNode::kAnd:
    case RefNode::kOr: {
      VDB_ASSIGN_OR_RETURN(Bitset a, RefEvaluate(*n.left, attrs));
      VDB_ASSIGN_OR_RETURN(Bitset b, RefEvaluate(*n.right, attrs));
      return n.kind == RefNode::kAnd ? a.And(b) : a.Or(b);
    }
    case RefNode::kNot: {
      VDB_ASSIGN_OR_RETURN(Bitset a, RefEvaluate(*n.left, attrs));
      return a.Not();
    }
    default:
      for (std::size_t row = 0; row < attrs.NumRows(); ++row) {
        VDB_ASSIGN_OR_RETURN(bool m, RefMatches(n, attrs, row));
        if (m) bits.Set(row);
      }
      return bits;
  }
}

Predicate ToPredicate(const RefNode& n) {
  switch (n.kind) {
    case RefNode::kTrue: return Predicate::True();
    case RefNode::kCmp: return Predicate::Cmp(n.column, n.op, n.values[0]);
    case RefNode::kIn: return Predicate::In(n.column, n.values);
    case RefNode::kBetween:
      return Predicate::Between(n.column, n.values[0], n.values[1]);
    case RefNode::kAnd:
      return Predicate::And(ToPredicate(*n.left), ToPredicate(*n.right));
    case RefNode::kOr:
      return Predicate::Or(ToPredicate(*n.left), ToPredicate(*n.right));
    case RefNode::kNot: return Predicate::Not(ToPredicate(*n.left));
  }
  return Predicate::True();
}

// Values chosen to hit the edges of promotion and three-way comparison:
// NaN, signed zeros, infinities, and int64s that do not round-trip
// through double.
const double kNan = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();
const std::int64_t kBig = (std::int64_t{1} << 53) + 1;

AttrValue RandomValue(Rng& rng, AttrType type) {
  static const std::int64_t ints[] = {-3, -1, 0, 1, 2, 3, kBig, kBig - 1,
                                      std::numeric_limits<std::int64_t>::max(),
                                      std::numeric_limits<std::int64_t>::min()};
  static const double doubles[] = {-1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.0,
                                   kNan, kInf, -kInf, 9007199254740992.0};
  static const char* strings[] = {"", "a", "ab", "b", "zz"};
  switch (type) {
    case AttrType::kInt64: return ints[rng.Next(std::size(ints))];
    case AttrType::kDouble: return doubles[rng.Next(std::size(doubles))];
    case AttrType::kString:
      return std::string(strings[rng.Next(std::size(strings))]);
  }
  return std::int64_t{0};
}

std::shared_ptr<RefNode> RandomPredicate(Rng& rng, int depth) {
  auto node = std::make_shared<RefNode>();
  const std::uint64_t pick = rng.Next(depth > 0 ? 10 : 6);
  if (pick >= 7) {
    node->kind = pick == 7 ? RefNode::kAnd : (pick == 8 ? RefNode::kOr
                                                        : RefNode::kNot);
    node->left = RandomPredicate(rng, depth - 1);
    if (node->kind != RefNode::kNot) {
      node->right = RandomPredicate(rng, depth - 1);
    }
    return node;
  }
  if (pick == 6) {
    node->kind = RefNode::kTrue;
    return node;
  }
  // Mostly literals of the column's own type, sometimes any type — the
  // wrong-type cases exercise promotion, IN skipping and errors.
  static const char* columns[] = {"i", "d", "s", "missing"};
  static const AttrType types[] = {AttrType::kInt64, AttrType::kDouble,
                                   AttrType::kString, AttrType::kInt64};
  const std::size_t c = rng.Next(20) == 0 ? 3 : rng.Next(3);
  node->column = columns[c];
  auto literal = [&] {
    AttrType t = rng.Next(3) == 0 ? static_cast<AttrType>(rng.Next(3))
                                  : types[c];
    return RandomValue(rng, t);
  };
  if (pick <= 2) {
    node->kind = RefNode::kCmp;
    node->op = static_cast<CmpOp>(rng.Next(6));
    node->values = {literal()};
  } else if (pick <= 4) {
    node->kind = RefNode::kIn;
    for (std::uint64_t v = rng.Next(4); v > 0; --v) {
      node->values.push_back(literal());
    }
  } else {
    node->kind = RefNode::kBetween;
    node->values = {literal(), literal()};
  }
  return node;
}

AttributeStore RandomStore(Rng& rng, std::size_t rows) {
  AttributeStore attrs;
  EXPECT_TRUE(attrs.AddColumn("i", AttrType::kInt64).ok());
  EXPECT_TRUE(attrs.AddColumn("d", AttrType::kDouble).ok());
  EXPECT_TRUE(attrs.AddColumn("s", AttrType::kString).ok());
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_TRUE(attrs
                    .PutRow(r, {{"i", RandomValue(rng, AttrType::kInt64)},
                                {"d", RandomValue(rng, AttrType::kDouble)},
                                {"s", RandomValue(rng, AttrType::kString)}})
                    .ok());
  }
  return attrs;
}

void ExpectSameStatus(const Status& bound, const Status& ref,
                      const std::string& where) {
  EXPECT_EQ(bound.code(), ref.code()) << where;
  EXPECT_EQ(bound.message(), ref.message()) << where;
}

TEST(BoundPredicateTest, MatchesPerRowReferenceOnRandomPredicates) {
  Rng rng(2024);
  for (std::size_t rows : {std::size_t{0}, std::size_t{1}, std::size_t{97}}) {
    AttributeStore attrs = RandomStore(rng, rows);
    for (int trial = 0; trial < 600; ++trial) {
      auto ref = RandomPredicate(rng, 3);
      Predicate pred = ToPredicate(*ref);
      const std::string where = pred.ToString() + " rows=" +
                                std::to_string(rows);

      auto want_bits = RefEvaluate(*ref, attrs);
      auto got_bits = pred.Evaluate(attrs);
      ExpectSameStatus(got_bits.status(), want_bits.status(), where);
      if (want_bits.ok() && got_bits.ok()) {
        ASSERT_EQ(got_bits->size(), want_bits->size()) << where;
        for (std::size_t r = 0; r < rows; ++r) {
          ASSERT_EQ(got_bits->Test(r), want_bits->Test(r)) << where << " @" << r;
        }
      }

      // Per-row paths, past the last row too (OutOfRange).
      BoundPredicate bound(pred, attrs);
      PredicateIdFilter filter(&pred, &attrs);
      for (VectorId id = 0; id < rows + 2; ++id) {
        auto want = RefMatches(*ref, attrs, id);
        auto got = bound.Matches(id);
        auto via_pred = pred.MatchesRow(attrs, id);
        ExpectSameStatus(got.status(), want.status(), where);
        ExpectSameStatus(via_pred.status(), want.status(), where);
        if (want.ok() && got.ok() && via_pred.ok()) {
          ASSERT_EQ(*got, *want) << where << " @" << id;
          ASSERT_EQ(*via_pred, *want) << where << " @" << id;
        }
        ASSERT_EQ(filter.Matches(id), want.ok() && *want) << where << " @" << id;
      }
    }
  }
}

TEST(BoundPredicateTest, EdgeLiteralsKeepTodaysSemantics) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("d", AttrType::kDouble).ok());
  ASSERT_TRUE(attrs.AddColumn("i", AttrType::kInt64).ok());
  ASSERT_TRUE(attrs.AddColumn("s", AttrType::kString).ok());
  ASSERT_TRUE(attrs.PutRow(0, {{"d", -0.0}, {"i", kBig}}).ok());
  ASSERT_TRUE(attrs.PutRow(1, {{"d", kNan}, {"i", I(3)}}).ok());
  auto row_matches = [&](const Predicate& p, VectorId id) {
    auto m = p.MatchesRow(attrs, id);
    EXPECT_TRUE(m.ok()) << p.ToString();
    return m.ok() && *m;
  };
  // -0.0 == +0.0; NaN compares "equal" to anything in both directions.
  EXPECT_TRUE(row_matches(Predicate::Cmp("d", CmpOp::kEq, 0.0), 0));
  EXPECT_TRUE(row_matches(Predicate::Cmp("d", CmpOp::kEq, 5.0), 1));
  EXPECT_FALSE(row_matches(Predicate::Cmp("d", CmpOp::kLt, kNan), 0));
  EXPECT_TRUE(row_matches(Predicate::Cmp("d", CmpOp::kGe, kNan), 0));
  // int64 vs double compares after promotion (2^53+1 rounds to 2^53).
  EXPECT_TRUE(row_matches(Predicate::Cmp("i", CmpOp::kEq, 9007199254740992.0), 0));
  EXPECT_FALSE(row_matches(Predicate::Cmp("i", CmpOp::kEq, kBig - 1), 0));
  EXPECT_TRUE(row_matches(Predicate::Cmp("d", CmpOp::kEq, I(0)), 0));
  // IN skips literals of the wrong type; Cmp and BETWEEN reject them.
  EXPECT_TRUE(row_matches(
      Predicate::In("i", {AttrValue(std::string("x")), AttrValue(3.0)}), 1));
  EXPECT_EQ(Predicate::Cmp("s", CmpOp::kEq, I(1)).MatchesRow(attrs, 0)
                .status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Predicate::Between("i", I(0), std::string("z"))
                .Evaluate(attrs).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Predicate::Cmp("nope", CmpOp::kEq, I(1)).Evaluate(attrs)
                .status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Predicate::Cmp("i", CmpOp::kEq, I(1)).MatchesRow(attrs, 2)
                .status().code(),
            StatusCode::kOutOfRange);
  // Errors surface only where a leaf is evaluated: AND short-circuits.
  auto guarded = Predicate::And(Predicate::Cmp("i", CmpOp::kEq, I(7)),
                                Predicate::Cmp("nope", CmpOp::kEq, I(1)));
  EXPECT_FALSE(row_matches(guarded, 1));
}

// ------------------------------------------------------- Hybrid executor

std::vector<Neighbor> OracleHybrid(const HybridFixture& fx, const float* query,
                                   const Predicate& pred, std::size_t k) {
  TopK top(k);
  for (std::size_t i = 0; i < fx.data.rows(); ++i) {
    auto m = pred.MatchesRow(fx.attrs, i);
    if (!m.ok() || !*m) continue;
    top.Push(i, fx.scorer.Distance(query, fx.data.row(i)));
  }
  return top.Take();
}

class HybridPlanTest : public ::testing::TestWithParam<PlanKind> {};

TEST_P(HybridPlanTest, MatchesOracleAtGenerousKnobs) {
  const auto& fx = Fixture();
  // Pre-filtering runs on the IVF view: bitmask blocking is safe for table
  // indexes but disconnects graph traversal (§2.3's online-blocking
  // hazard), so graph indexes pair with visit-first instead.
  const bool is_prefilter = GetParam() == PlanKind::kPreFilterIndexScan;
  HybridExecutor executor(is_prefilter ? fx.ViewIvf() : fx.View());
  // Predicate uncorrelated with the vector geometry (s ~ 1/3): every plan
  // should reach the oracle at generous knobs. (Geometry-correlated
  // predicates are the pre/post-filter failure mode tested separately.)
  const bool is_partition = GetParam() == PlanKind::kPartitionPruned;
  Predicate pred =
      is_partition ? Predicate::Cmp("cluster", CmpOp::kEq, I(4))
                   : Predicate::Cmp("tag", CmpOp::kEq, std::string("hot"));
  HybridPlan plan{GetParam(), 20.0f};
  SearchParams params;
  params.k = 10;
  params.ef = 400;

  double recall_sum = 0;
  for (std::size_t q = 0; q < fx.queries.rows(); ++q) {
    std::vector<Neighbor> got;
    ExecStats stats;
    ASSERT_TRUE(executor
                    .Execute(plan, pred, fx.queries.row(q), params, &got,
                             &stats)
                    .ok());
    auto oracle = OracleHybrid(fx, fx.queries.row(q), pred, 10);
    // Every returned id must satisfy the predicate.
    for (const auto& nb : got) {
      if (is_partition) {
        EXPECT_EQ(fx.cluster_attr[nb.id], 4) << plan.ToString();
      } else {
        EXPECT_EQ(nb.id % 3, 0u) << plan.ToString();
      }
    }
    recall_sum += RecallAt(got, oracle, 10);
  }
  EXPECT_GE(recall_sum / fx.queries.rows(), 0.9) << plan.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Plans, HybridPlanTest,
    ::testing::Values(PlanKind::kBruteForceHybrid,
                      PlanKind::kPreFilterIndexScan,
                      PlanKind::kPostFilterIndexScan,
                      PlanKind::kVisitFirstIndexScan,
                      PlanKind::kPartitionPruned),
    [](const ::testing::TestParamInfo<PlanKind>& info) {
      switch (info.param) {
        case PlanKind::kBruteForceHybrid: return std::string("brute_force");
        case PlanKind::kPreFilterIndexScan: return std::string("pre_filter");
        case PlanKind::kPostFilterIndexScan: return std::string("post_filter");
        case PlanKind::kVisitFirstIndexScan: return std::string("visit_first");
        case PlanKind::kPartitionPruned: return std::string("partition");
      }
      return std::string("unknown");
    });

TEST(HybridExecutorTest, BruteForceIsExactOracle) {
  const auto& fx = Fixture();
  HybridExecutor executor(fx.View());
  auto pred = Predicate::Cmp("tag", CmpOp::kEq, std::string("hot"));
  SearchParams params;
  params.k = 10;
  std::vector<Neighbor> got;
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kBruteForceHybrid, 3.0f}, pred,
                           fx.queries.row(0), params, &got, nullptr)
                  .ok());
  auto oracle = OracleHybrid(fx, fx.queries.row(0), pred, 10);
  ASSERT_EQ(got.size(), oracle.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, oracle[i].id);
  }
}

TEST(HybridExecutorTest, PostFilterDeficitAtLowAmplification) {
  const auto& fx = Fixture();
  HybridExecutor executor(fx.View());
  // ~1/24 selectivity (one cluster AND hot tag).
  auto pred =
      Predicate::And(Predicate::Cmp("cluster", CmpOp::kEq, I(2)),
                     Predicate::Cmp("tag", CmpOp::kEq, std::string("hot")));
  SearchParams params;
  params.k = 10;
  params.ef = 64;
  std::vector<Neighbor> got;
  ExecStats stats;
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kPostFilterIndexScan, 1.5f}, pred,
                           fx.queries.row(0), params, &got, &stats)
                  .ok());
  EXPECT_LT(got.size(), 10u);  // the deficit the paper warns about
}

TEST(HybridExecutorTest, ExecStatsExposeOperatorCosts) {
  const auto& fx = Fixture();
  HybridExecutor executor(fx.View());
  auto pred = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  SearchParams params;
  params.k = 10;
  params.ef = 64;

  ExecStats pre;
  std::vector<Neighbor> got;
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kPreFilterIndexScan, 3.0f}, pred,
                           fx.queries.row(0), params, &got, &pre)
                  .ok());
  EXPECT_EQ(pre.bitmask_rows, fx.attrs.NumRows());
  EXPECT_GT(pre.matching_rows, 0u);

  ExecStats visit;
  ASSERT_TRUE(executor
                  .Execute({PlanKind::kVisitFirstIndexScan, 3.0f}, pred,
                           fx.queries.row(0), params, &got, &visit)
                  .ok());
  EXPECT_EQ(visit.bitmask_rows, 0u);        // no bitmask built
  EXPECT_GT(visit.search.filter_checks, 0u);  // per-row probes instead
}

TEST(PartitionedIndexTest, EqualityPruningIsExactWithinPartition) {
  const auto& fx = Fixture();
  SearchParams params;
  params.k = 5;
  params.ef = 400;
  std::vector<Neighbor> got;
  ASSERT_TRUE(
      fx.partitioned->Search(3, fx.queries.row(1), params, &got).ok());
  for (const auto& nb : got) EXPECT_EQ(fx.cluster_attr[nb.id], 3);
  // Unknown partition value: empty, not an error.
  ASSERT_TRUE(
      fx.partitioned->Search(999, fx.queries.row(1), params, &got).ok());
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(fx.partitioned->num_partitions(), 8u);
}

// -------------------------------------------------------------- Optimizer

TEST(EnumerationTest, PlanSpaceTracksAvailability) {
  const auto& fx = Fixture();
  auto eq = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  auto plans = EnumeratePlans(fx.View(), eq);
  EXPECT_EQ(plans.size(), 5u);  // all plans incl. partition-pruned

  CollectionView no_index = fx.View();
  no_index.index = nullptr;
  no_index.partitioned = nullptr;
  EXPECT_EQ(EnumeratePlans(no_index, eq).size(), 1u);

  // Partition pruning only offered for equality on the partition column.
  auto range = Predicate::Cmp("score", CmpOp::kLe, 0.5);
  EXPECT_EQ(EnumeratePlans(fx.View(), range).size(), 4u);
}

TEST(RuleBasedOptimizerTest, SelectivityThresholds) {
  const auto& fx = Fixture();
  RuleBasedOptimizer optimizer;
  SearchParams params;
  params.k = 10;
  // Very selective: one cluster AND narrow range -> brute force.
  auto narrow =
      Predicate::And(Predicate::Cmp("cluster", CmpOp::kEq, I(0)),
                     Predicate::Cmp("score", CmpOp::kLe, 0.05));
  auto plan = optimizer.Choose(narrow, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kBruteForceHybrid);
  // Permissive: score <= 0.9 -> post-filter.
  auto wide = Predicate::Cmp("score", CmpOp::kLe, 0.9);
  plan = optimizer.Choose(wide, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kPostFilterIndexScan);
  // Middle band -> pre-filter.
  auto mid = Predicate::Cmp("cluster", CmpOp::kEq, I(1));
  plan = optimizer.Choose(mid, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kPreFilterIndexScan);
}

TEST(CostBasedOptimizerTest, CostOrderingMatchesIntuition) {
  CostBasedOptimizer optimizer;
  SearchParams params;
  params.k = 10;
  params.ef = 64;
  const std::size_t n = 100000;
  // At tiny selectivity, brute-forcing the matches is cheapest.
  HybridPlan brute{PlanKind::kBruteForceHybrid, 3.0f};
  HybridPlan visit{PlanKind::kVisitFirstIndexScan, 3.0f};
  HybridPlan post{PlanKind::kPostFilterIndexScan, 3.0f};
  EXPECT_LT(optimizer.EstimateCost(brute, 0.001, n, params),
            optimizer.EstimateCost(visit, 0.001, n, params));
  // At high selectivity, index plans beat brute force.
  EXPECT_LT(optimizer.EstimateCost(post, 0.9, n, params),
            optimizer.EstimateCost(brute, 0.9, n, params));
  // Deficit penalty: post-filter with tiny amplification at low
  // selectivity costs more than with adequate amplification.
  HybridPlan post_small{PlanKind::kPostFilterIndexScan, 1.0f};
  HybridPlan post_big{PlanKind::kPostFilterIndexScan, 20.0f};
  double cost_small = optimizer.EstimateCost(post_small, 0.05, n, params);
  double cost_big = optimizer.EstimateCost(post_big, 0.05, n, params);
  // The small-a plan misses most of k: penalized.
  EXPECT_GT(cost_small / optimizer.EstimateCost(post_small, 1.0, n, params),
            1.5);
  (void)cost_big;
}

TEST(CostBasedOptimizerTest, ChoosesReasonablePlansAcrossSelectivities) {
  const auto& fx = Fixture();
  CostBasedOptimizer optimizer;
  SearchParams params;
  params.k = 10;
  params.ef = 64;
  // Tiny selectivity -> brute force over matches.
  auto narrow =
      Predicate::And(Predicate::Cmp("cluster", CmpOp::kEq, I(0)),
                     Predicate::Cmp("score", CmpOp::kLe, 0.02));
  auto plan = optimizer.Choose(narrow, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kBruteForceHybrid);
  // Equality on the partition column -> partition pruning wins.
  auto eq = Predicate::Cmp("cluster", CmpOp::kEq, I(3));
  plan = optimizer.Choose(eq, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kind, PlanKind::kPartitionPruned);
  // Permissive range -> an index plan, never brute force.
  auto wide = Predicate::Cmp("score", CmpOp::kLe, 0.95);
  plan = optimizer.Choose(wide, fx.View(), params);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->kind, PlanKind::kBruteForceHybrid);
}

// ------------------------------------------------------------------ Batch

TEST(BatchTest, IvfBucketMajorMatchesSequential) {
  const auto& fx = Fixture();
  IvfOptions o;
  o.nlist = 32;
  IvfFlatIndex ivf(o);
  ASSERT_TRUE(ivf.Build(fx.data, {}).ok());
  SearchParams params;
  params.k = 10;
  params.nprobe = 8;
  std::vector<std::vector<Neighbor>> batch, seq;
  ASSERT_TRUE(ivf.BatchSearch(fx.queries, params, &batch).ok());
  ASSERT_TRUE(SequentialBatch(ivf, fx.queries, params, &seq).ok());
  ASSERT_EQ(batch.size(), seq.size());
  for (std::size_t q = 0; q < batch.size(); ++q) {
    ASSERT_EQ(batch[q].size(), seq[q].size());
    for (std::size_t i = 0; i < batch[q].size(); ++i) {
      EXPECT_EQ(batch[q][i].id, seq[q][i].id);
    }
  }
}

TEST(BatchTest, SharedEntrySkipsDescentHops) {
  const auto& fx = Fixture();
  SearchParams params;
  params.k = 10;
  params.ef = 48;
  std::vector<std::vector<Neighbor>> shared, seq;
  SearchStats shared_stats, seq_stats;
  ASSERT_TRUE(SharedEntryBatch(*fx.index, fx.queries, params, &shared,
                               &shared_stats)
                  .ok());
  ASSERT_TRUE(
      SequentialBatch(*fx.index, fx.queries, params, &seq, &seq_stats).ok());
  // Same quality ballpark...
  auto scorer = Scorer::Create(MetricSpec::L2(), 16).value();
  auto truth = GroundTruth(fx.data, fx.queries, scorer, 10);
  EXPECT_GE(MeanRecall(shared, truth, 10), MeanRecall(seq, truth, 10) - 0.05);
  // ...with fewer distance computations (no hierarchy descent).
  EXPECT_LT(shared_stats.distance_comps, seq_stats.distance_comps);
}

// ------------------------------------------------------------ Multivector

TEST(MultiVectorTest, AggregateSearchFindsPlantedEntity) {
  // 100 entities x 4 vectors; entity e's vectors cluster around center_e.
  Rng rng(21);
  const std::size_t entities = 100, per_entity = 4, dim = 8;
  FloatMatrix all(entities * per_entity, dim);
  FloatMatrix centers(entities, dim);
  for (std::size_t e = 0; e < entities; ++e) {
    for (std::size_t j = 0; j < dim; ++j)
      centers.at(e, j) = rng.NextFloat(0.0f, 10.0f);
    for (std::size_t v = 0; v < per_entity; ++v) {
      for (std::size_t j = 0; j < dim; ++j) {
        all.at(e * per_entity + v, j) =
            centers.at(e, j) + 0.05f * rng.NextGaussian();
      }
    }
  }
  FlatIndex index;
  ASSERT_TRUE(index.Build(all, {}).ok());
  auto scorer = Scorer::Create(MetricSpec::L2(), dim).value();

  MultiVectorSearcher searcher(
      &index, &scorer,
      [&](VectorId vid) { return vid / per_entity; },
      [&](VectorId entity) {
        std::vector<VectorView> views;
        for (std::size_t v = 0; v < per_entity; ++v) {
          views.push_back(all.row_view(entity * per_entity + v));
        }
        return views;
      });

  // Query: two perturbed vectors of entity 42.
  FloatMatrix query(2, dim);
  for (std::size_t j = 0; j < dim; ++j) {
    query.at(0, j) = all.at(42 * per_entity + 0, j) + 0.01f;
    query.at(1, j) = all.at(42 * per_entity + 1, j) - 0.01f;
  }
  auto agg = Aggregator::Create(AggregateKind::kMean).value();
  SearchParams params;
  params.k = 10;
  std::vector<Neighbor> got;
  ASSERT_TRUE(searcher.Search(query, agg, 5, params, &got).ok());
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0].id, 42u);

  // Approximate search agrees with the exact oracle on top-1.
  std::vector<VectorId> all_entities(entities);
  for (std::size_t e = 0; e < entities; ++e) all_entities[e] = e;
  std::vector<Neighbor> exact;
  ASSERT_TRUE(searcher.Exact(query, agg, all_entities, 5, &exact).ok());
  EXPECT_EQ(exact[0].id, got[0].id);
  EXPECT_FLOAT_EQ(exact[0].dist, got[0].dist);
}

TEST(MultiVectorTest, AggregatorKindsChangeRanking) {
  // Entity A matches query vector 0 perfectly but vector 1 badly; entity B
  // is mediocre on both. kMin prefers A; kMax prefers B.
  const std::size_t dim = 2;
  FloatMatrix all(2, dim);
  all.at(0, 0) = 0.0f;  // entity A's single vector at origin
  all.at(1, 0) = 3.0f;  // entity B's single vector at (3, 0)
  FlatIndex index;
  ASSERT_TRUE(index.Build(all, {}).ok());
  auto scorer = Scorer::Create(MetricSpec::L2(), dim).value();
  MultiVectorSearcher searcher(
      &index, &scorer, [](VectorId vid) { return vid; },
      [&](VectorId entity) {
        return std::vector<VectorView>{all.row_view(entity)};
      });
  FloatMatrix query(2, dim);
  query.at(0, 0) = 0.0f;  // near A
  query.at(1, 0) = 6.0f;  // far from A (36), nearer B (9)
  SearchParams params;
  params.k = 2;
  auto min_agg = Aggregator::Create(AggregateKind::kMin).value();
  auto max_agg = Aggregator::Create(AggregateKind::kMax).value();
  std::vector<Neighbor> got;
  ASSERT_TRUE(searcher.Search(query, min_agg, 2, params, &got).ok());
  EXPECT_EQ(got[0].id, 0u);  // A's best pair (0) beats B's best (9)
  ASSERT_TRUE(searcher.Search(query, max_agg, 2, params, &got).ok());
  EXPECT_EQ(got[0].id, 1u);  // A's worst pair (36) loses to B's worst (9)
}

}  // namespace
}  // namespace vdb
