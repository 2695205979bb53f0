#ifndef VDB_EXEC_PREDICATE_H_
#define VDB_EXEC_PREDICATE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "core/types.h"
#include "index/index.h"
#include "storage/attribute_store.h"

namespace vdb {

/// Comparison operators over attribute values.
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Boolean predicate tree over structured attributes — the filter half of
/// a hybrid query (§2.1 "Query Variants"). Supports bitmask evaluation
/// (block-first filtering), per-row checks (visit-first / post-filter),
/// and statistics-based selectivity estimation (plan selection, §2.3).
class Predicate {
 public:
  /// The always-true predicate (selectivity 1; hybrid degenerates to k-NN).
  Predicate();

  static Predicate True() { return Predicate(); }
  static Predicate Cmp(std::string column, CmpOp op, AttrValue value);
  static Predicate In(std::string column, std::vector<AttrValue> values);
  static Predicate Between(std::string column, AttrValue lo, AttrValue hi);
  static Predicate And(Predicate a, Predicate b);
  static Predicate Or(Predicate a, Predicate b);
  static Predicate Not(Predicate a);

  bool IsTrue() const;

  /// Evaluates to a bitmask over rows [0, attrs.NumRows()) — the
  /// block-first technique of Milvus/AnalyticDB-V. Binds once, then scans
  /// each leaf's column (see BoundPredicate).
  Result<Bitset> Evaluate(const AttributeStore& attrs) const;

  /// Per-row check. Binds on every call; a caller probing many rows binds
  /// once instead (BoundPredicate, PredicateIdFilter).
  Result<bool> MatchesRow(const AttributeStore& attrs, VectorId id) const;

  /// Estimated fraction of rows matching, from column statistics:
  /// equality via distinct counts, ranges via equi-width histograms,
  /// conjunction/disjunction under independence.
  Result<double> EstimateSelectivity(const AttributeStore& attrs) const;

  std::string ToString() const;

  /// If this predicate is exactly `column = value`, fills the outputs and
  /// returns true (the shape offline attribute partitioning can serve).
  bool AsSingleEquality(std::string* column, AttrValue* value) const;

 private:
  friend class BoundPredicate;

  enum class Kind { kTrue, kCmp, kIn, kBetween, kAnd, kOr, kNot };

  struct Node;
  explicit Predicate(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

/// A Predicate bound to one AttributeStore: each leaf's column and type
/// are resolved once, and its literals are converted to the column's
/// comparison domain, so a row test reads the typed column directly — no
/// name lookup and no AttrValue per row. The one evaluator behind
/// `Predicate::Evaluate`, `Predicate::MatchesRow` and `PredicateIdFilter`.
///
/// Semantics are the per-row ones: int64/double compare after promotion
/// to double, the three-way compare treats NaN as equal, IN skips
/// literals of the wrong type, and errors surface only when a leaf is
/// evaluated on a row — NotFound for an unknown column, OutOfRange for a
/// row past the store, InvalidArgument for string against number.
/// Valid while the store is not mutated.
class BoundPredicate {
 public:
  BoundPredicate(const Predicate& pred, const AttributeStore& attrs);
  ~BoundPredicate();

  Result<bool> Matches(VectorId id) const;
  /// Bitmask over rows [0, NumRows()); boolean nodes combine child masks.
  Result<Bitset> Evaluate() const;

 private:
  struct Node;
  std::size_t Bind(const Predicate::Node& node, const AttributeStore& attrs);
  Result<bool> Matches(std::size_t node, std::size_t row) const;
  Result<Bitset> Evaluate(std::size_t node) const;

  std::vector<Node> nodes_;  ///< nodes_[0] is the root
  std::size_t num_rows_;
};

/// Adapts a Predicate to the index-facing IdFilter interface, evaluating
/// per row on demand (the visit-first operator's probe). Binds once at
/// construction; the store must not change while the filter lives.
class PredicateIdFilter final : public IdFilter {
 public:
  PredicateIdFilter(const Predicate* pred, const AttributeStore* attrs)
      : bound_(*pred, *attrs) {}
  bool Matches(VectorId id) const override {
    auto result = bound_.Matches(id);
    return result.ok() && *result;
  }

 private:
  BoundPredicate bound_;
};

}  // namespace vdb

#endif  // VDB_EXEC_PREDICATE_H_
