#include "exec/predicate.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

namespace vdb {

struct Predicate::Node {
  Kind kind = Kind::kTrue;
  // kCmp / kIn / kBetween:
  std::string column;
  CmpOp op = CmpOp::kEq;
  std::vector<AttrValue> values;  ///< [v] / IN-list / [lo, hi]
  // kAnd / kOr / kNot:
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

Predicate::Predicate() : node_(std::make_shared<Node>()) {}

Predicate Predicate::Cmp(std::string column, CmpOp op, AttrValue value) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kCmp;
  node->column = std::move(column);
  node->op = op;
  node->values = {std::move(value)};
  return Predicate(node);
}

Predicate Predicate::In(std::string column, std::vector<AttrValue> values) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kIn;
  node->column = std::move(column);
  node->values = std::move(values);
  return Predicate(node);
}

Predicate Predicate::Between(std::string column, AttrValue lo, AttrValue hi) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kBetween;
  node->column = std::move(column);
  node->values = {std::move(lo), std::move(hi)};
  return Predicate(node);
}

Predicate Predicate::And(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kAnd;
  node->left = a.node_;
  node->right = b.node_;
  return Predicate(node);
}

Predicate Predicate::Or(Predicate a, Predicate b) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kOr;
  node->left = a.node_;
  node->right = b.node_;
  return Predicate(node);
}

Predicate Predicate::Not(Predicate a) {
  auto node = std::make_shared<Node>();
  node->kind = Kind::kNot;
  node->left = a.node_;
  return Predicate(node);
}

bool Predicate::IsTrue() const { return node_->kind == Kind::kTrue; }

bool Predicate::AsSingleEquality(std::string* column, AttrValue* value) const {
  if (node_->kind != Kind::kCmp || node_->op != CmpOp::kEq) return false;
  *column = node_->column;
  *value = node_->values[0];
  return true;
}

namespace {

bool ApplyOp(CmpOp op, int cmp) {
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

double AsDouble(const AttrValue& v) {
  switch (TypeOf(v)) {
    case AttrType::kInt64:
      return static_cast<double>(std::get<std::int64_t>(v));
    case AttrType::kDouble:
      return std::get<double>(v);
    case AttrType::kString:
      return 0.0;
  }
  return 0.0;
}

/// A literal converted to its column's comparison domain: an int64
/// column compares int literals exactly and double literals after
/// promoting the stored value; a double column promotes int literals.
struct Literal {
  bool as_double = false;  ///< int64 column vs double literal
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;
};

/// Nullopt when `v` cannot compare with a `column` value (string vs
/// number).
std::optional<Literal> ToLiteral(AttrType column, const AttrValue& v) {
  Literal lit;
  const auto* i = std::get_if<std::int64_t>(&v);
  const auto* d = std::get_if<double>(&v);
  const auto* s = std::get_if<std::string>(&v);
  switch (column) {
    case AttrType::kInt64:
      if (i != nullptr) {
        lit.i = *i;
        return lit;
      }
      if (d == nullptr) return std::nullopt;
      lit.as_double = true;
      lit.d = *d;
      return lit;
    case AttrType::kDouble:
      if (s != nullptr) return std::nullopt;
      lit.d = i != nullptr ? static_cast<double>(*i) : *d;
      return lit;
    case AttrType::kString:
      if (s == nullptr) return std::nullopt;
      lit.s = *s;
      return lit;
  }
  return std::nullopt;
}

/// Three-way comparison; NaN compares equal to everything.
template <class T>
int Sign3(const T& a, const T& b) {
  return a < b ? -1 : (a > b ? 1 : 0);
}

int Compare(std::int64_t v, const Literal& lit) {
  return lit.as_double ? Sign3(static_cast<double>(v), lit.d)
                       : Sign3(v, lit.i);
}
int Compare(double v, const Literal& lit) { return Sign3(v, lit.d); }
int Compare(const std::string& v, const Literal& lit) {
  return Sign3(v, lit.s);
}

}  // namespace

struct BoundPredicate::Node {
  Predicate::Kind kind = Predicate::Kind::kTrue;
  // Leaves (kCmp / kIn / kBetween): the column and converted literals.
  CmpOp op = CmpOp::kEq;
  AttrType type = AttrType::kInt64;
  const std::int64_t* i64 = nullptr;
  const double* f64 = nullptr;
  const std::string* str = nullptr;
  std::vector<Literal> literals;
  Status missing;   ///< NotFound: no such column
  Status mismatch;  ///< InvalidArgument: a Cmp/Between literal's type
  // kAnd / kOr / kNot:
  std::size_t left = 0;
  std::size_t right = 0;

  template <class T>
  bool Test(const T& v) const {
    switch (kind) {
      case Predicate::Kind::kCmp:
        return ApplyOp(op, Compare(v, literals[0]));
      case Predicate::Kind::kIn:
        for (const Literal& lit : literals) {
          if (Compare(v, lit) == 0) return true;
        }
        return false;
      case Predicate::Kind::kBetween:
        return Compare(v, literals[0]) >= 0 && Compare(v, literals[1]) <= 0;
      default:
        return false;
    }
  }

  bool TestRow(std::size_t row) const {
    switch (type) {
      case AttrType::kInt64: return Test(i64[row]);
      case AttrType::kDouble: return Test(f64[row]);
      case AttrType::kString: return Test(str[row]);
    }
    return false;
  }
};

BoundPredicate::BoundPredicate(const Predicate& pred,
                               const AttributeStore& attrs)
    : num_rows_(attrs.NumRows()) {
  Bind(*pred.node_, attrs);
}

BoundPredicate::~BoundPredicate() = default;

std::size_t BoundPredicate::Bind(const Predicate::Node& src,
                                 const AttributeStore& attrs) {
  const std::size_t at = nodes_.size();
  nodes_.emplace_back();
  Node node;
  node.kind = src.kind;
  switch (src.kind) {
    case Predicate::Kind::kTrue:
      break;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      node.left = Bind(*src.left, attrs);
      node.right = Bind(*src.right, attrs);
      break;
    case Predicate::Kind::kNot:
      node.left = Bind(*src.left, attrs);
      break;
    case Predicate::Kind::kCmp:
    case Predicate::Kind::kIn:
    case Predicate::Kind::kBetween: {
      node.op = src.op;
      auto type = attrs.ColumnType(src.column);
      if (!type.ok()) {
        node.missing = type.status();
        break;
      }
      node.type = *type;
      switch (node.type) {
        case AttrType::kInt64:
          node.i64 = attrs.Int64Column(src.column)->data();
          break;
        case AttrType::kDouble:
          node.f64 = attrs.DoubleColumn(src.column)->data();
          break;
        case AttrType::kString:
          node.str = attrs.StringColumn(src.column)->data();
          break;
      }
      for (const AttrValue& value : src.values) {
        if (auto lit = ToLiteral(node.type, value)) {
          node.literals.push_back(std::move(*lit));
        } else if (src.kind != Predicate::Kind::kIn) {
          node.mismatch = Status::InvalidArgument("type mismatch in predicate");
        }
      }
      break;
    }
  }
  nodes_[at] = std::move(node);
  return at;
}

Result<bool> BoundPredicate::Matches(VectorId id) const {
  return Matches(0, static_cast<std::size_t>(id));
}

Result<bool> BoundPredicate::Matches(std::size_t node,
                                     std::size_t row) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Predicate::Kind::kTrue:
      return true;
    case Predicate::Kind::kAnd: {
      VDB_ASSIGN_OR_RETURN(bool a, Matches(n.left, row));
      if (!a) return false;
      return Matches(n.right, row);
    }
    case Predicate::Kind::kOr: {
      VDB_ASSIGN_OR_RETURN(bool a, Matches(n.left, row));
      if (a) return true;
      return Matches(n.right, row);
    }
    case Predicate::Kind::kNot: {
      VDB_ASSIGN_OR_RETURN(bool a, Matches(n.left, row));
      return !a;
    }
    default:
      VDB_RETURN_IF_ERROR(n.missing);
      if (row >= num_rows_) return Status::OutOfRange("row out of range");
      VDB_RETURN_IF_ERROR(n.mismatch);
      return n.TestRow(row);
  }
}

Result<Bitset> BoundPredicate::Evaluate() const { return Evaluate(0); }

Result<Bitset> BoundPredicate::Evaluate(std::size_t node) const {
  const Node& n = nodes_[node];
  switch (n.kind) {
    case Predicate::Kind::kTrue:
      return Bitset(num_rows_, true);
    case Predicate::Kind::kAnd: {
      VDB_ASSIGN_OR_RETURN(Bitset a, Evaluate(n.left));
      VDB_ASSIGN_OR_RETURN(Bitset b, Evaluate(n.right));
      a.And(b);
      return a;
    }
    case Predicate::Kind::kOr: {
      VDB_ASSIGN_OR_RETURN(Bitset a, Evaluate(n.left));
      VDB_ASSIGN_OR_RETURN(Bitset b, Evaluate(n.right));
      a.Or(b);
      return a;
    }
    case Predicate::Kind::kNot: {
      VDB_ASSIGN_OR_RETURN(Bitset a, Evaluate(n.left));
      a.Not();
      return a;
    }
    default: {
      // Column-at-a-time: the type dispatch is hoisted out of the row loop.
      Bitset bits(num_rows_);
      if (num_rows_ == 0) return bits;
      VDB_RETURN_IF_ERROR(n.missing);
      VDB_RETURN_IF_ERROR(n.mismatch);
      auto scan = [&](const auto* column) {
        for (std::size_t row = 0; row < num_rows_; ++row) {
          if (n.Test(column[row])) bits.Set(row);
        }
      };
      switch (n.type) {
        case AttrType::kInt64: scan(n.i64); break;
        case AttrType::kDouble: scan(n.f64); break;
        case AttrType::kString: scan(n.str); break;
      }
      return bits;
    }
  }
}

Result<bool> Predicate::MatchesRow(const AttributeStore& attrs,
                                   VectorId id) const {
  return BoundPredicate(*this, attrs).Matches(id);
}

Result<Bitset> Predicate::Evaluate(const AttributeStore& attrs) const {
  return BoundPredicate(*this, attrs).Evaluate();
}

Result<double> Predicate::EstimateSelectivity(
    const AttributeStore& attrs) const {
  const Node& n = *node_;
  switch (n.kind) {
    case Kind::kTrue:
      return 1.0;
    case Kind::kAnd: {
      VDB_ASSIGN_OR_RETURN(double a,
                           Predicate(n.left).EstimateSelectivity(attrs));
      VDB_ASSIGN_OR_RETURN(double b,
                           Predicate(n.right).EstimateSelectivity(attrs));
      return a * b;  // independence assumption
    }
    case Kind::kOr: {
      VDB_ASSIGN_OR_RETURN(double a,
                           Predicate(n.left).EstimateSelectivity(attrs));
      VDB_ASSIGN_OR_RETURN(double b,
                           Predicate(n.right).EstimateSelectivity(attrs));
      return a + b - a * b;
    }
    case Kind::kNot: {
      VDB_ASSIGN_OR_RETURN(double a,
                           Predicate(n.left).EstimateSelectivity(attrs));
      return 1.0 - a;
    }
    case Kind::kCmp: {
      VDB_ASSIGN_OR_RETURN(ColumnStats stats, attrs.ComputeStats(n.column));
      double ndv = std::max<double>(1.0, static_cast<double>(stats.approx_distinct));
      if (n.op == CmpOp::kEq) return 1.0 / ndv;
      if (n.op == CmpOp::kNe) return 1.0 - 1.0 / ndv;
      // Range ops via the histogram when numeric.
      if (stats.histogram.empty()) return 0.33;  // string range: guess
      double v = AsDouble(n.values[0]);
      double total = 0.0, below = 0.0;
      double width = (stats.max - stats.min) / 16.0;
      for (std::size_t b = 0; b < stats.histogram.size(); ++b) {
        total += static_cast<double>(stats.histogram[b]);
        double bucket_hi = stats.min + width * static_cast<double>(b + 1);
        if (bucket_hi <= v) {
          below += static_cast<double>(stats.histogram[b]);
        } else if (bucket_hi - width < v && width > 0.0) {
          below += static_cast<double>(stats.histogram[b]) *
                   (v - (bucket_hi - width)) / width;
        }
      }
      double frac_below = total > 0.0 ? below / total : 0.5;
      switch (n.op) {
        case CmpOp::kLt:
        case CmpOp::kLe:
          return std::clamp(frac_below, 0.0, 1.0);
        case CmpOp::kGt:
        case CmpOp::kGe:
          return std::clamp(1.0 - frac_below, 0.0, 1.0);
        default:
          return 0.33;
      }
    }
    case Kind::kIn: {
      VDB_ASSIGN_OR_RETURN(ColumnStats stats, attrs.ComputeStats(n.column));
      double ndv = std::max<double>(1.0, static_cast<double>(stats.approx_distinct));
      return std::min(1.0, static_cast<double>(n.values.size()) / ndv);
    }
    case Kind::kBetween: {
      // Avoid the independence penalty: lo/hi on the same column are
      // perfectly correlated, so estimate as (frac <= hi) - (frac < lo).
      VDB_ASSIGN_OR_RETURN(
          double below_hi,
          Predicate::Cmp(n.column, CmpOp::kLe, n.values[1])
              .EstimateSelectivity(attrs));
      VDB_ASSIGN_OR_RETURN(
          double below_lo,
          Predicate::Cmp(n.column, CmpOp::kLt, n.values[0])
              .EstimateSelectivity(attrs));
      return std::clamp(below_hi - below_lo, 0.0, 1.0);
    }
  }
  return Status::Internal("bad predicate kind");
}

namespace {

std::string ValueToString(const AttrValue& v) {
  switch (TypeOf(v)) {
    case AttrType::kInt64: return std::to_string(std::get<std::int64_t>(v));
    case AttrType::kDouble: {
      std::ostringstream os;
      os << std::get<double>(v);
      return os.str();
    }
    case AttrType::kString: return "'" + std::get<std::string>(v) + "'";
  }
  return "?";
}

std::string OpToString(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

}  // namespace

std::string Predicate::ToString() const {
  const Node& n = *node_;
  switch (n.kind) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kCmp:
      return n.column + " " + OpToString(n.op) + " " +
             ValueToString(n.values[0]);
    case Kind::kIn: {
      std::string out = n.column + " IN (";
      for (std::size_t i = 0; i < n.values.size(); ++i) {
        if (i) out += ", ";
        out += ValueToString(n.values[i]);
      }
      return out + ")";
    }
    case Kind::kBetween:
      return n.column + " BETWEEN " + ValueToString(n.values[0]) + " AND " +
             ValueToString(n.values[1]);
    case Kind::kAnd:
      return "(" + Predicate(n.left).ToString() + " AND " +
             Predicate(n.right).ToString() + ")";
    case Kind::kOr:
      return "(" + Predicate(n.left).ToString() + " OR " +
             Predicate(n.right).ToString() + ")";
    case Kind::kNot:
      return "NOT (" + Predicate(n.left).ToString() + ")";
  }
  return "?";
}

}  // namespace vdb
