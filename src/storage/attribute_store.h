#ifndef VDB_STORAGE_ATTRIBUTE_STORE_H_
#define VDB_STORAGE_ATTRIBUTE_STORE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/status.h"
#include "core/sync.h"
#include "core/types.h"

namespace vdb {

/// Scalar attribute value (hybrid queries pair these with vectors, §2.1).
using AttrValue = std::variant<std::int64_t, double, std::string>;

enum class AttrType { kInt64 = 0, kDouble = 1, kString = 2 };

inline AttrType TypeOf(const AttrValue& v) {
  return static_cast<AttrType>(v.index());
}

/// One named attribute of one entity.
struct AttrBinding {
  std::string column;
  AttrValue value;
};

/// Per-column statistics maintained for selectivity estimation (the input
/// to rule-based and cost-based hybrid plan selection, §2.3).
struct ColumnStats {
  std::size_t non_default_rows = 0;
  double min = 0.0;   ///< numeric columns
  double max = 0.0;
  std::size_t approx_distinct = 0;
  /// Equi-width histogram over [min, max] (numeric columns, 16 buckets).
  std::vector<std::size_t> histogram;
};

/// Typed attribute columns aligned with a vector collection's rows. Rows
/// are addressed by external VectorId (dense ids recommended). Supports
/// bitmask construction for block-first filtering.
///
/// Threading: mutations need exclusive access (the caller's lock), while
/// const calls may run concurrently — `ComputeStats` fills its per-column
/// cache under its own leaf mutex.
class AttributeStore {
 public:
  AttributeStore() = default;
  /// Moves the columns; the statistics cache starts empty on both sides.
  AttributeStore(AttributeStore&& other) noexcept;
  AttributeStore& operator=(AttributeStore&& other) noexcept;

  Status AddColumn(const std::string& name, AttrType type);
  bool HasColumn(const std::string& name) const {
    return columns_.contains(name);
  }
  Result<AttrType> ColumnType(const std::string& name) const;

  /// Sets attributes for `id` (any column not bound keeps its default:
  /// 0 / 0.0 / ""). Extends all columns to cover `id`.
  Status PutRow(VectorId id, const std::vector<AttrBinding>& attrs);

  Result<AttrValue> Get(VectorId id, const std::string& column) const;

  /// Number of rows (max id set + 1).
  std::size_t NumRows() const { return num_rows_; }

  /// Statistics for `column` (histograms, distincts). Scans the column
  /// once per write epoch: the result is cached until the next mutation
  /// (`AddColumn`, `PutRow`, `Load`) and equals a fresh scan.
  Result<ColumnStats> ComputeStats(const std::string& column) const;

  /// Raw column access for predicate evaluation.
  const std::vector<std::int64_t>* Int64Column(const std::string& name) const;
  const std::vector<double>* DoubleColumn(const std::string& name) const;
  const std::vector<std::string>* StringColumn(const std::string& name) const;

  /// Serialization into/from a checkpoint container (schema + all rows).
  void Save(class BinaryWriter* writer) const;
  Status Load(class BinaryReader* reader);

 private:
  struct Column {
    AttrType type;
    std::vector<std::int64_t> i64;
    std::vector<double> f64;
    std::vector<std::string> str;
    void Resize(std::size_t n) {
      switch (type) {
        case AttrType::kInt64: i64.resize(n, 0); break;
        case AttrType::kDouble: f64.resize(n, 0.0); break;
        case AttrType::kString: str.resize(n); break;
      }
    }
  };

  struct CachedStats {
    std::uint64_t generation = 0;
    ColumnStats stats;
  };

  static ColumnStats ScanStats(const Column& col, std::size_t num_rows);

  std::unordered_map<std::string, Column> columns_;
  std::size_t num_rows_ = 0;
  /// Write epoch: every mutation bumps it, which invalidates every cached
  /// ColumnStats at the cost of one increment. Mutations are exclusive
  /// with readers, so it needs no lock of its own.
  std::uint64_t generation_ = 0;
  mutable Mutex stats_mu_;
  mutable std::unordered_map<std::string, CachedStats> stats_cache_
      VDB_GUARDED_BY(stats_mu_);
};

}  // namespace vdb

#endif  // VDB_STORAGE_ATTRIBUTE_STORE_H_
