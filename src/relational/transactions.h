// Transaction encoding: finalTable -> transaction database + item catalog.
//
// Cube coordinates are encoded as itemsets: one item per (attribute, value)
// pair, partitioned into segregation items (SA) and context items (CA). The
// catalog records the meaning of every item so mined itemsets can be decoded
// back into cube coordinates, and renders each item's "attr=value" label
// once, when the item is added: every row, CSV line and sheet cell that
// names a cell reuses those strings. The encoder maps each column's
// dictionary codes to items through one vector per column and asks the
// catalog only at a code's first sight.

#ifndef SCUBE_RELATIONAL_TRANSACTIONS_H_
#define SCUBE_RELATIONAL_TRANSACTIONS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "fpm/itemset.h"
#include "fpm/transaction_db.h"
#include "relational/table.h"

namespace scube {
namespace relational {

/// \brief What an item denotes.
struct ItemInfo {
  size_t attr_index = 0;       ///< column in the source table
  std::string attr_name;
  std::string value;
  AttributeKind kind = AttributeKind::kIgnore;
};

/// \brief Registry of (attribute, value) items, and the one index from an
/// attribute name and value to its item: SCubeQL's `attr=value`
/// coordinates resolve through Find.
class ItemCatalog {
 public:
  /// Returns the item for the pair, creating it if new.
  fpm::ItemId GetOrAdd(size_t attr_index, const std::string& attr_name,
                       const std::string& value, AttributeKind kind);

  /// The item `attr_name=value`; kInvalidItem when absent. A schema's
  /// attribute names are unique, so the name alone names the attribute.
  fpm::ItemId Find(const std::string& attr_name,
                   const std::string& value) const;

  /// Whether any item has attribute `attr_name`: tells an unknown
  /// attribute from an unknown value when Find misses.
  bool HasAttribute(const std::string& attr_name) const {
    return index_.count(attr_name) != 0;
  }

  size_t size() const { return infos_.size(); }
  const ItemInfo& info(fpm::ItemId item) const { return infos_[item]; }

  /// Human-readable item label, e.g. "sex=female". Rendered once, when
  /// the item is added; the reference lives as long as the catalog.
  const std::string& Label(fpm::ItemId item) const;

  /// Renders an itemset as "sex=female & region=north" ("*" when empty),
  /// in (attribute, value) order. Orders item ids and appends their
  /// labels; no per-item string is built.
  std::string LabelSet(const fpm::Itemset& items) const;

  /// Partitions an itemset into its SA and CA parts.
  void Split(const fpm::Itemset& items, fpm::Itemset* sa_part,
             fpm::Itemset* ca_part) const;

 private:
  std::vector<ItemInfo> infos_;
  std::vector<std::string> labels_;  ///< "attr=value", parallel to infos_
  /// attribute name -> value -> item
  std::unordered_map<std::string,
                     std::unordered_map<std::string, fpm::ItemId>>
      index_;
};

/// \brief A finalTable encoded for mining.
struct EncodedRelation {
  fpm::TransactionDb db;             ///< one transaction per individual
  ItemCatalog catalog;               ///< item meanings
  std::vector<uint32_t> row_unit;    ///< row -> dense unit index
  std::vector<std::string> unit_labels;  ///< unit index -> label
};

/// Encodes a finalTable for cube analysis. Item ids come in first-seen
/// order: rows in table order, a set's values in code order. Requirements
/// (checked):
///   - schema passes Schema::ValidateForAnalysis();
///   - every SA/CA attribute is kCategorical or kCategoricalSet (numeric
///     attributes must be binned first, see relational/binning.h);
///   - the unit attribute is kCategorical or kInt64.
Result<EncodedRelation> EncodeForAnalysis(const Table& final_table);

}  // namespace relational
}  // namespace scube

#endif  // SCUBE_RELATIONAL_TRANSACTIONS_H_
