#include "relational/transactions.h"

#include <algorithm>

#include "common/logging.h"

namespace scube {
namespace relational {

namespace {
std::string CatalogKey(size_t attr_index, const std::string& value) {
  return std::to_string(attr_index) + "\x1F" + value;
}
}  // namespace

fpm::ItemId ItemCatalog::GetOrAdd(size_t attr_index,
                                  const std::string& attr_name,
                                  const std::string& value,
                                  AttributeKind kind) {
  std::string key = CatalogKey(attr_index, value);
  auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  fpm::ItemId item = static_cast<fpm::ItemId>(infos_.size());
  infos_.push_back(ItemInfo{attr_index, attr_name, value, kind});
  labels_.push_back(attr_name + "=" + value);
  index_.emplace(std::move(key), item);
  return item;
}

fpm::ItemId ItemCatalog::Find(size_t attr_index,
                              const std::string& value) const {
  auto it = index_.find(CatalogKey(attr_index, value));
  return it == index_.end() ? fpm::kInvalidItem : it->second;
}

const std::string& ItemCatalog::Label(fpm::ItemId item) const {
  SCUBE_CHECK(item < labels_.size());
  return labels_[item];
}

std::string ItemCatalog::LabelSet(const fpm::Itemset& items) const {
  if (items.empty()) return "*";
  // Render in (attribute, value) order rather than raw item-id order so the
  // output is stable and human-sensible regardless of encoding order. Only
  // ids are ordered; the labels rendered on add are appended.
  std::vector<fpm::ItemId> ordered(items.items());
  std::sort(ordered.begin(), ordered.end(),
            [this](fpm::ItemId a, fpm::ItemId b) {
              const ItemInfo& ia = infos_[a];
              const ItemInfo& ib = infos_[b];
              if (ia.attr_index != ib.attr_index) {
                return ia.attr_index < ib.attr_index;
              }
              return ia.value < ib.value;
            });
  size_t size = 3 * (ordered.size() - 1);
  for (fpm::ItemId item : ordered) size += Label(item).size();
  std::string out;
  out.reserve(size);
  for (size_t i = 0; i < ordered.size(); ++i) {
    if (i > 0) out += " & ";
    out += Label(ordered[i]);
  }
  return out;
}

void ItemCatalog::Split(const fpm::Itemset& items, fpm::Itemset* sa_part,
                        fpm::Itemset* ca_part) const {
  std::vector<fpm::ItemId> sa, ca;
  for (fpm::ItemId item : items.items()) {
    SCUBE_CHECK(item < infos_.size());
    if (infos_[item].kind == AttributeKind::kSegregation) {
      sa.push_back(item);
    } else {
      ca.push_back(item);
    }
  }
  *sa_part = fpm::Itemset(std::move(sa));
  *ca_part = fpm::Itemset(std::move(ca));
}

Result<EncodedRelation> EncodeForAnalysis(const Table& final_table) {
  const Schema& schema = final_table.schema();
  SCUBE_RETURN_IF_ERROR(schema.ValidateForAnalysis());

  // Collect the mined attributes and validate their types.
  std::vector<size_t> mined_attrs;
  for (size_t a = 0; a < schema.NumAttributes(); ++a) {
    const AttributeSpec& spec = schema.attribute(a);
    if (spec.kind != AttributeKind::kSegregation &&
        spec.kind != AttributeKind::kContext) {
      continue;
    }
    if (spec.type != ColumnType::kCategorical &&
        spec.type != ColumnType::kCategoricalSet) {
      return Status::FailedPrecondition(
          "attribute '" + spec.name +
          "' is numeric; bin it before analysis (relational/binning.h)");
    }
    mined_attrs.push_back(a);
  }

  size_t unit_attr = schema.IndicesOfKind(AttributeKind::kUnit)[0];
  const AttributeSpec& unit_spec = schema.attribute(unit_attr);
  if (unit_spec.type != ColumnType::kCategorical &&
      unit_spec.type != ColumnType::kInt64) {
    return Status::FailedPrecondition(
        "unit attribute '" + unit_spec.name +
        "' must be categorical or int64");
  }

  EncodedRelation out;
  out.row_unit.reserve(final_table.NumRows());
  std::unordered_map<int64_t, uint32_t> int_units;

  // Per mined column, the item of each dictionary code: the catalog is
  // asked only at a code's first sight, in row order (a set's values in
  // code order), so item ids come out in first-seen order.
  std::vector<std::vector<fpm::ItemId>> items_of(mined_attrs.size());
  for (size_t j = 0; j < mined_attrs.size(); ++j) {
    items_of[j].assign(final_table.dictionary(mined_attrs[j]).size(),
                       fpm::kInvalidItem);
  }
  std::vector<fpm::ItemId> items;  // one row's, reused
  for (size_t r = 0; r < final_table.NumRows(); ++r) {
    // Items.
    items.clear();
    for (size_t j = 0; j < mined_attrs.size(); ++j) {
      const size_t a = mined_attrs[j];
      const AttributeSpec& spec = schema.attribute(a);
      auto item_of = [&](Code code) {
        fpm::ItemId& item = items_of[j][code];
        if (item == fpm::kInvalidItem) {
          item = out.catalog.GetOrAdd(
              a, spec.name, final_table.dictionary(a).ValueOf(code), spec.kind);
        }
        return item;
      };
      if (spec.type == ColumnType::kCategorical) {
        items.push_back(item_of(final_table.CategoricalCode(r, a)));
      } else {
        for (Code code : final_table.SetCodes(r, a)) {
          items.push_back(item_of(code));
        }
      }
    }
    out.db.AddTransaction(std::vector<fpm::ItemId>(items.begin(), items.end()));

    // Unit assignment.
    uint32_t unit;
    if (unit_spec.type == ColumnType::kCategorical) {
      unit = final_table.CategoricalCode(r, unit_attr);
      while (out.unit_labels.size() <= unit) {
        out.unit_labels.push_back(final_table.dictionary(unit_attr).ValueOf(
            static_cast<Code>(out.unit_labels.size())));
      }
    } else {
      int64_t raw = final_table.Int64Value(r, unit_attr);
      auto [it, inserted] = int_units.emplace(
          raw, static_cast<uint32_t>(out.unit_labels.size()));
      if (inserted) out.unit_labels.push_back(std::to_string(raw));
      unit = it->second;
    }
    out.row_unit.push_back(unit);
  }
  return out;
}

}  // namespace relational
}  // namespace scube
