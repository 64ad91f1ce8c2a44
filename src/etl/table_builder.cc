#include "etl/table_builder.h"

#include <algorithm>
#include <numeric>
#include <string>

namespace scube {
namespace etl {

using relational::AttributeKind;
using relational::AttributeSpec;
using relational::Code;
using relational::CodedCell;
using relational::ColumnType;
using relational::Dictionary;
using relational::kNullCode;
using relational::Schema;
using relational::Table;

namespace {

// One active membership: an individual sits on a group of a unit.
struct Triple {
  uint32_t individual;
  uint32_t unit;
  uint32_t group;
  auto operator<=>(const Triple&) const = default;
};

// Maps an input column's codes to the output column's. A value enters the
// output dictionary when first mapped, so output codes come in the order
// the rows first use them.
class CodeMap {
 public:
  CodeMap(const Dictionary& in, Table* out, size_t out_col)
      : in_(&in), out_(out), out_col_(out_col), codes_(in.size(), kNullCode) {}

  Code operator()(Code in_code) {
    Code& code = codes_[in_code];
    if (code == kNullCode) {
      code = out_->AddDictionaryValue(out_col_, in_->ValueOf(in_code));
    }
    return code;
  }

 private:
  const Dictionary* in_;
  Table* out_;
  size_t out_col_;
  std::vector<Code> codes_;
};

// Each code's position among its dictionary's values in string order.
std::vector<uint32_t> StringRanks(const Dictionary& dict) {
  std::vector<Code> by_value(dict.size());
  std::iota(by_value.begin(), by_value.end(), Code{0});
  std::sort(by_value.begin(), by_value.end(), [&](Code a, Code b) {
    return dict.ValueOf(a) < dict.ValueOf(b);
  });
  std::vector<uint32_t> rank(dict.size());
  for (uint32_t r = 0; r < by_value.size(); ++r) rank[by_value[r]] = r;
  return rank;
}

}  // namespace

Result<Table> BuildFinalTable(const ScubeInputs& inputs,
                              const graph::Clustering& group_unit,
                              const TableBuilderOptions& options) {
  SCUBE_RETURN_IF_ERROR(inputs.Validate());
  if (group_unit.NumNodes() != inputs.groups.NumRows()) {
    return Status::InvalidArgument(
        "clustering covers " + std::to_string(group_unit.NumNodes()) +
        " groups, table has " + std::to_string(inputs.groups.NumRows()));
  }

  const Schema& ind_schema = inputs.individuals.schema();
  const Schema& grp_schema = inputs.groups.schema();

  // Output schema: individual non-id attributes, group CA attributes as
  // sets, then unitID.
  Schema out_schema;
  std::vector<size_t> ind_cols;
  for (size_t a = 0; a < ind_schema.NumAttributes(); ++a) {
    const AttributeSpec& spec = ind_schema.attribute(a);
    if (spec.kind == AttributeKind::kId) continue;
    SCUBE_RETURN_IF_ERROR(out_schema.AddAttribute(spec));
    ind_cols.push_back(a);
  }
  std::vector<size_t> grp_cols;
  for (size_t a = 0; a < grp_schema.NumAttributes(); ++a) {
    const AttributeSpec& spec = grp_schema.attribute(a);
    if (spec.kind != AttributeKind::kContext) continue;
    if (spec.type != ColumnType::kCategorical &&
        spec.type != ColumnType::kCategoricalSet) {
      return Status::FailedPrecondition(
          "group attribute '" + spec.name +
          "' is numeric; bin it before joining");
    }
    AttributeSpec set_spec = spec;
    set_spec.type = ColumnType::kCategoricalSet;
    SCUBE_RETURN_IF_ERROR(out_schema.AddAttribute(set_spec));
    grp_cols.push_back(a);
  }
  SCUBE_RETURN_IF_ERROR(out_schema.AddAttribute(
      {"unitID", ColumnType::kCategorical, AttributeKind::kUnit}));

  // The active memberships as (individual, unit, group), sorted and
  // deduplicated: one run of equal (individual, unit) per output row.
  std::vector<Triple> triples;
  triples.reserve(inputs.membership.NumMemberships());
  for (const graph::Membership& m : inputs.membership.memberships()) {
    if (!m.ActiveAt(options.date)) continue;
    const uint32_t unit = group_unit.labels[m.group];
    if (unit >= group_unit.num_clusters) {
      return Status::InvalidArgument(
          "group " + std::to_string(m.group) + " has unit " +
          std::to_string(unit) + ", clustering has " +
          std::to_string(group_unit.num_clusters));
    }
    triples.push_back({m.individual, unit, m.group});
  }
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());

  // Rows are appended in code space. Output codes must come out in the
  // order appending the values as strings gave them: rows in (individual,
  // unit) order, an individual set's values in input code order, and a
  // group union's values in string order (std::set<std::string> order);
  // item ids, unit ids and so the cube's cell order follow these codes.
  Table out(out_schema);
  const size_t unit_col = out_schema.NumAttributes() - 1;
  std::vector<CodeMap> ind_maps, grp_maps;
  for (size_t j = 0; j < ind_cols.size(); ++j) {
    ind_maps.emplace_back(inputs.individuals.dictionary(ind_cols[j]), &out, j);
  }
  std::vector<std::vector<uint32_t>> grp_ranks;
  for (size_t k = 0; k < grp_cols.size(); ++k) {
    const Dictionary& dict = inputs.groups.dictionary(grp_cols[k]);
    grp_maps.emplace_back(dict, &out, ind_cols.size() + k);
    grp_ranks.push_back(StringRanks(dict));
  }
  std::vector<Code> unit_codes(group_unit.num_clusters, kNullCode);

  std::vector<CodedCell> cells(out_schema.NumAttributes());
  std::vector<std::vector<Code>> sets(out_schema.NumAttributes());
  std::vector<Code> in_codes;
  for (size_t begin = 0, end = 0; begin < triples.size(); begin = end) {
    const uint32_t individual = triples[begin].individual;
    const uint32_t unit = triples[begin].unit;
    for (end = begin + 1; end < triples.size() &&
                          triples[end].individual == individual &&
                          triples[end].unit == unit;
         ++end) {
    }
    for (size_t j = 0; j < ind_cols.size(); ++j) {
      const size_t a = ind_cols[j];
      switch (ind_schema.attribute(a).type) {
        case ColumnType::kCategorical:
          cells[j] =
              ind_maps[j](inputs.individuals.CategoricalCode(individual, a));
          break;
        case ColumnType::kInt64:
          cells[j] = inputs.individuals.Int64Value(individual, a);
          break;
        case ColumnType::kDouble:
          cells[j] = inputs.individuals.DoubleValue(individual, a);
          break;
        case ColumnType::kCategoricalSet: {
          std::vector<Code>& set = sets[j];
          set.clear();
          for (Code code : inputs.individuals.SetCodes(individual, a)) {
            set.push_back(ind_maps[j](code));
          }
          std::sort(set.begin(), set.end());
          cells[j] = std::span<const Code>(set);
          break;
        }
      }
    }
    for (size_t k = 0; k < grp_cols.size(); ++k) {
      const size_t a = grp_cols[k];
      const bool is_set =
          grp_schema.attribute(a).type == ColumnType::kCategoricalSet;
      in_codes.clear();
      for (size_t i = begin; i < end; ++i) {
        const uint32_t g = triples[i].group;
        if (is_set) {
          std::span<const Code> codes = inputs.groups.SetCodes(g, a);
          in_codes.insert(in_codes.end(), codes.begin(), codes.end());
        } else {
          in_codes.push_back(inputs.groups.CategoricalCode(g, a));
        }
      }
      std::vector<Code>& set = sets[ind_cols.size() + k];
      set.clear();
      const std::vector<uint32_t>& rank = grp_ranks[k];
      std::sort(in_codes.begin(), in_codes.end(),
                [&](Code x, Code y) { return rank[x] < rank[y]; });
      in_codes.erase(std::unique(in_codes.begin(), in_codes.end()),
                     in_codes.end());
      for (Code code : in_codes) set.push_back(grp_maps[k](code));
      std::sort(set.begin(), set.end());
      cells[ind_cols.size() + k] = std::span<const Code>(set);
    }
    Code& unit_code = unit_codes[unit];
    if (unit_code == kNullCode) {
      unit_code = out.AddDictionaryValue(unit_col, "c" + std::to_string(unit));
    }
    cells[unit_col] = unit_code;
    SCUBE_RETURN_IF_ERROR(out.AppendCodedRow(cells));
  }
  return out;
}

}  // namespace etl
}  // namespace scube
