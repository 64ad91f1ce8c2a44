#include "etl/table_builder.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace scube {
namespace etl {

using relational::AttributeKind;
using relational::AttributeSpec;
using relational::CellValue;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

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

  // (individual, unit) -> set of group rows, insertion-ordered by key for
  // deterministic output.
  std::map<std::pair<uint32_t, uint32_t>, std::set<uint32_t>> pairs;
  for (const graph::Membership& m : inputs.membership.memberships()) {
    if (!m.ActiveAt(options.date)) continue;
    uint32_t unit = group_unit.labels[m.group];
    pairs[{m.individual, unit}].insert(m.group);
  }

  Table out(out_schema);
  for (const auto& [key, group_rows] : pairs) {
    auto [individual, unit] = key;
    std::vector<CellValue> cells;
    cells.reserve(out_schema.NumAttributes());
    for (size_t a : ind_cols) {
      switch (ind_schema.attribute(a).type) {
        case ColumnType::kCategorical:
          cells.emplace_back(inputs.individuals.CategoricalValue(individual, a));
          break;
        case ColumnType::kInt64:
          cells.emplace_back(inputs.individuals.Int64Value(individual, a));
          break;
        case ColumnType::kDouble:
          cells.emplace_back(inputs.individuals.DoubleValue(individual, a));
          break;
        case ColumnType::kCategoricalSet:
          cells.emplace_back(inputs.individuals.SetValues(individual, a));
          break;
      }
    }
    for (size_t a : grp_cols) {
      std::set<std::string> values;
      for (uint32_t g : group_rows) {
        if (grp_schema.attribute(a).type == ColumnType::kCategorical) {
          values.insert(inputs.groups.CategoricalValue(g, a));
        } else {
          for (const std::string& v : inputs.groups.SetValues(g, a)) {
            values.insert(v);
          }
        }
      }
      cells.emplace_back(
          std::vector<std::string>(values.begin(), values.end()));
    }
    std::string unit_label = "c";
    unit_label += std::to_string(unit);
    cells.emplace_back(std::move(unit_label));
    SCUBE_RETURN_IF_ERROR(out.AppendRow(cells));
  }
  return out;
}

}  // namespace etl
}  // namespace scube
