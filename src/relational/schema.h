// Schema: attribute names, types, and segregation-analysis roles.
//
// SCube distinguishes *segregation attributes* (SA: traits of individuals
// that define minority groups — sex, age, birthplace) from *context
// attributes* (CA: where segregation may appear — residence, sector) and the
// *unit* attribute (the organisational unit an individual belongs to).

#ifndef SCUBE_RELATIONAL_SCHEMA_H_
#define SCUBE_RELATIONAL_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace scube {
namespace relational {

/// Role of an attribute in segregation analysis.
enum class AttributeKind {
  kId,           ///< entity identifier; never mined
  kSegregation,  ///< SA: defines minority subgroups (cube rows)
  kContext,      ///< CA: defines contexts (cube columns)
  kUnit,         ///< organisational unit id (exactly one per finalTable)
  kIgnore,       ///< carried through but not analysed
};

/// Physical type of an attribute.
enum class ColumnType {
  kCategorical,     ///< dictionary-encoded string
  kInt64,           ///< integer (ids, counts, years); binnable
  kDouble,          ///< real; binnable
  kCategoricalSet,  ///< multi-valued categorical, e.g. owns={house,car}
};

const char* ColumnTypeToString(ColumnType type);

/// \brief One attribute declaration.
struct AttributeSpec {
  std::string name;
  ColumnType type = ColumnType::kCategorical;
  AttributeKind kind = AttributeKind::kIgnore;
};

/// \brief Ordered list of attribute declarations with name lookup.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<AttributeSpec> attributes);

  /// Appends an attribute; fails if the name already exists.
  Status AddAttribute(AttributeSpec spec);

  size_t NumAttributes() const { return attributes_.size(); }
  const AttributeSpec& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<AttributeSpec>& attributes() const { return attributes_; }

  /// Index of an attribute by name, or -1.
  int IndexOf(const std::string& name) const;

  /// Indices of all attributes with the given kind.
  std::vector<size_t> IndicesOfKind(AttributeKind kind) const;

  /// Validates the schema for cube analysis: at least one SA, at least one
  /// unit-or-CA attribute, and at most one kUnit attribute.
  Status ValidateForAnalysis() const;

 private:
  std::vector<AttributeSpec> attributes_;
};

}  // namespace relational
}  // namespace scube

#endif  // SCUBE_RELATIONAL_SCHEMA_H_
