#include "relational/schema.h"

namespace scube {
namespace relational {

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kCategorical:
      return "categorical";
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kCategoricalSet:
      return "categorical-set";
  }
  return "?";
}

Schema::Schema(std::vector<AttributeSpec> attributes)
    : attributes_(std::move(attributes)) {}

Status Schema::AddAttribute(AttributeSpec spec) {
  if (IndexOf(spec.name) >= 0) {
    return Status::AlreadyExists("attribute already declared: " + spec.name);
  }
  attributes_.push_back(std::move(spec));
  return Status::OK();
}

int Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<size_t> Schema::IndicesOfKind(AttributeKind kind) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].kind == kind) out.push_back(i);
  }
  return out;
}

Status Schema::ValidateForAnalysis() const {
  size_t num_sa = IndicesOfKind(AttributeKind::kSegregation).size();
  size_t num_unit = IndicesOfKind(AttributeKind::kUnit).size();
  if (num_sa == 0) {
    return Status::FailedPrecondition(
        "analysis requires at least one segregation attribute");
  }
  if (num_unit != 1) {
    return Status::FailedPrecondition(
        "analysis requires exactly one unit attribute, found " +
        std::to_string(num_unit));
  }
  return Status::OK();
}

}  // namespace relational
}  // namespace scube
