#include "relational/dictionary.h"

namespace scube {
namespace relational {

Code Dictionary::GetOrAdd(std::string_view value) {
  auto it = index_.find(value);
  if (it != index_.end()) return it->second;
  Code code = static_cast<Code>(values_.size());
  values_.emplace_back(value);
  index_.emplace(values_.back(), code);
  return code;
}

}  // namespace relational
}  // namespace scube
