// Dictionary: bidirectional string <-> dense code mapping.

#ifndef SCUBE_RELATIONAL_DICTIONARY_H_
#define SCUBE_RELATIONAL_DICTIONARY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace scube {
namespace relational {

/// Dense categorical code; per-attribute dictionaries start at 0.
using Code = uint32_t;

inline constexpr Code kNullCode = 0xFFFFFFFFu;

/// \brief Append-only dictionary used by categorical columns.
class Dictionary {
 public:
  /// Returns the code of `value`, inserting it if new. Codes follow the
  /// order in which values were first added.
  Code GetOrAdd(std::string_view value);

  /// The string for a code; code must be < size().
  const std::string& ValueOf(Code code) const { return values_[code]; }

  size_t size() const { return values_.size(); }

 private:
  // Hashes a string and a view of it alike, so a lookup copies nothing.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<std::string> values_;
  std::unordered_map<std::string, Code, Hash, std::equal_to<>> index_;
};

}  // namespace relational
}  // namespace scube

#endif  // SCUBE_RELATIONAL_DICTIONARY_H_
