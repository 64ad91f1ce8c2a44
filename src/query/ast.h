// SCubeQL abstract syntax: the typed form of one cube query.
//
// A query is a verb over cube coordinates plus optional FROM / WHERE /
// ORDER BY / LIMIT clauses:
//
//   SLICE sa=sex=F & age=young | ca=region=north
//   DICE ca=region=north
//   ROLLUP sa=sex=F | ca=region=north
//   DRILLDOWN sa=sex=F
//   TOPK 5 BY dissimilarity WHERE T >= 30 AND M >= 5
//   SURPRISES BY gini MINDELTA 0.2 LIMIT 10
//   REVERSALS MINGAP 0.3 FROM italy_2012
//   TOPK 3 BY gini FROM italy_2012@2        (exact sealed-version pin)
//
// Navigation verbs (SLICE/DICE/ROLLUP/DRILLDOWN) address cells by
// attribute=value coordinates; analytic verbs (TOPK/SURPRISES/REVERSALS)
// lower onto the cube explorer. `Canonical()` renders a normalised text
// form: the result-cache key, the statement a scatter router sends each
// shard, and the input of the cursor hash.

#ifndef SCUBE_QUERY_AST_H_
#define SCUBE_QUERY_AST_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "indexes/segregation_index.h"

namespace scube {
namespace query {

/// The seven SCubeQL verbs.
enum class Verb {
  kSlice,       ///< cells at exact SA and/or CA coordinates
  kDice,        ///< subcube: cells whose coordinates contain the given items
  kRollup,      ///< roll-up parents of one cell
  kDrilldown,   ///< drill-down children of one cell (root when no coords)
  kTopK,        ///< top-k cells by one segregation index
  kSurprises,   ///< drill-down surprises (explorer)
  kReversals,   ///< Simpson-style granularity reversals (explorer)
};

const char* VerbToString(Verb verb);

/// Number of Verb enumerators (per-verb metric arrays index by Verb).
constexpr size_t kNumVerbs = 7;

/// \brief One coordinate constraint, e.g. {"sex", "F"}.
struct AttrValue {
  std::string attr;
  std::string value;

  bool operator==(const AttrValue& other) const {
    return attr == other.attr && value == other.value;
  }
  bool operator<(const AttrValue& other) const {
    if (attr != other.attr) return attr < other.attr;
    return value < other.value;
  }
};

/// \brief ORDER BY key: an index name, or the T / M counts.
struct OrderBy {
  enum class Key { kIndex, kContextSize, kMinoritySize };
  Key key = Key::kIndex;
  indexes::IndexKind index = indexes::IndexKind::kDissimilarity;
  bool descending = true;

  bool operator==(const OrderBy& other) const {
    return key == other.key && index == other.index &&
           descending == other.descending;
  }
};

/// \brief A parsed SCubeQL query.
struct Query {
  Verb verb = Verb::kSlice;

  /// FROM clause: which published cube to query ("" = the default cube).
  std::string cube;

  /// `FROM name@version` pin: answer from this exact sealed version (the
  /// store keeps the last K). Unset = the latest version.
  std::optional<uint64_t> cube_version;

  /// Coordinate constraints (`sa=...` / `ca=...` parts).
  std::vector<AttrValue> sa;
  std::vector<AttrValue> ca;

  /// TOPK count.
  uint32_t k = 10;

  /// BY index; defaults to dissimilarity when the clause is absent.
  indexes::IndexKind by = indexes::IndexKind::kDissimilarity;

  /// SURPRISES MINDELTA / REVERSALS MINGAP threshold.
  double threshold = 0.1;

  /// WHERE T >= min_t AND M >= min_m. Unset parts fall back to verb
  /// defaults (explorer defaults for analytic verbs, no filter for
  /// navigation verbs).
  std::optional<uint64_t> min_t;
  std::optional<uint64_t> min_m;

  std::optional<OrderBy> order;

  /// LIMIT n OFFSET k: the page [offset, offset + limit) of the ordered
  /// row stream. OFFSET without LIMIT skips a prefix; LIMIT without OFFSET
  /// takes one. Cursor resumption rewrites `offset` to the resume position.
  std::optional<uint64_t> limit;
  std::optional<uint64_t> offset;

  bool operator==(const Query& other) const;
};

/// Renders the query in normalised text form: uppercase keywords, sorted
/// coordinate constraints, canonical spacing. Parsing the canonical form
/// yields an equal Query; equal queries share one canonical form, which is
/// what the result cache keys on. Thresholds render exactly
/// (ExactDoubleText): "0.05" stays "0.05", and two thresholds that agree
/// to six digits still get two texts.
std::string Canonical(const Query& query);

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_AST_H_
