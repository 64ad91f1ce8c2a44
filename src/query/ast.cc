#include "query/ast.h"

#include "common/string_util.h"

namespace scube {
namespace query {

namespace {

bool NeedsQuoting(const std::string& value) {
  if (value.empty()) return true;
  for (char c : value) {
    bool plain = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                 (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!plain) return true;
  }
  return false;
}

std::string RenderValue(const std::string& value) {
  if (!NeedsQuoting(value)) return value;
  // A quoted value ends at the next copy of its opening quote, so a value
  // holding a ' (lexed from "...") is quoted with ", which it cannot hold.
  const char quote = value.find('\'') == std::string::npos ? '\'' : '"';
  return quote + value + quote;
}

std::string RenderConjunction(const std::vector<AttrValue>& items) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += " & ";
    out += items[i].attr + "=" + RenderValue(items[i].value);
  }
  return out;
}

std::string RenderOrderKey(const OrderBy& order) {
  switch (order.key) {
    case OrderBy::Key::kContextSize:
      return "T";
    case OrderBy::Key::kMinoritySize:
      return "M";
    case OrderBy::Key::kIndex:
      break;
  }
  return indexes::IndexKindToString(order.index);
}

}  // namespace

const char* VerbToString(Verb verb) {
  switch (verb) {
    case Verb::kSlice:
      return "SLICE";
    case Verb::kDice:
      return "DICE";
    case Verb::kRollup:
      return "ROLLUP";
    case Verb::kDrilldown:
      return "DRILLDOWN";
    case Verb::kTopK:
      return "TOPK";
    case Verb::kSurprises:
      return "SURPRISES";
    case Verb::kReversals:
      return "REVERSALS";
  }
  return "?";
}

bool Query::operator==(const Query& other) const {
  return verb == other.verb && cube == other.cube &&
         cube_version == other.cube_version && sa == other.sa &&
         ca == other.ca && k == other.k && by == other.by &&
         threshold == other.threshold && min_t == other.min_t &&
         min_m == other.min_m && order == other.order &&
         limit == other.limit && offset == other.offset;
}

std::string Canonical(const Query& query) {
  std::string out = VerbToString(query.verb);
  switch (query.verb) {
    case Verb::kTopK:
      out += " " + std::to_string(query.k) + " BY " +
             indexes::IndexKindToString(query.by);
      break;
    case Verb::kSurprises:
      out += std::string(" BY ") + indexes::IndexKindToString(query.by) +
             " MINDELTA " + ExactDoubleText(query.threshold);
      break;
    case Verb::kReversals:
      out += std::string(" BY ") + indexes::IndexKindToString(query.by) +
             " MINGAP " + ExactDoubleText(query.threshold);
      break;
    default:
      break;
  }
  if (!query.sa.empty()) out += " sa=" + RenderConjunction(query.sa);
  if (!query.sa.empty() && !query.ca.empty()) out += " |";
  if (!query.ca.empty()) out += " ca=" + RenderConjunction(query.ca);
  if (!query.cube.empty()) {
    out += " FROM " + query.cube;
    if (query.cube_version) out += "@" + std::to_string(*query.cube_version);
  }
  if (query.min_t || query.min_m) {
    out += " WHERE ";
    if (query.min_t) out += "T >= " + std::to_string(*query.min_t);
    if (query.min_t && query.min_m) out += " AND ";
    if (query.min_m) out += "M >= " + std::to_string(*query.min_m);
  }
  if (query.order) {
    out += " ORDER BY " + RenderOrderKey(*query.order) +
           (query.order->descending ? " DESC" : " ASC");
  }
  if (query.limit) out += " LIMIT " + std::to_string(*query.limit);
  if (query.offset) out += " OFFSET " + std::to_string(*query.offset);
  return out;
}

}  // namespace query
}  // namespace scube
