#include "statements.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "indexes/segregation_index.h"
#include "query/executor.h"
#include "query/parser.h"

namespace perfbench {

using namespace scube;

namespace {

// Zipf exponent of the rank draw within one verb. It must not be 1.0:
// Rng::NextZipf's rejection test divides (t - 1) by (b - 1), and with
// s = 1 both are 0, so the test is NaN, never passes, and the draw never
// returns. Any other exponent terminates.
constexpr double kZipfExponent = 1.15;

// Verb shares of the explore mix (order of kVerbs): SLICE 20%, DICE..LIMIT
// 100 20%, DRILLDOWN 15%, ROLLUP 10%, TOPK 20%, SURPRISES 8%, REVERSALS 7%.
constexpr std::array<double, kVerbs.size()> kVerbShare = {
    0.20, 0.20, 0.15, 0.10, 0.20, 0.08, 0.07};

// Distinct statements per verb: ~4 000 in all.
constexpr std::array<size_t, kVerbs.size()> kVerbTexts = {
    800, 800, 600, 400, 800, 320, 280};

// Answer-size strata of the rank assignment (see StratifyRanks).
constexpr size_t kStrata = 10;

const std::vector<std::string>& IndexNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      out.push_back(indexes::IndexKindToString(kind));
    }
    return out;
  }();
  return names;
}

std::string Quote(const std::string& value) {
  char q = value.find('\'') == std::string::npos ? '\'' : '"';
  return std::string(1, q) + value + q;
}

std::string Part(const relational::ItemCatalog& catalog,
                 const fpm::Itemset& items, const char* axis) {
  std::string out;
  for (fpm::ItemId item : items.items()) {
    const relational::ItemInfo& info = catalog.info(item);
    out += out.empty() ? std::string(axis) + "=" : "&";
    out += info.attr_name + "=" + Quote(info.value);
  }
  return out;
}

/// "sa=a='x'&b='y' | ca=c='z'" for the non-empty parts.
std::string Coords(const relational::ItemCatalog& catalog,
                   const fpm::Itemset& sa, const fpm::Itemset& ca) {
  std::string s = Part(catalog, sa, "sa");
  std::string c = Part(catalog, ca, "ca");
  if (s.empty()) return c;
  if (c.empty()) return s;
  return s + " | " + c;
}

/// Keeps a random non-empty subset of `items` of at most `max` items.
fpm::Itemset Subset(const fpm::Itemset& items, size_t max, Rng& rng) {
  std::vector<fpm::ItemId> v = items.items();
  rng.Shuffle(&v);
  v.resize(std::min(v.size(), 1 + rng.NextBounded(max)));
  return fpm::Itemset(std::move(v));
}

std::string Where(Rng& rng) {
  static const int kThresholds[] = {0, 0, 10, 20, 50, 100, 200, 500};
  int t = kThresholds[rng.NextBounded(std::size(kThresholds))];
  return t == 0 ? "" : " WHERE T >= " + std::to_string(t);
}

const std::string& AnyIndex(Rng& rng) {
  return IndexNames()[rng.NextBounded(IndexNames().size())];
}

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// Orders one verb's statements into Zipf ranks. The statements are cut
/// into kStrata equal strata by answer size, each stratum is shuffled, and
/// rank r takes the next statement of stratum r mod kStrata. A random rank
/// order lets the few hot head ranks (rank 1 alone gets ~10% of a verb's
/// draws) land on a one-row or a thousand-row answer by luck of the seed:
/// over eight seeds, in-process CPU per request then spread by 0.22 of its
/// median (quartile distance). Stratified, every seed's head spans the
/// answer sizes alike, and it spread by 0.06.
void StratifyRanks(const std::vector<size_t>& rows, Rng& rng,
                   std::vector<uint32_t>* ids) {
  std::vector<uint32_t> by_size = *ids;
  std::stable_sort(by_size.begin(), by_size.end(),
                   [&](uint32_t a, uint32_t b) { return rows[a] < rows[b]; });
  std::array<std::vector<uint32_t>, kStrata> strata;
  for (size_t i = 0; i < by_size.size(); ++i) {
    strata[i * kStrata / by_size.size()].push_back(by_size[i]);
  }
  ids->clear();
  for (std::vector<uint32_t>& stratum : strata) rng.Shuffle(&stratum);
  for (size_t round = 0; ids->size() < by_size.size(); ++round) {
    for (const std::vector<uint32_t>& stratum : strata) {
      if (round < stratum.size()) ids->push_back(stratum[round]);
    }
  }
}

}  // namespace

ExploreMix::ExploreMix(const cube::CubeView& view, uint64_t seed) {
  Rng rng(seed ^ 0xE1F0A11CEULL);
  const relational::ItemCatalog& catalog = view.catalog();
  auto cells = view.Cells();
  auto random_cell = [&]() -> const cube::CubeCell& {
    return cells[rng.NextBounded(cells.size())];
  };

  std::unordered_set<std::string> seen;
  for (size_t verb = 0; verb < kVerbs.size(); ++verb) {
    size_t want = kVerbTexts[verb];
    for (size_t attempt = 0; by_verb_[verb].size() < want && attempt < want * 20;
         ++attempt) {
      std::string text;
      const cube::CubeCell& cell = random_cell();
      const fpm::Itemset& sa = cell.coords.sa;
      const fpm::Itemset& ca = cell.coords.ca;
      switch (verb) {
        case 0: {  // SLICE: a slice group (one axis) or a point (both)
          uint64_t shape = rng.NextBounded(3);
          fpm::Itemset s = shape == 1 ? fpm::Itemset() : sa;
          fpm::Itemset c = shape == 0 ? fpm::Itemset() : ca;
          if (s.empty() && c.empty()) continue;
          text = "SLICE " + Coords(catalog, s, c) + Where(rng);
          break;
        }
        case 1: {  // DICE: a subcube by 1-2 items, first page of 100
          fpm::Itemset s = sa.empty() ? sa : Subset(sa, 2, rng);
          fpm::Itemset c = ca.empty() ? ca : Subset(ca, 1, rng);
          if (rng.NextBool(0.3)) s = fpm::Itemset();
          if (s.empty() && c.empty()) continue;
          text = "DICE " + Coords(catalog, s, c) + Where(rng) + " LIMIT 100";
          break;
        }
        case 2: {  // DRILLDOWN one cell (bare DRILLDOWN for the root)
          std::string coords = Coords(catalog, sa, ca);
          text = coords.empty() ? "DRILLDOWN" : "DRILLDOWN " + coords;
          break;
        }
        case 3:  // ROLLUP one cell
          if (sa.empty() && ca.empty()) continue;
          text = "ROLLUP " + Coords(catalog, sa, ca);
          break;
        case 4:  // TOPK
          text = "TOPK " + std::to_string(1 + rng.NextBounded(100)) + " BY " +
                 AnyIndex(rng) + Where(rng);
          break;
        case 5:  // SURPRISES
          text = "SURPRISES BY " + AnyIndex(rng) + " MINDELTA " +
                 Fixed2(0.01 * static_cast<double>(1 + rng.NextBounded(30))) +
                 " LIMIT " + std::to_string(10 * (1 + rng.NextBounded(5)));
          break;
        case 6:  // REVERSALS
          text = "REVERSALS BY " + AnyIndex(rng) + " MINGAP " +
                 Fixed2(0.01 * static_cast<double>(1 + rng.NextBounded(30))) +
                 " LIMIT " + std::to_string(10 * (1 + rng.NextBounded(5)));
          break;
      }
      if (!seen.insert(text).second) continue;
      by_verb_[verb].push_back(static_cast<uint32_t>(texts_.size()));
      verb_of_.push_back(verb);
      texts_.push_back(std::move(text));
    }
  }

  // Answer sizes, from the snapshot's own executor.
  query::Executor executor(view);
  std::vector<size_t> rows;
  rows.reserve(texts_.size());
  for (const std::string& text : texts_) {
    size_t n = 0;
    if (auto parsed = query::Parse(text); parsed.ok()) {
      if (auto result = executor.Execute(*parsed); result.ok()) n = result->rows.size();
    }
    rows.push_back(n);
  }
  for (std::vector<uint32_t>& ids : by_verb_) StratifyRanks(rows, rng, &ids);
}

uint32_t ExploreMix::Next(Rng& rng) const {
  double draw = rng.NextDouble();
  size_t verb = 0;
  for (double acc = kVerbShare[0]; verb + 1 < kVerbs.size() && draw >= acc;) {
    acc += kVerbShare[++verb];
  }
  const std::vector<uint32_t>& ids = by_verb_[verb];
  uint64_t rank = rng.NextZipf(ids.size(), kZipfExponent) - 1;
  return ids[rank];
}

StreamMix::StreamMix(const cube::CubeView& view) {
  // Full-cube ranked exports: k above the cell count returns every
  // defined cell in rank order.
  for (const std::string& index : IndexNames()) {
    Export e;
    e.base = "TOPK 1000000 BY " + index;
    e.sent = e.base;
    exports_.push_back(std::move(e));
  }
  num_full_ = exports_.size();

  // Subcube exports of 200..6 600 cells by one SA item, one CA item or
  // one of each, paged 250 rows at a time. The 48 kept have sizes spread
  // log-uniformly over that range, so the page count of the mix does not
  // swing with the seed's cube.
  constexpr double kMinRows = 200, kMaxRows = 6600;
  constexpr size_t kWanted = 48;
  const relational::ItemCatalog& catalog = view.catalog();
  std::vector<fpm::ItemId> sa_items, ca_items;
  for (fpm::ItemId item = 0; item < catalog.size(); ++item) {
    auto kind = catalog.info(item).kind;
    if (kind == relational::AttributeKind::kSegregation) sa_items.push_back(item);
    if (kind == relational::AttributeKind::kContext) ca_items.push_back(item);
  }
  struct Candidate {
    double rows;
    std::string base;
  };
  std::vector<Candidate> candidates;
  auto consider = [&](const fpm::Itemset& sa, const fpm::Itemset& ca) {
    double rows = static_cast<double>(view.Dice(sa, ca).size());
    if (rows >= kMinRows && rows <= kMaxRows) {
      candidates.push_back({rows, "DICE " + Coords(catalog, sa, ca)});
    }
  };
  for (fpm::ItemId sa : sa_items) consider(fpm::Itemset({sa}), fpm::Itemset());
  for (fpm::ItemId ca : ca_items) consider(fpm::Itemset(), fpm::Itemset({ca}));
  for (fpm::ItemId sa : sa_items) {
    for (fpm::ItemId ca : ca_items) consider(fpm::Itemset({sa}), fpm::Itemset({ca}));
  }
  std::vector<bool> used(candidates.size(), false);
  for (size_t i = 0; i < kWanted && i < candidates.size(); ++i) {
    double target = std::log(kMinRows) + std::log(kMaxRows / kMinRows) *
                                             (static_cast<double>(i) + 0.5) / kWanted;
    size_t best = candidates.size();
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (used[c]) continue;
      if (best == candidates.size() ||
          std::abs(std::log(candidates[c].rows) - target) <
              std::abs(std::log(candidates[best].rows) - target)) {
        best = c;
      }
    }
    used[best] = true;
    Export e;
    e.base = candidates[best].base;
    e.sent = e.base + " LIMIT 250";
    e.paged = true;
    exports_.push_back(std::move(e));
  }
}

uint32_t StreamMix::Next(Rng& rng, bool* csv) const {
  *csv = rng.NextBool(0.5);
  bool full = exports_.size() == num_full_ || rng.NextBool(0.5);
  if (full) return static_cast<uint32_t>(rng.NextBounded(num_full_));
  return static_cast<uint32_t>(num_full_ +
                               rng.NextBounded(exports_.size() - num_full_));
}

}  // namespace perfbench
