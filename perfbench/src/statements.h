// Seeded SCubeQL statement streams drawn from the cube's own catalog and
// cells: the explore mix (an analyst navigating the cube) and the stream
// mix (large exports).

#ifndef SCUBE_PERFBENCH_STATEMENTS_H_
#define SCUBE_PERFBENCH_STATEMENTS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "cube/cube_view.h"

namespace perfbench {

/// The seven verbs in mix order.
inline constexpr std::array<const char*, 7> kVerbs = {
    "slice", "dice", "drilldown", "rollup", "topk", "surprises", "reversals"};

/// \brief The explore mix: ~4 000 distinct statements, 16x the default
/// 256-entry result cache; each draw picks a verb by its share, then a
/// statement of that verb Zipf-skewed by rank. Construction executes every
/// statement once on `view` to stratify the ranks by answer size.
class ExploreMix {
 public:
  ExploreMix(const scube::cube::CubeView& view, uint64_t seed);

  /// Draws the next statement id.
  uint32_t Next(scube::Rng& rng) const;

  const std::string& text(uint32_t id) const { return texts_[id]; }
  /// Index into kVerbs.
  size_t verb(uint32_t id) const { return verb_of_[id]; }
  size_t size() const { return texts_.size(); }

 private:
  std::vector<std::string> texts_;
  std::vector<size_t> verb_of_;
  std::array<std::vector<uint32_t>, kVerbs.size()> by_verb_;
};

/// \brief One export: the statement without LIMIT (the unpaged answer a
/// stitched export must equal) and the text actually sent.
struct Export {
  std::string base;  ///< unpaged statement
  std::string sent;  ///< base, plus " LIMIT n" for paged exports
  bool paged = false;
};

/// \brief The stream mix: full-cube ranked TOPK exports (above the
/// 10 000-row cache_max_rows, so never served from the cache) and
/// subcube DICE exports paged by LIMIT plus cursor.
class StreamMix {
 public:
  explicit StreamMix(const scube::cube::CubeView& view);

  /// Draws the next export id; `csv` receives the format (half each).
  uint32_t Next(scube::Rng& rng, bool* csv) const;
  const Export& get(uint32_t id) const { return exports_[id]; }
  size_t size() const { return exports_.size(); }

 private:
  std::vector<Export> exports_;
  size_t num_full_ = 0;  ///< exports_[0, num_full_) are the TOPK exports
};

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_STATEMENTS_H_
