// Synthetic board-of-directors scenarios.
//
// The demo explores two proprietary registries: a 2012 snapshot of Italian
// companies (3.6M directors, 2.15M companies) and a 20-year Estonian
// registry (440K directors, 340K companies). Neither is redistributable, so
// this module generates synthetic replicas with the same *structure*:
// realistic marginals (gender share, age profile, sector and province
// distributions), interlocking directorates (directors sitting on several
// boards, preferentially within a province), and — crucially — *planted*
// gender segregation whose ground truth is returned alongside the data, so
// discovery quality is measurable. Scale factors shrink the population while
// preserving every code path.

#ifndef SCUBE_DATAGEN_SCENARIOS_H_
#define SCUBE_DATAGEN_SCENARIOS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "etl/inputs.h"

namespace scube {
namespace datagen {

/// \brief One industry sector with its planted gender mix.
struct SectorSpec {
  std::string name;
  double weight = 1.0;        ///< relative company frequency
  double female_share = 0.3;  ///< planted share of women on new seats
};

/// \brief One province (NUTS-3-like) with region and residence bias.
struct ProvinceSpec {
  std::string name;
  std::string region;        ///< "north" / "south" (CA roll-up level)
  double weight = 1.0;       ///< relative company frequency
  double female_bias = 0.0;  ///< additive shift applied to female_share
};

/// \brief Scenario parameters.
struct ScenarioConfig {
  std::string country = "IT";
  uint32_t num_companies = 21500;  ///< Italian 1/100 scale by default
  uint64_t seed = 0x17A12012ULL;

  std::vector<SectorSpec> sectors;
  std::vector<ProvinceSpec> provinces;

  /// Probability that a board seat is filled by an existing director
  /// (creates interlocks — the edges of the projected company graph).
  /// Every scenario shares the age profile, the birthplace mix, the
  /// same-province reuse rate and the board-size law (scenarios.cc).
  double multi_board_prob = 0.25;

  /// Temporal registries (Estonian style): memberships get validity years
  /// in [start_year, end_year); company founding years are uniform.
  bool temporal = false;
  int64_t start_year = 2012;
  int64_t end_year = 2013;

  /// Linear drift of female share over the temporal range (e.g. +0.15 means
  /// boards feminise by 15 points across the registry's life).
  double female_share_drift = 0.0;
};

/// Preset mirroring the Italian case study at `scale` (1.0 = paper size).
ScenarioConfig ItalianConfig(double scale = 0.01, uint64_t seed = 2012);

/// Preset mirroring the Estonian 20-year registry at `scale`.
ScenarioConfig EstonianConfig(double scale = 0.05, uint64_t seed = 1995);

/// \brief Generated data plus the planted ground truth.
struct GeneratedScenario {
  etl::ScubeInputs inputs;
  std::vector<graph::Date> snapshot_years;

  /// Realised female share per sector / per province (ground truth the
  /// discovery should surface).
  std::map<std::string, double> sector_female_share;
  std::map<std::string, double> province_female_share;

  /// Index of schema columns for convenience.
  int individual_gender_col = -1;
  int individual_age_col = -1;
  int individual_age_bin_col = -1;
  int individual_birthplace_col = -1;
  int individual_province_col = -1;
  int individual_region_col = -1;
  int group_sector_col = -1;
  int group_province_col = -1;
  int group_region_col = -1;
};

/// Generates a scenario. Deterministic given config.seed.
Result<GeneratedScenario> GenerateScenario(const ScenarioConfig& config);

/// The 20 Italian company sectors used by Fig. 5, with planted female
/// shares (education/health female-leaning; construction/mining male-heavy).
std::vector<SectorSpec> ItalianSectors();

/// A 20-province subset of the Italian provinces (10 north, 10 south) with
/// a planted north-south gradient.
std::vector<ProvinceSpec> ItalianProvinces();

/// Estonian counterparts (15 counties, single "north"-like region split).
std::vector<SectorSpec> EstonianSectors();
std::vector<ProvinceSpec> EstonianProvinces();

}  // namespace datagen
}  // namespace scube

#endif  // SCUBE_DATAGEN_SCENARIOS_H_
