#include "datagen/scenarios.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "relational/binning.h"

namespace scube {
namespace datagen {

using relational::AttributeKind;
using relational::CodedCell;
using relational::ColumnType;
using relational::Schema;
using relational::Table;

std::vector<SectorSpec> ItalianSectors() {
  return {
      {"agriculture", 0.060, 0.22},   {"mining", 0.010, 0.10},
      {"manufacturing", 0.180, 0.20}, {"electricity", 0.010, 0.15},
      {"water", 0.010, 0.18},         {"construction", 0.120, 0.12},
      {"trade", 0.200, 0.28},         {"transport", 0.050, 0.16},
      {"hospitality", 0.060, 0.35},   {"ict", 0.040, 0.26},
      {"finance", 0.030, 0.30},       {"realestate", 0.050, 0.33},
      {"professional", 0.060, 0.32},  {"administrative", 0.030, 0.30},
      {"publicadmin", 0.005, 0.33},   {"education", 0.010, 0.55},
      {"health", 0.020, 0.52},        {"arts", 0.015, 0.38},
      {"otherservices", 0.020, 0.42}, {"domestic", 0.005, 0.60},
  };
}

std::vector<ProvinceSpec> ItalianProvinces() {
  return {
      {"Milano", "north", 3.0, 0.03},   {"Torino", "north", 2.0, 0.03},
      {"Genova", "north", 1.0, 0.02},   {"Venezia", "north", 1.0, 0.03},
      {"Bologna", "north", 1.2, 0.04},  {"Firenze", "north", 1.1, 0.03},
      {"Brescia", "north", 1.0, 0.02},  {"Verona", "north", 0.9, 0.02},
      {"Padova", "north", 0.9, 0.03},   {"Trieste", "north", 0.5, 0.02},
      {"Napoli", "south", 2.0, -0.06},  {"Bari", "south", 1.2, -0.05},
      {"Palermo", "south", 1.1, -0.07}, {"Catania", "south", 0.9, -0.06},
      {"ReggioCalabria", "south", 0.6, -0.08},
      {"Salerno", "south", 0.8, -0.05}, {"Foggia", "south", 0.5, -0.07},
      {"Taranto", "south", 0.5, -0.06}, {"Messina", "south", 0.5, -0.06},
      {"Cagliari", "south", 0.7, -0.04},
  };
}

std::vector<SectorSpec> EstonianSectors() {
  return {
      {"agriculture", 0.08, 0.28}, {"manufacturing", 0.16, 0.26},
      {"construction", 0.12, 0.15}, {"trade", 0.22, 0.34},
      {"transport", 0.08, 0.20},    {"ict", 0.08, 0.30},
      {"finance", 0.04, 0.38},      {"realestate", 0.08, 0.36},
      {"education", 0.04, 0.58},    {"health", 0.10, 0.55},
  };
}

std::vector<ProvinceSpec> EstonianProvinces() {
  return {
      {"Harju", "north", 4.0, 0.02},    {"Tartu", "south", 1.5, 0.01},
      {"Ida-Viru", "north", 1.0, -0.03}, {"Parnu", "south", 0.8, 0.00},
      {"Laane-Viru", "north", 0.6, -0.01}, {"Viljandi", "south", 0.5, 0.00},
      {"Rapla", "north", 0.4, 0.00},    {"Voru", "south", 0.4, -0.02},
      {"Saare", "south", 0.4, 0.01},    {"Jogeva", "south", 0.3, -0.01},
      {"Jarva", "north", 0.3, 0.00},    {"Valga", "south", 0.3, -0.02},
      {"Polva", "south", 0.3, -0.01},   {"Laane", "north", 0.3, 0.01},
      {"Hiiu", "north", 0.2, 0.02},
  };
}

ScenarioConfig ItalianConfig(double scale, uint64_t seed) {
  ScenarioConfig config;
  config.country = "IT";
  config.num_companies =
      std::max<uint32_t>(50, static_cast<uint32_t>(2150000.0 * scale));
  config.seed = seed;
  config.sectors = ItalianSectors();
  config.provinces = ItalianProvinces();
  config.temporal = false;
  return config;
}

ScenarioConfig EstonianConfig(double scale, uint64_t seed) {
  ScenarioConfig config;
  config.country = "EE";
  config.num_companies =
      std::max<uint32_t>(50, static_cast<uint32_t>(340000.0 * scale));
  config.seed = seed;
  config.sectors = EstonianSectors();
  config.provinces = EstonianProvinces();
  config.temporal = true;
  config.start_year = 1995;
  config.end_year = 2015;
  config.female_share_drift = 0.15;
  config.multi_board_prob = 0.20;
  return config;
}

namespace {

// The shape every scenario shares. Age profile (years), clipped to
// [18, 90].
constexpr double kAgeMean = 48.0;
constexpr double kAgeStddev = 10.0;

// Birthplace mix {north, south, foreign}, normalised by its sum.
constexpr double kBirthplaceNorth = 0.5;
constexpr double kBirthplaceSouth = 0.38;
constexpr double kBirthplaceForeign = 0.12;

// Probability that a reused director comes from the company's province
// (makes clusters geographically meaningful).
constexpr double kSameProvinceReuse = 0.8;

// Board size = Zipf(kMaxBoardSize, kBoardSizeSkew).
constexpr uint32_t kMaxBoardSize = 9;
constexpr double kBoardSizeSkew = 1.8;

struct DirectorDraft {
  bool female;
  int64_t age;
  std::string birthplace;
  uint32_t province;  // residence
};

Schema IndividualSchema() {
  return Schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"gender", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age", ColumnType::kInt64, AttributeKind::kIgnore},
      {"age_bin", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"birthplace", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"residence_province", ColumnType::kCategorical,
       AttributeKind::kContext},
      {"residence_region", ColumnType::kCategorical, AttributeKind::kContext},
  });
}

Schema GroupSchema() {
  return Schema({
      {"id", ColumnType::kInt64, AttributeKind::kId},
      {"sector", ColumnType::kCategorical, AttributeKind::kContext},
      {"hq_province", ColumnType::kCategorical, AttributeKind::kContext},
      {"hq_region", ColumnType::kCategorical, AttributeKind::kContext},
  });
}

}  // namespace

Result<GeneratedScenario> GenerateScenario(const ScenarioConfig& config) {
  if (config.sectors.empty() || config.provinces.empty()) {
    return Status::InvalidArgument("scenario needs sectors and provinces");
  }
  if (config.num_companies == 0) {
    return Status::InvalidArgument("num_companies must be positive");
  }
  if (config.temporal && config.end_year <= config.start_year) {
    return Status::InvalidArgument("temporal scenario needs end_year > "
                                   "start_year");
  }

  Rng rng(config.seed);
  std::vector<double> sector_weights, province_weights;
  for (const auto& s : config.sectors) sector_weights.push_back(s.weight);
  for (const auto& p : config.provinces) province_weights.push_back(p.weight);
  AliasSampler sector_sampler(sector_weights);
  AliasSampler province_sampler(province_weights);

  const int64_t years =
      config.temporal ? config.end_year - config.start_year : 1;

  // --- Companies ----------------------------------------------------------
  struct Company {
    uint32_t sector;
    uint32_t province;
    int64_t founded;
    int64_t dissolved;  // exclusive
    uint32_t board_size;
  };
  std::vector<Company> companies;
  companies.reserve(config.num_companies);
  for (uint32_t c = 0; c < config.num_companies; ++c) {
    Company company;
    company.sector = static_cast<uint32_t>(sector_sampler.Sample(&rng));
    company.province = static_cast<uint32_t>(province_sampler.Sample(&rng));
    if (config.temporal) {
      company.founded =
          config.start_year + static_cast<int64_t>(rng.NextBounded(
                                  static_cast<uint64_t>(years)));
      int64_t max_life = config.end_year - company.founded;
      int64_t life = 1 + static_cast<int64_t>(rng.NextBounded(
                             static_cast<uint64_t>(std::max<int64_t>(
                                 1, max_life))));
      company.dissolved = std::min(config.end_year, company.founded + life + 5);
    } else {
      company.founded = graph::kDateMin;
      company.dissolved = graph::kDateMax;
    }
    company.board_size = static_cast<uint32_t>(
        rng.NextZipf(kMaxBoardSize, kBoardSizeSkew));
    companies.push_back(company);
  }

  // --- Directors & seats ---------------------------------------------------
  std::vector<DirectorDraft> directors;
  std::vector<std::vector<uint32_t>> by_province(config.provinces.size());
  std::vector<graph::Membership> seats;
  // Ground-truth tallies (seat-weighted).
  std::vector<uint64_t> sector_seats(config.sectors.size(), 0);
  std::vector<uint64_t> sector_female(config.sectors.size(), 0);
  std::vector<uint64_t> province_seats(config.provinces.size(), 0);
  std::vector<uint64_t> province_female(config.provinces.size(), 0);

  auto female_probability = [&](uint32_t sector, uint32_t province,
                                int64_t year) {
    double p = config.sectors[sector].female_share +
               config.provinces[province].female_bias;
    if (config.temporal && config.female_share_drift != 0.0 && years > 1) {
      double progress = static_cast<double>(year - config.start_year) /
                        static_cast<double>(years - 1);
      p += config.female_share_drift * (progress - 0.5);
    }
    return std::clamp(p, 0.02, 0.98);
  };

  for (uint32_t c = 0; c < config.num_companies; ++c) {
    const Company& company = companies[c];
    for (uint32_t seat = 0; seat < company.board_size; ++seat) {
      int64_t seat_start = company.founded;
      int64_t seat_end = company.dissolved;
      if (config.temporal) {
        // Tenure: a sub-interval of the company's life.
        int64_t life = company.dissolved - company.founded;
        int64_t offset = static_cast<int64_t>(
            rng.NextBounded(static_cast<uint64_t>(std::max<int64_t>(1, life))));
        seat_start = company.founded + offset;
        int64_t tenure = 1 + static_cast<int64_t>(rng.NextBounded(12));
        seat_end = std::min(company.dissolved, seat_start + tenure);
        if (seat_end <= seat_start) seat_end = seat_start + 1;
      }

      uint32_t director;
      bool reuse = !directors.empty() && rng.NextBool(config.multi_board_prob);
      if (reuse) {
        const auto& pool = by_province[company.province];
        if (!pool.empty() && rng.NextBool(kSameProvinceReuse)) {
          director = pool[rng.NextBounded(pool.size())];
        } else {
          director =
              static_cast<uint32_t>(rng.NextBounded(directors.size()));
        }
      } else {
        DirectorDraft draft;
        draft.female = rng.NextBool(
            female_probability(company.sector, company.province,
                               config.temporal ? seat_start
                                               : config.start_year));
        double age = kAgeMean + kAgeStddev * rng.NextGaussian();
        draft.age = std::clamp<int64_t>(static_cast<int64_t>(age), 18, 90);
        double r = rng.NextDouble() *
                   (kBirthplaceNorth + kBirthplaceSouth + kBirthplaceForeign);
        if (r < kBirthplaceNorth) {
          draft.birthplace = "north";
        } else if (r < kBirthplaceNorth + kBirthplaceSouth) {
          draft.birthplace = "south";
        } else {
          draft.birthplace = "foreign";
        }
        draft.province = rng.NextBool(0.9)
                             ? company.province
                             : static_cast<uint32_t>(
                                   province_sampler.Sample(&rng));
        director = static_cast<uint32_t>(directors.size());
        directors.push_back(draft);
        by_province[draft.province].push_back(director);
      }

      seats.push_back(graph::Membership{director, c, seat_start, seat_end});
      ++sector_seats[company.sector];
      ++province_seats[company.province];
      if (directors[director].female) {
        ++sector_female[company.sector];
        ++province_female[company.province];
      }
    }
  }

  // --- Tables ---------------------------------------------------------------
  auto age_binner = relational::Binner::FromEdges({18, 39, 47, 55, 91});
  if (!age_binner.ok()) return age_binner.status();

  // Rows are appended as codes, in the columns of IndividualSchema() and
  // GroupSchema(). A braced list evaluates its elements in order, so each
  // row interns its values in column order.
  Table individuals(IndividualSchema());
  for (uint32_t d = 0; d < directors.size(); ++d) {
    const DirectorDraft& draft = directors[d];
    const ProvinceSpec& province = config.provinces[draft.province];
    const CodedCell row[] = {
        int64_t{d},
        individuals.AddDictionaryValue(1, draft.female ? "F" : "M"),
        draft.age,
        individuals.AddDictionaryValue(3, age_binner->LabelOf(draft.age)),
        individuals.AddDictionaryValue(4, draft.birthplace),
        individuals.AddDictionaryValue(5, province.name),
        individuals.AddDictionaryValue(6, province.region),
    };
    SCUBE_RETURN_IF_ERROR(individuals.AppendCodedRow(row));
  }

  Table groups(GroupSchema());
  for (uint32_t c = 0; c < config.num_companies; ++c) {
    const ProvinceSpec& province = config.provinces[companies[c].province];
    const CodedCell row[] = {
        int64_t{c},
        groups.AddDictionaryValue(1, config.sectors[companies[c].sector].name),
        groups.AddDictionaryValue(2, province.name),
        groups.AddDictionaryValue(3, province.region),
    };
    SCUBE_RETURN_IF_ERROR(groups.AppendCodedRow(row));
  }

  graph::BipartiteGraph membership(
      static_cast<uint32_t>(directors.size()), config.num_companies);
  for (const graph::Membership& m : seats) {
    SCUBE_RETURN_IF_ERROR(membership.AddMembership(
        m.individual, m.group, m.valid_from, m.valid_to));
  }

  GeneratedScenario out;
  out.inputs = etl::ScubeInputs(std::move(individuals), std::move(groups),
                                std::move(membership));
  if (config.temporal) {
    for (int64_t y = config.start_year; y < config.end_year; ++y) {
      out.snapshot_years.push_back(y);
    }
  } else {
    out.snapshot_years.push_back(0);
  }
  for (size_t s = 0; s < config.sectors.size(); ++s) {
    out.sector_female_share[config.sectors[s].name] =
        sector_seats[s] == 0 ? 0.0
                             : static_cast<double>(sector_female[s]) /
                                   static_cast<double>(sector_seats[s]);
  }
  for (size_t p = 0; p < config.provinces.size(); ++p) {
    out.province_female_share[config.provinces[p].name] =
        province_seats[p] == 0 ? 0.0
                               : static_cast<double>(province_female[p]) /
                                     static_cast<double>(province_seats[p]);
  }
  const Schema& is = out.inputs.individuals.schema();
  out.individual_gender_col = is.IndexOf("gender");
  out.individual_age_col = is.IndexOf("age");
  out.individual_age_bin_col = is.IndexOf("age_bin");
  out.individual_birthplace_col = is.IndexOf("birthplace");
  out.individual_province_col = is.IndexOf("residence_province");
  out.individual_region_col = is.IndexOf("residence_region");
  const Schema& gs = out.inputs.groups.schema();
  out.group_sector_col = gs.IndexOf("sector");
  out.group_province_col = gs.IndexOf("hq_province");
  out.group_region_col = gs.IndexOf("hq_region");
  return out;
}

}  // namespace datagen
}  // namespace scube
