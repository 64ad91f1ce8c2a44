// FIG1: regenerates the paper's Figure 1 — a 3-dimensional segregation data
// cube (sex x age x region) filled with the dissimilarity index, including
// the "⋆" roll-up coordinates and the "-" cells (undefined / infrequent).
//
// The population is synthetic (the paper draws it from the Italian case
// study); organisational units are six job types with planted gender/age
// imbalances so the grid shows the same qualitative structure: values
// spread over [0,1], roll-ups smoother than drill-downs, dashes where the
// minority is degenerate or infrequent.

#include <cstdio>

#include "common/random.h"
#include "cube/builder.h"
#include "viz/report.h"

using namespace scube;

int main() {
  using relational::AttributeKind;
  using relational::ColumnType;

  relational::Schema schema({
      {"sex", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"age", ColumnType::kCategorical, AttributeKind::kSegregation},
      {"region", ColumnType::kCategorical, AttributeKind::kContext},
      {"job", ColumnType::kCategorical, AttributeKind::kUnit},
  });
  relational::Table table(schema);

  const char* kJobs[] = {"engineer", "teacher", "nurse",
                         "manager", "clerk", "builder"};
  // Planted P(female | job): strongly uneven.
  const double kFemaleByJob[] = {0.15, 0.65, 0.85, 0.25, 0.55, 0.05};
  const char* kAges[] = {"young", "middle", "elder"};
  const char* kRegions[] = {"north", "south"};

  Rng rng(1234);
  for (int i = 0; i < 4000; ++i) {
    size_t job = rng.NextBounded(6);
    size_t region = rng.NextBounded(2);
    // South skews older and slightly less female in every job.
    size_t age = rng.NextCategorical(
        region == 0 ? std::vector<double>{0.35, 0.40, 0.25}
                    : std::vector<double>{0.25, 0.40, 0.35});
    double female_p = kFemaleByJob[job] - (region == 1 ? 0.07 : 0.0);
    const char* sex = rng.NextBool(female_p) ? "female" : "male";
    Status s = table.AppendRowFromStrings(
        {sex, kAges[age], kRegions[region], kJobs[job]});
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  cube::CubeBuilderOptions options;
  options.min_support = 40;  // infrequent cells become "-" (as in Fig. 1)
  options.mode = fpm::MineMode::kAll;
  options.max_sa_items = 2;
  options.max_ca_items = 1;
  cube::CubeBuildStats stats;
  auto built = cube::BuildSegregationCube(table, options, &stats);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  cube::CubeView cube = std::move(built).value().Seal();

  std::printf("FIG1: segregation data cube with dissimilarity index\n");
  std::printf("population=%zu units=6 job types; cells=%zu (defined %zu); "
              "mined itemsets=%llu\n\n",
              table.NumRows(), cube.NumCells(), cube.NumDefinedCells(),
              static_cast<unsigned long long>(stats.mined_itemsets));

  // One sex x region grid per age slab (matching Fig. 1's age dimension).
  const auto& catalog = cube.catalog();
  for (const char* age : {"young", "middle", "elder"}) {
    fpm::ItemId item = catalog.Find("age", age);
    viz::PivotSpec spec;
    spec.sa_attribute = "sex";
    spec.ca_attribute = "region";
    if (item != fpm::kInvalidItem) spec.fixed_sa = fpm::Itemset({item});
    auto grid = viz::RenderPivotTable(cube, spec);
    std::printf("age = %s\n%s\n", age,
                grid.ok() ? grid->c_str() : grid.status().ToString().c_str());
  }
  viz::PivotSpec star;
  star.sa_attribute = "sex";
  star.ca_attribute = "region";
  auto grid = viz::RenderPivotTable(cube, star);
  std::printf("age = *\n%s\n",
              grid.ok() ? grid->c_str() : grid.status().ToString().c_str());

  std::printf("Shape checks (paper Fig. 1): values in [0,1]; '-' appears "
              "for degenerate/infrequent cells; nurse/builder jobs drive "
              "high sex dissimilarity.\n");
  return 0;
}
