// Significance screening: segregation indexes on small contexts can be high
// by chance. This example ranks contexts by dissimilarity and then runs the
// permutation test (indexes/significance.h, an extension beyond the paper)
// to separate statistically solid findings from small-sample noise. Exits 1
// if a rebuilt per-unit distribution disagrees with its cell's T or M.
//
// Run:  ./significance

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "cube/explorer.h"
#include "datagen/scenarios.h"
#include "indexes/significance.h"
#include "scube/pipeline.h"

int main() {
  using namespace scube;

  auto scenario = datagen::GenerateScenario(datagen::ItalianConfig(0.001, 99));
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }

  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.cube.min_support = 5;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  // Candidate contexts, including small ones on purpose.
  cube::ExplorerOptions explore;
  explore.min_context_size = 20;
  explore.min_minority_size = 3;
  cube::CubeView view = std::move(result->cube).Seal();
  auto top = cube::TopSegregatedContexts(
      view, indexes::IndexKind::kDissimilarity, 12, explore);

  // Re-derive each cell's per-unit counts for the permutation test by
  // scanning the encoded relation's transactions.
  auto encoded = relational::EncodeForAnalysis(result->final_table);
  if (!encoded.ok()) {
    std::fprintf(stderr, "%s\n", encoded.status().ToString().c_str());
    return 1;
  }

  std::printf("%-9s %-9s %-8s %-9s %-9s  %s\n", "D", "nullMean", "p",
              "T", "M", "context");
  for (const auto& rc : top) {
    // Rebuild the cell's GroupDistribution: a row is in the context when
    // its transaction holds every CA item, and in the minority when it
    // also holds every SA item.
    const auto& ca = rc.cell->coords.ca.items();
    const auto& sa = rc.cell->coords.sa.items();
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> per_unit;
    for (uint32_t row = 0; row < encoded->db.NumTransactions(); ++row) {
      const auto& t = encoded->db.Transaction(row);
      if (!std::includes(t.begin(), t.end(), ca.begin(), ca.end())) continue;
      auto& [total, minority] = per_unit[encoded->row_unit[row]];
      ++total;
      if (std::includes(t.begin(), t.end(), sa.begin(), sa.end())) {
        ++minority;
      }
    }
    indexes::GroupDistribution dist;
    for (const auto& [unit, tm] : per_unit) {
      dist.AddUnit(tm.first, tm.second);
    }
    if (dist.Total() != rc.cell->context_size ||
        dist.Minority() != rc.cell->minority_size) {
      std::fprintf(stderr, "rebuilt T=%llu M=%llu differ from cell %s\n",
                   static_cast<unsigned long long>(dist.Total()),
                   static_cast<unsigned long long>(dist.Minority()),
                   view.LabelOf(rc.cell->coords).c_str());
      return 1;
    }

    indexes::SignificanceOptions opts;
    opts.num_samples = 300;
    auto test = indexes::PermutationTest(
        indexes::IndexKind::kDissimilarity, dist, opts);
    if (!test.ok()) continue;
    std::printf("%-9.3f %-9.3f %-8.3f %-9llu %-9llu  %s%s\n",
                test->observed, test->null_mean, test->p_value,
                static_cast<unsigned long long>(rc.cell->context_size),
                static_cast<unsigned long long>(rc.cell->minority_size),
                view.LabelOf(rc.cell->coords).c_str(),
                test->p_value < 0.05 ? "  *" : "");
  }
  std::printf("\n'*' marks contexts whose dissimilarity is significant at "
              "p < 0.05 under random minority placement.\n");
  return 0;
}
