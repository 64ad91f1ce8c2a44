// TableBuilder (paper §3): joins individual features with the features of
// the groups in an organisational unit, yielding the finalTable — one row
// per (individual, organisational unit) pair.
//
// Group CA attributes are unioned into set-valued attributes: a director
// whose unit contains an electricity company and a transport company gets
// sector = {electricity, transports}, exactly the finalTable of Fig. 3.

#ifndef SCUBE_ETL_TABLE_BUILDER_H_
#define SCUBE_ETL_TABLE_BUILDER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "etl/inputs.h"
#include "graph/clustering.h"

namespace scube {
namespace etl {

/// \brief TableBuilder parameters.
struct TableBuilderOptions {
  /// Snapshot date: only memberships active at this date join.
  graph::Date date = 0;
};

/// Builds the finalTable.
///
/// `group_unit` assigns every group (row of inputs.groups) to an
/// organisational unit — typically the output of GraphClustering over the
/// projected company graph. The finalTable schema is: the individuals'
/// non-id attributes (kinds preserved), each group CA attribute as a
/// kCategoricalSet context attribute, and a trailing categorical `unitID`.
Result<relational::Table> BuildFinalTable(const ScubeInputs& inputs,
                                          const graph::Clustering& group_unit,
                                          const TableBuilderOptions& options);

}  // namespace etl
}  // namespace scube

#endif  // SCUBE_ETL_TABLE_BUILDER_H_
