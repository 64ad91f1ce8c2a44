// PipelineConfig parsing from "key = value" text — the persistence format
// of the wizard's choices (and the knobs a production deployment would put
// in a config file).

#ifndef SCUBE_SCUBE_CONFIG_H_
#define SCUBE_SCUBE_CONFIG_H_

#include <string>

#include "common/result.h"
#include "scube/pipeline.h"

namespace scube {
namespace pipeline {

/// Parses a config document. Recognised keys (all optional; unknown keys
/// are NotFound, malformed numbers ParseError; a double that is NaN, ±inf
/// or outside its range below is InvalidArgument naming the key):
///
///   unit_source            group-clusters | group-attribute |
///                          individual-clusters
///   group_unit_attribute   <attribute name>
///   date                   <integer>
///   method                 connected-components | threshold-cc | stoc |
///                          louvain
///   threshold.min_weight   <finite double>
///   threshold.giant_only   true | false
///   stoc.tau               <double in [0,1]>
///   stoc.alpha             <double in [0,1]>
///   stoc.max_radius        <integer in [0, 2^32-1]>
///   projection.hub_cap     <integer in [0, 2^32-1], 0 disables>
///   projection.min_weight  <finite double>
///   cube.min_support       <integer>
///   cube.min_support_fraction  <double in [0,1]>
///   cube.max_sa_items      <integer in [0, 2^32-1]>
///   cube.max_ca_items      <integer in [0, 2^32-1]>
///   cube.mode              all | closed | maximal
///   cube.atkinson_b        <double in (0,1)>
///   cube.num_threads       <integer, 1 = sequential, 0 = all hardware>
///
/// Lines starting with '#' and blank lines are ignored.
Result<PipelineConfig> ParsePipelineConfig(const std::string& text);

/// Serialises a config back to the parsable format. Doubles print as
/// ExactDoubleText, so parsing the text gives back every value bit for bit.
std::string PipelineConfigToString(const PipelineConfig& config);

}  // namespace pipeline
}  // namespace scube

#endif  // SCUBE_SCUBE_CONFIG_H_
