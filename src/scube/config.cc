#include "scube/config.h"

#include <cmath>
#include <limits>

#include "common/string_util.h"

namespace scube {
namespace pipeline {

namespace {

// The values a double key accepts; every one excludes NaN and ±inf.
enum class Range { kFinite, kClosedUnit, kOpenUnit };

Status SetKey(PipelineConfig* config, const std::string& key,
              const std::string& value) {
  auto parse_double = [&](double* out, Range range = Range::kFinite)
      -> Status {
    auto v = ParseDouble(value);
    if (!v.ok()) return v.status().WithContext(key);
    const double d = v.value();
    if (!std::isfinite(d)) {
      return Status::InvalidArgument(key + " must be finite");
    }
    if (range == Range::kClosedUnit && !(d >= 0.0 && d <= 1.0)) {
      return Status::InvalidArgument(key + " must be in [0,1]");
    }
    if (range == Range::kOpenUnit && !(d > 0.0 && d < 1.0)) {
      return Status::InvalidArgument(key + " must be in (0,1)");
    }
    *out = d;
    return Status::OK();
  };
  auto parse_u32 = [&](uint32_t* out) -> Status {
    auto v = ParseInt64(value);
    if (!v.ok()) return v.status().WithContext(key);
    if (v.value() < 0) return Status::InvalidArgument(key + " must be >= 0");
    constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
    if (v.value() > kMax) {
      return Status::InvalidArgument(key + " must be <= " +
                                     std::to_string(kMax));
    }
    *out = static_cast<uint32_t>(v.value());
    return Status::OK();
  };

  if (key == "unit_source") {
    if (value == "group-clusters") {
      config->unit_source = UnitSource::kGroupClusters;
    } else if (value == "group-attribute") {
      config->unit_source = UnitSource::kGroupAttribute;
    } else if (value == "individual-clusters") {
      config->unit_source = UnitSource::kIndividualClusters;
    } else {
      return Status::InvalidArgument("unknown unit_source: " + value);
    }
    return Status::OK();
  }
  if (key == "group_unit_attribute") {
    config->group_unit_attribute = value;
    return Status::OK();
  }
  if (key == "date") {
    auto v = ParseInt64(value);
    if (!v.ok()) return v.status().WithContext(key);
    config->date = v.value();
    return Status::OK();
  }
  if (key == "method") {
    if (value == "connected-components") {
      config->method = ClusterMethod::kConnectedComponents;
    } else if (value == "threshold-cc") {
      config->method = ClusterMethod::kThreshold;
    } else if (value == "stoc") {
      config->method = ClusterMethod::kStoc;
    } else if (value == "louvain") {
      config->method = ClusterMethod::kLouvain;
    } else {
      return Status::InvalidArgument("unknown method: " + value);
    }
    return Status::OK();
  }
  if (key == "threshold.min_weight") {
    return parse_double(&config->threshold.min_weight);
  }
  if (key == "threshold.giant_only") {
    if (value != "true" && value != "false") {
      return Status::InvalidArgument(key + " must be true or false");
    }
    config->threshold.giant_only = value == "true";
    return Status::OK();
  }
  if (key == "stoc.tau") {
    return parse_double(&config->stoc.tau, Range::kClosedUnit);
  }
  if (key == "stoc.alpha") {
    return parse_double(&config->stoc.alpha, Range::kClosedUnit);
  }
  if (key == "stoc.max_radius") return parse_u32(&config->stoc.max_radius);
  if (key == "projection.hub_cap") {
    return parse_u32(&config->projection.hub_cap);
  }
  if (key == "projection.min_weight") {
    return parse_double(&config->projection.min_weight);
  }
  if (key == "cube.min_support") {
    auto v = ParseInt64(value);
    if (!v.ok()) return v.status().WithContext(key);
    if (v.value() < 1) {
      return Status::InvalidArgument("cube.min_support must be >= 1");
    }
    config->cube.min_support = static_cast<uint64_t>(v.value());
    return Status::OK();
  }
  if (key == "cube.min_support_fraction") {
    return parse_double(&config->cube.min_support_fraction,
                        Range::kClosedUnit);
  }
  if (key == "cube.max_sa_items") {
    return parse_u32(&config->cube.max_sa_items);
  }
  if (key == "cube.max_ca_items") {
    return parse_u32(&config->cube.max_ca_items);
  }
  if (key == "cube.mode") {
    if (value == "all") {
      config->cube.mode = fpm::MineMode::kAll;
    } else if (value == "closed") {
      config->cube.mode = fpm::MineMode::kClosed;
    } else if (value == "maximal") {
      config->cube.mode = fpm::MineMode::kMaximal;
    } else {
      return Status::InvalidArgument("unknown cube.mode: " + value);
    }
    return Status::OK();
  }
  if (key == "cube.atkinson_b") {
    return parse_double(&config->cube.index_params.atkinson_b,
                        Range::kOpenUnit);
  }
  if (key == "cube.num_threads") {
    auto v = ParseInt64(value);
    if (!v.ok()) return v.status().WithContext(key);
    if (v.value() < 0) {
      return Status::InvalidArgument("cube.num_threads must be >= 0");
    }
    config->cube.num_threads = static_cast<size_t>(v.value());
    return Status::OK();
  }
  return Status::NotFound("unknown config key: " + key);
}

}  // namespace

Result<PipelineConfig> ParsePipelineConfig(const std::string& text) {
  PipelineConfig config;
  size_t line_no = 0;
  for (const std::string& raw_line : Split(text, '\n')) {
    ++line_no;
    std::string_view line = Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected key = value");
    }
    std::string key(Trim(line.substr(0, eq)));
    std::string value(Trim(line.substr(eq + 1)));
    Status s = SetKey(&config, key, value);
    if (!s.ok()) {
      return s.WithContext("line " + std::to_string(line_no));
    }
  }
  return config;
}

std::string PipelineConfigToString(const PipelineConfig& config) {
  std::string out;
  out += "unit_source = " + std::string(UnitSourceToString(
                                config.unit_source)) + "\n";
  out += "group_unit_attribute = " + config.group_unit_attribute + "\n";
  out += "date = " + std::to_string(config.date) + "\n";
  out += "method = " + std::string(ClusterMethodToString(config.method)) +
         "\n";
  out += "threshold.min_weight = " +
         ExactDoubleText(config.threshold.min_weight) + "\n";
  out += "threshold.giant_only = " +
         std::string(config.threshold.giant_only ? "true" : "false") + "\n";
  out += "stoc.tau = " + ExactDoubleText(config.stoc.tau) + "\n";
  out += "stoc.alpha = " + ExactDoubleText(config.stoc.alpha) + "\n";
  out += "stoc.max_radius = " + std::to_string(config.stoc.max_radius) + "\n";
  out += "projection.hub_cap = " +
         std::to_string(config.projection.hub_cap) + "\n";
  out += "projection.min_weight = " +
         ExactDoubleText(config.projection.min_weight) + "\n";
  out += "cube.min_support = " + std::to_string(config.cube.min_support) +
         "\n";
  out += "cube.min_support_fraction = " +
         ExactDoubleText(config.cube.min_support_fraction) + "\n";
  out += "cube.max_sa_items = " + std::to_string(config.cube.max_sa_items) +
         "\n";
  out += "cube.max_ca_items = " + std::to_string(config.cube.max_ca_items) +
         "\n";
  out += "cube.mode = " +
         std::string(config.cube.mode == fpm::MineMode::kAll ? "all"
                     : config.cube.mode == fpm::MineMode::kClosed
                         ? "closed"
                         : "maximal") + "\n";
  out += "cube.atkinson_b = " +
         ExactDoubleText(config.cube.index_params.atkinson_b) + "\n";
  out += "cube.num_threads = " + std::to_string(config.cube.num_threads) +
         "\n";
  return out;
}

}  // namespace pipeline
}  // namespace scube
