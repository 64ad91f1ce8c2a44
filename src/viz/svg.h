// SVG chart rendering: the radial plot of Fig. 5 (bottom), line charts,
// and the province tile map standing in for the map overlay of Fig. 3
// (right).

#ifndef SCUBE_VIZ_SVG_H_
#define SCUBE_VIZ_SVG_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace scube {
namespace viz {

/// \brief Low-level SVG element builder.
class SvgCanvas {
 public:
  SvgCanvas(double width, double height);

  void Line(double x1, double y1, double x2, double y2,
            const std::string& stroke, double stroke_width = 1.0);
  void Circle(double cx, double cy, double r, const std::string& fill,
              const std::string& stroke = "none");
  void Rect(double x, double y, double w, double h, const std::string& fill,
            const std::string& stroke = "none");
  /// `points` = {x1,y1,x2,y2,...}; closed polygon.
  void Polygon(const std::vector<double>& points, const std::string& fill,
               double fill_opacity, const std::string& stroke);
  void Text(double x, double y, const std::string& text, double size = 12.0,
            const std::string& anchor = "start",
            const std::string& fill = "#222");

  /// Completes the document.
  std::string Finish() const;

 private:
  double width_, height_;
  std::string body_;
};

/// \brief One radial-chart series (e.g. one segregation index over the 20
/// sectors, or one sector over the six indexes).
struct RadialSeries {
  std::string name;
  std::vector<double> values;  ///< in [0,1], one per axis
  std::string color;           ///< e.g. "#c0392b"
};

/// \brief Radial (spider) chart specification.
struct RadialChartSpec {
  std::string title;
  std::vector<std::string> axes;  ///< axis labels, clockwise from 12 o'clock
  std::vector<RadialSeries> series;
  double size = 640.0;
};

/// Renders a radial plot; fails if a series length mismatches the axes.
Result<std::string> RenderRadialChart(const RadialChartSpec& spec);

/// \brief Tile map: one coloured square per named area (provinces of
/// Fig. 3); colour encodes the value via a white-to-red ramp.
struct TileMapSpec {
  std::string title;
  std::vector<std::pair<std::string, double>> tiles;  ///< (name, value in [0,1])
  size_t columns = 5;
  double tile_size = 96.0;
};

Result<std::string> RenderTileMap(const TileMapSpec& spec);

/// \brief Line chart of one or more series over a shared x axis (time
/// series of segregation indexes).
struct LineSeries {
  std::string name;
  std::vector<double> values;  ///< same length as LineChartSpec::x_labels
  std::string color;
};

struct LineChartSpec {
  std::string title;
  std::vector<std::string> x_labels;  ///< e.g. years
  std::vector<LineSeries> series;
  double width = 720.0;
  double height = 360.0;
  double y_max = 1.0;  ///< y axis spans [0, y_max]
};

Result<std::string> RenderLineChart(const LineChartSpec& spec);

/// Linear white->red colour ramp for v in [0,1] ("#rrggbb").
std::string HeatColor(double v);

}  // namespace viz
}  // namespace scube

#endif  // SCUBE_VIZ_SVG_H_
