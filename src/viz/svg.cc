#include "viz/svg.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/string_util.h"
#include "viz/xlsx_writer.h"  // XmlEscape

namespace scube {
namespace viz {

namespace {
std::string Num(double v) { return FormatDouble(v, 2); }
}  // namespace

SvgCanvas::SvgCanvas(double width, double height)
    : width_(width), height_(height) {}

void SvgCanvas::Line(double x1, double y1, double x2, double y2,
                     const std::string& stroke, double stroke_width) {
  body_ += "<line x1=\"" + Num(x1) + "\" y1=\"" + Num(y1) + "\" x2=\"" +
           Num(x2) + "\" y2=\"" + Num(y2) + "\" stroke=\"" + stroke +
           "\" stroke-width=\"" + Num(stroke_width) + "\"/>\n";
}

void SvgCanvas::Circle(double cx, double cy, double r, const std::string& fill,
                       const std::string& stroke) {
  body_ += "<circle cx=\"" + Num(cx) + "\" cy=\"" + Num(cy) + "\" r=\"" +
           Num(r) + "\" fill=\"" + fill + "\" stroke=\"" + stroke + "\"/>\n";
}

void SvgCanvas::Rect(double x, double y, double w, double h,
                     const std::string& fill, const std::string& stroke) {
  body_ += "<rect x=\"" + Num(x) + "\" y=\"" + Num(y) + "\" width=\"" +
           Num(w) + "\" height=\"" + Num(h) + "\" fill=\"" + fill +
           "\" stroke=\"" + stroke + "\"/>\n";
}

void SvgCanvas::Polygon(const std::vector<double>& points,
                        const std::string& fill, double fill_opacity,
                        const std::string& stroke) {
  body_ += "<polygon points=\"";
  for (size_t i = 0; i + 1 < points.size(); i += 2) {
    if (i > 0) body_ += " ";
    body_ += Num(points[i]) + "," + Num(points[i + 1]);
  }
  body_ += "\" fill=\"" + fill + "\" fill-opacity=\"" + Num(fill_opacity) +
           "\" stroke=\"" + stroke + "\"/>\n";
}

void SvgCanvas::Text(double x, double y, const std::string& text, double size,
                     const std::string& anchor, const std::string& fill) {
  body_ += "<text x=\"" + Num(x) + "\" y=\"" + Num(y) + "\" font-size=\"" +
           Num(size) + "\" text-anchor=\"" + anchor + "\" fill=\"" + fill +
           "\" font-family=\"sans-serif\">" + XlsxWriter::XmlEscape(text) +
           "</text>\n";
}

std::string SvgCanvas::Finish() const {
  return "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<svg xmlns=\"http://"
         "www.w3.org/2000/svg\" width=\"" +
         Num(width_) + "\" height=\"" + Num(height_) + "\" viewBox=\"0 0 " +
         Num(width_) + " " + Num(height_) + "\">\n" + body_ + "</svg>\n";
}

std::string HeatColor(double v) {
  v = std::clamp(v, 0.0, 1.0);
  int r = 255;
  int g = static_cast<int>(std::lround(255.0 * (1.0 - 0.85 * v)));
  int b = static_cast<int>(std::lround(255.0 * (1.0 - 0.95 * v)));
  char buf[8];
  std::snprintf(buf, sizeof(buf), "#%02X%02X%02X", r, g, b);
  return buf;
}

Result<std::string> RenderRadialChart(const RadialChartSpec& spec) {
  if (spec.axes.size() < 3) {
    return Status::InvalidArgument("radial chart needs at least 3 axes");
  }
  for (const RadialSeries& s : spec.series) {
    if (s.values.size() != spec.axes.size()) {
      return Status::InvalidArgument("series '" + s.name + "' has " +
                                     std::to_string(s.values.size()) +
                                     " values, chart has " +
                                     std::to_string(spec.axes.size()) +
                                     " axes");
    }
  }
  const double size = spec.size;
  SvgCanvas canvas(size, size + 40.0 + 16.0 * spec.series.size());
  const double cx = size / 2.0, cy = size / 2.0 + 24.0;
  const double radius = size * 0.36;
  const size_t n = spec.axes.size();

  canvas.Text(cx, 18, spec.title, 15, "middle");

  auto point = [&](size_t axis, double v) {
    double angle = -M_PI / 2.0 + 2.0 * M_PI * axis / static_cast<double>(n);
    return std::pair<double, double>(cx + radius * v * std::cos(angle),
                                     cy + radius * v * std::sin(angle));
  };

  // Rings at 0.25 steps.
  for (int ring = 1; ring <= 4; ++ring) {
    double v = ring / 4.0;
    std::vector<double> pts;
    for (size_t a = 0; a < n; ++a) {
      auto [x, y] = point(a, v);
      pts.push_back(x);
      pts.push_back(y);
    }
    canvas.Polygon(pts, "none", 0.0, "#CCCCCC");
    canvas.Text(cx + 4, cy - radius * v - 2, FormatDouble(v, 2), 9, "start",
                "#999");
  }
  // Axes + labels.
  for (size_t a = 0; a < n; ++a) {
    auto [x, y] = point(a, 1.0);
    canvas.Line(cx, cy, x, y, "#BBBBBB");
    auto [lx, ly] = point(a, 1.13);
    std::string anchor = lx < cx - 4 ? "end" : (lx > cx + 4 ? "start"
                                                            : "middle");
    canvas.Text(lx, ly + 3, spec.axes[a], 10, anchor);
  }
  // Series polygons.
  for (const RadialSeries& s : spec.series) {
    std::vector<double> pts;
    for (size_t a = 0; a < n; ++a) {
      auto [x, y] = point(a, std::clamp(s.values[a], 0.0, 1.0));
      pts.push_back(x);
      pts.push_back(y);
    }
    canvas.Polygon(pts, s.color, 0.25, s.color);
  }
  // Legend.
  double ly = size + 16.0;
  for (const RadialSeries& s : spec.series) {
    canvas.Rect(24, ly - 9, 12, 12, s.color);
    canvas.Text(42, ly + 1, s.name, 11);
    ly += 16.0;
  }
  return canvas.Finish();
}

Result<std::string> RenderLineChart(const LineChartSpec& spec) {
  if (spec.x_labels.size() < 2) {
    return Status::InvalidArgument("line chart needs at least two x points");
  }
  if (spec.y_max <= 0.0) {
    return Status::InvalidArgument("y_max must be positive");
  }
  for (const LineSeries& s : spec.series) {
    if (s.values.size() != spec.x_labels.size()) {
      return Status::InvalidArgument("series '" + s.name +
                                     "' length mismatches x axis");
    }
  }
  const double kMarginLeft = 56.0, kMarginRight = 24.0;
  const double kMarginTop = 36.0, kMarginBottom = 48.0;
  const double plot_w = spec.width - kMarginLeft - kMarginRight;
  const double plot_h = spec.height - kMarginTop - kMarginBottom;
  SvgCanvas canvas(spec.width, spec.height + 16.0 * spec.series.size());
  canvas.Text(spec.width / 2.0, 20, spec.title, 14, "middle");

  auto x_of = [&](size_t i) {
    return kMarginLeft +
           plot_w * static_cast<double>(i) /
               static_cast<double>(spec.x_labels.size() - 1);
  };
  auto y_of = [&](double v) {
    return kMarginTop + plot_h * (1.0 - std::clamp(v, 0.0, spec.y_max) /
                                            spec.y_max);
  };

  // Axes and horizontal gridlines.
  canvas.Line(kMarginLeft, kMarginTop, kMarginLeft, kMarginTop + plot_h,
              "#444");
  canvas.Line(kMarginLeft, kMarginTop + plot_h, kMarginLeft + plot_w,
              kMarginTop + plot_h, "#444");
  for (int g = 0; g <= 4; ++g) {
    double v = spec.y_max * g / 4.0;
    canvas.Line(kMarginLeft, y_of(v), kMarginLeft + plot_w, y_of(v),
                "#DDDDDD");
    canvas.Text(kMarginLeft - 6, y_of(v) + 4, FormatDouble(v, 2), 9, "end");
  }
  // Sparse x labels.
  size_t step = std::max<size_t>(1, spec.x_labels.size() / 8);
  for (size_t i = 0; i < spec.x_labels.size(); i += step) {
    canvas.Text(x_of(i), kMarginTop + plot_h + 16, spec.x_labels[i], 9,
                "middle");
  }
  // Series polylines (as thin line segments) + markers.
  for (const LineSeries& s : spec.series) {
    for (size_t i = 0; i + 1 < s.values.size(); ++i) {
      canvas.Line(x_of(i), y_of(s.values[i]), x_of(i + 1),
                  y_of(s.values[i + 1]), s.color, 2.0);
    }
    for (size_t i = 0; i < s.values.size(); ++i) {
      canvas.Circle(x_of(i), y_of(s.values[i]), 2.2, s.color);
    }
  }
  // Legend.
  double ly = spec.height + 4.0;
  for (const LineSeries& s : spec.series) {
    canvas.Rect(kMarginLeft, ly - 8, 12, 12, s.color);
    canvas.Text(kMarginLeft + 18, ly + 2, s.name, 11);
    ly += 16.0;
  }
  return canvas.Finish();
}

Result<std::string> RenderTileMap(const TileMapSpec& spec) {
  if (spec.tiles.empty()) {
    return Status::InvalidArgument("tile map needs at least one tile");
  }
  if (spec.columns == 0) {
    return Status::InvalidArgument("columns must be >= 1");
  }
  size_t rows = (spec.tiles.size() + spec.columns - 1) / spec.columns;
  double width = 24.0 * 2 + spec.tile_size * spec.columns;
  double height = 64.0 + spec.tile_size * rows + 40.0;
  SvgCanvas canvas(width, height);
  canvas.Text(width / 2.0, 24, spec.title, 15, "middle");
  for (size_t i = 0; i < spec.tiles.size(); ++i) {
    const auto& [name, value] = spec.tiles[i];
    double x = 24.0 + spec.tile_size * (i % spec.columns);
    double y = 44.0 + spec.tile_size * (i / spec.columns);
    canvas.Rect(x + 2, y + 2, spec.tile_size - 4, spec.tile_size - 4,
                HeatColor(value), "#888");
    canvas.Text(x + spec.tile_size / 2.0, y + spec.tile_size / 2.0 - 4, name,
                10, "middle");
    canvas.Text(x + spec.tile_size / 2.0, y + spec.tile_size / 2.0 + 12,
                FormatDouble(value, 3), 10, "middle");
  }
  // Legend ramp.
  double ly = 52.0 + spec.tile_size * rows;
  for (int i = 0; i <= 20; ++i) {
    canvas.Rect(24.0 + i * 8.0, ly, 8.0, 12.0, HeatColor(i / 20.0));
  }
  canvas.Text(24.0, ly + 26, "0.0", 10);
  canvas.Text(24.0 + 20 * 8.0, ly + 26, "1.0", 10, "end");
  return canvas.Finish();
}

}  // namespace viz
}  // namespace scube
