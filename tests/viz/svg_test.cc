#include "viz/svg.h"

#include <gtest/gtest.h>

namespace scube {
namespace viz {
namespace {

TEST(SvgCanvasTest, DocumentStructure) {
  SvgCanvas canvas(200, 100);
  canvas.Line(0, 0, 10, 10, "#000");
  canvas.Circle(5, 5, 2, "red");
  canvas.Rect(1, 1, 4, 4, "blue", "#333");
  canvas.Polygon({0, 0, 10, 0, 5, 8}, "#ABCDEF", 0.5, "none");
  canvas.Text(3, 3, "hello", 12, "middle");
  std::string svg = canvas.Finish();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("width=\"200.00\""), std::string::npos);
  EXPECT_NE(svg.find("<line"), std::string::npos);
  EXPECT_NE(svg.find("<circle"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("<polygon"), std::string::npos);
  EXPECT_NE(svg.find(">hello</text>"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgCanvasTest, TextIsXmlEscaped) {
  SvgCanvas canvas(10, 10);
  canvas.Text(0, 0, "a<b & c");
  EXPECT_NE(canvas.Finish().find("a&lt;b &amp; c"), std::string::npos);
}

TEST(HeatColorTest, RampEndpoints) {
  EXPECT_EQ(HeatColor(0.0), "#FFFFFF");
  EXPECT_EQ(HeatColor(1.0), "#FF260D");
  EXPECT_EQ(HeatColor(-5.0), "#FFFFFF");  // clamped
  EXPECT_EQ(HeatColor(9.0), "#FF260D");
}

TEST(RadialChartTest, RendersSixAxes) {
  RadialChartSpec spec;
  spec.title = "segregation per sector";
  spec.axes = {"dissimilarity", "gini", "information",
               "isolation", "interaction", "atkinson"};
  spec.series.push_back({"manufacturing", {0.5, 0.6, 0.3, 0.4, 0.6, 0.5},
                         "#c0392b"});
  spec.series.push_back({"education", {0.2, 0.3, 0.1, 0.2, 0.8, 0.2},
                         "#2980b9"});
  auto svg = RenderRadialChart(spec);
  ASSERT_TRUE(svg.ok()) << svg.status();
  EXPECT_NE(svg->find("segregation per sector"), std::string::npos);
  EXPECT_NE(svg->find("manufacturing"), std::string::npos);
  EXPECT_NE(svg->find("dissimilarity"), std::string::npos);
  // 4 rings + 2 series polygons.
  size_t count = 0;
  for (size_t pos = svg->find("<polygon"); pos != std::string::npos;
       pos = svg->find("<polygon", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 6u);
}

TEST(RadialChartTest, Validation) {
  RadialChartSpec spec;
  spec.axes = {"a", "b"};  // too few
  EXPECT_FALSE(RenderRadialChart(spec).ok());

  spec.axes = {"a", "b", "c"};
  spec.series.push_back({"s", {0.1, 0.2}, "#000"});  // length mismatch
  EXPECT_FALSE(RenderRadialChart(spec).ok());
}

TEST(LineChartTest, RendersSeriesAndLegend) {
  LineChartSpec spec;
  spec.title = "female share by year";
  spec.x_labels = {"1995", "1996", "1997", "1998"};
  spec.series.push_back({"share", {0.2, 0.25, 0.3, 0.35}, "#2980b9"});
  spec.series.push_back({"dissimilarity", {0.4, 0.38, 0.36, 0.33},
                         "#c0392b"});
  auto svg = RenderLineChart(spec);
  ASSERT_TRUE(svg.ok()) << svg.status();
  EXPECT_NE(svg->find("female share by year"), std::string::npos);
  EXPECT_NE(svg->find("1995"), std::string::npos);
  EXPECT_NE(svg->find("dissimilarity"), std::string::npos);
  // 2 series x 4 points of markers.
  size_t circles = 0;
  for (size_t pos = svg->find("<circle"); pos != std::string::npos;
       pos = svg->find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, 8u);
}

TEST(LineChartTest, Validation) {
  LineChartSpec spec;
  spec.x_labels = {"a"};  // too few points
  EXPECT_FALSE(RenderLineChart(spec).ok());
  spec.x_labels = {"a", "b"};
  spec.series.push_back({"s", {0.1}, "#000"});  // length mismatch
  EXPECT_FALSE(RenderLineChart(spec).ok());
  spec.series.clear();
  spec.y_max = 0.0;
  EXPECT_FALSE(RenderLineChart(spec).ok());
}

TEST(TileMapTest, RendersTilesWithLegend) {
  TileMapSpec spec;
  spec.title = "dissimilarity by province";
  spec.tiles = {{"Milano", 0.2}, {"Torino", 0.25}, {"Napoli", 0.45},
                {"Bari", 0.5},   {"Palermo", 0.6}, {"Catania", 0.55}};
  spec.columns = 3;
  auto svg = RenderTileMap(spec);
  ASSERT_TRUE(svg.ok());
  EXPECT_NE(svg->find("Palermo"), std::string::npos);
  EXPECT_NE(svg->find("0.600"), std::string::npos);

  TileMapSpec empty;
  EXPECT_FALSE(RenderTileMap(empty).ok());
  TileMapSpec zero_cols = spec;
  zero_cols.columns = 0;
  EXPECT_FALSE(RenderTileMap(zero_cols).ok());
}

}  // namespace
}  // namespace viz
}  // namespace scube
