// Streaming-vs-materialised equivalence: for every verb, the bytes a
// JsonWriter/CsvWriter produce over the streaming path must equal
// ToJson/ToCsv of the materialised answer — across all four combinations
// of {cold execution, cache replay} x {streamed, batch}. A cold stream
// copies the sealed view's index texts; a materialised answer formats its
// doubles, so the two renderings meet here. Cursor-resumed pages must
// stitch back into exactly the unpaginated answer.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/cube_store.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/row_sink.h"
#include "query/service.h"

namespace scube {
namespace query {
namespace {

// The executor_test fixture, build-side: items
//   sex=F (SA, id 0), age=young (SA, id 1),
//   region=north (CA, id 2), region=south (CA, id 3).
cube::CubeCell MakeCell(std::vector<fpm::ItemId> sa,
                        std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m,
                        double dissimilarity, bool defined = true) {
  cube::CubeCell cell;
  cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                      fpm::Itemset(std::move(ca))};
  cell.context_size = t;
  cell.minority_size = m;
  cell.num_units = 2;
  cell.indexes.defined = defined;
  cell.indexes.values[static_cast<size_t>(
      indexes::IndexKind::kDissimilarity)] = dissimilarity;
  cell.indexes.values[static_cast<size_t>(indexes::IndexKind::kGini)] =
      dissimilarity / 2;
  return cell;
}

std::vector<cube::CubeCell> FixtureCells() {
  return {
      MakeCell({}, {}, 100, 0, 0.0, /*defined=*/false),  // root
      MakeCell({0}, {}, 100, 40, 0.10),                  // F | *
      MakeCell({1}, {}, 100, 30, 0.05),                  // young | *
      MakeCell({0, 1}, {}, 100, 12, 0.30),               // F & young | *
      MakeCell({}, {2}, 60, 0, 0.0, false),              // * | north
      MakeCell({0}, {2}, 60, 25, 0.50),                  // F | north
      MakeCell({0}, {3}, 40, 15, 0.20),                  // F | south
      MakeCell({1}, {2}, 60, 18, 0.15),                  // young | north
      MakeCell({0, 1}, {2}, 60, 8, 0.70),                // F & young | north
  };
}

cube::SegregationCube CubeOf(std::vector<cube::CubeCell> cells) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);      // id 0
  catalog.GetOrAdd(1, "age", "young", AttributeKind::kSegregation);  // id 1
  catalog.GetOrAdd(2, "region", "north", AttributeKind::kContext);   // id 2
  catalog.GetOrAdd(3, "region", "south", AttributeKind::kContext);   // id 3

  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  for (cube::CubeCell& cell : cells) cube.Insert(std::move(cell));
  return cube;
}

cube::SegregationCube MakeCube() { return CubeOf(FixtureCells()); }

/// The fixture's cells carrying RenderGoldenTest's edge doubles in all six
/// indexes: each cell starts at its own place in the list, so every index
/// sees most values.
cube::SegregationCube MakeEdgeCube() {
  constexpr double kMax = std::numeric_limits<double>::max();
  const std::vector<double> edges = {
      -0.0, 1e-05, 0.0001, 1.0 / 3, 123456.5, kMax,
      -kMax, 5e-324, 0.0, -1e-05, -1.0 / 3, 999999.5};
  std::vector<cube::CubeCell> cells = FixtureCells();
  for (size_t c = 0; c < cells.size(); ++c) {
    for (size_t k = 0; k < indexes::kNumIndexKinds; ++k) {
      cells[c].indexes.values[k] = edges[(c * 5 + k) % edges.size()];
    }
  }
  return CubeOf(std::move(cells));
}

/// Every verb, plus ORDER BY / WHERE / LIMIT / OFFSET shapes.
const std::vector<std::string>& AllVerbTexts() {
  static const std::vector<std::string> texts = {
      "SLICE sa=sex=F",
      "SLICE sa=sex=F | ca=region=north",
      "SLICE ca=region=north",
      "DICE sa=sex=F",
      "DICE sa=sex=F WHERE T >= 50 AND M >= 20",
      "ROLLUP sa=sex=F & age=young | ca=region=north",
      "DRILLDOWN sa=sex=F",
      "DRILLDOWN",
      "TOPK 3 BY dissimilarity WHERE T >= 1 AND M >= 1",
      "TOPK 5 BY gini WHERE T >= 1 AND M >= 1 ORDER BY T DESC",
      "SURPRISES BY dissimilarity MINDELTA 0.05",
      "REVERSALS MINGAP 0.05",
      "DICE sa=sex=F ORDER BY dissimilarity ASC",
      "DICE sa=sex=F LIMIT 2",
      "DICE sa=sex=F LIMIT 2 OFFSET 1",
      "DICE sa=sex=F ORDER BY T DESC LIMIT 2",
      "SLICE sa=sex=F LIMIT 10",  // limit beyond the stream: exhausted
  };
  return texts;
}

std::string StreamJson(QueryService* service, const std::string& text,
                       StreamOutcome* outcome = nullptr,
                       const std::string& cursor = "") {
  std::string out;
  JsonWriter writer([&out](std::string_view chunk) {
    out.append(chunk);
    return true;
  });
  auto result = service->ExecuteStreaming(text, writer, {}, cursor);
  EXPECT_TRUE(result.status.ok()) << text << " -> " << result.status;
  if (outcome != nullptr) *outcome = result;
  return out;
}

std::string StreamCsv(QueryService* service, const std::string& text) {
  std::string out;
  CsvWriter writer([&out](std::string_view chunk) {
    out.append(chunk);
    return true;
  });
  auto result = service->ExecuteStreaming(text, writer);
  EXPECT_TRUE(result.status.ok()) << text << " -> " << result.status;
  return out;
}

class StreamingEquivalenceTest : public ::testing::Test {
 protected:
  StreamingEquivalenceTest() {
    store_.Publish("default", MakeCube());
    service_ = std::make_unique<QueryService>(&store_, ServiceOptions{});
  }

  CubeStore store_;
  std::unique_ptr<QueryService> service_;
};

TEST_F(StreamingEquivalenceTest, EveryVerbStreamsByteIdentical) {
  // The fixture's cube, then the same cells carrying edge doubles.
  CubeStore edge_store;
  edge_store.Publish("default", MakeEdgeCube());
  QueryService edge_service(&edge_store, ServiceOptions{});
  for (QueryService* service : {service_.get(), &edge_service}) {
    const bool edge = service == &edge_service;
    std::map<Verb, size_t> valued_rows;
    for (const std::string& text : AllVerbTexts()) {
      // Cold streamed execution (fills the cache through the tee)...
      std::string streamed_json = StreamJson(service, text);
      // ...then the batch path answers from the cache: same bytes.
      auto cached = service->ExecuteOne(text);
      ASSERT_TRUE(cached.status.ok()) << text << " -> " << cached.status;
      EXPECT_TRUE(cached.cache_hit) << text;
      EXPECT_EQ(ToJson(cached.result), streamed_json) << text;

      // Cold batch execution (no cache)...
      service->ClearCache();
      auto cold = service->ExecuteOne(text);
      ASSERT_TRUE(cold.status.ok()) << text;
      EXPECT_FALSE(cold.cache_hit) << text;
      EXPECT_EQ(ToJson(cold.result), streamed_json) << text;

      // ...and a streamed cache replay of the batch-path entry: same bytes.
      std::string replayed_json = StreamJson(service, text);
      EXPECT_EQ(replayed_json, streamed_json) << text;

      // CSV: streamed vs materialised.
      std::string streamed_csv = StreamCsv(service, text);
      EXPECT_EQ(streamed_csv, ToCsv(cold.result)) << text;
      service->ClearCache();

      // A streamed row prints its value column from the sealed text of
      // index `by`, so the value must be that index, bit for bit.
      if (!cold.result.has_value) continue;
      for (const ResultRow& row : cold.result.rows) {
        EXPECT_EQ(std::bit_cast<uint64_t>(row.value),
                  std::bit_cast<uint64_t>(
                      row.indexes[static_cast<size_t>(cold.result.by)]))
            << text << (edge ? " (edge cube)" : "");
        ++valued_rows[cold.result.verb];
      }
    }
    for (Verb verb : {Verb::kTopK, Verb::kSurprises, Verb::kReversals}) {
      EXPECT_GT(valued_rows[verb], 0u)
          << VerbToString(verb) << (edge ? " (edge cube)" : "");
    }
  }
}

TEST_F(StreamingEquivalenceTest, RowsOutliveTheirSnapshot) {
  // A buffered answer and an executor's answer keep their rows after the
  // version they came from is evicted: they render the same bytes, and no
  // row reads the evicted view (ASan reports a heap-use-after-free).
  const std::string text = "TOPK 5 BY gini WHERE T >= 1 AND M >= 1";
  auto buffered = service_->ExecuteOne(text);
  ASSERT_TRUE(buffered.status.ok()) << buffered.status;
  ASSERT_FALSE(buffered.result.rows.empty());
  auto query = Parse(text);
  ASSERT_TRUE(query.ok()) << query.status();
  Result<QueryResult> executed = [&] {
    uint64_t version = 0;
    CubeStore::Snapshot snapshot = store_.Get("default", &version);
    return Executor(*snapshot, version).Execute(*query);
  }();
  ASSERT_TRUE(executed.ok()) << executed.status();
  const std::string json = ToJson(buffered.result);
  const std::string csv = ToCsv(buffered.result);
  EXPECT_EQ(ToJson(*executed), json);
  EXPECT_EQ(ToCsv(*executed), csv);

  // Evict the version with cubes whose texts all differ from it.
  for (size_t i = 0; i < CubeStore::kDefaultMaxVersions; ++i) {
    std::vector<cube::CubeCell> cells = FixtureCells();
    for (cube::CubeCell& cell : cells) {
      for (double& v : cell.indexes.values) v = v * 3 + 0.125;
    }
    store_.Publish("default", CubeOf(std::move(cells)));
  }
  service_->ClearCache();
  ASSERT_EQ(store_.GetVersion("default", buffered.cube_version), nullptr);

  EXPECT_EQ(ToJson(buffered.result), json);
  EXPECT_EQ(ToCsv(buffered.result), csv);
  EXPECT_EQ(ToJson(*executed), json);
  EXPECT_EQ(ToCsv(*executed), csv);
}

TEST_F(StreamingEquivalenceTest, CursorPaginationStitchesToUnpaginated) {
  const std::vector<std::string> streams = {
      "DICE sa=sex=F",
      "DICE sa=sex=F ORDER BY dissimilarity DESC",
      "TOPK 5 BY dissimilarity WHERE T >= 1 AND M >= 1",
      "SURPRISES BY dissimilarity MINDELTA 0.01",
  };
  for (const std::string& base : streams) {
    auto unpaginated = service_->ExecuteOne(base);
    ASSERT_TRUE(unpaginated.status.ok()) << base;
    ASSERT_GT(unpaginated.result.rows.size(), 2u) << base;
    EXPECT_TRUE(unpaginated.result.exhausted) << base;
    EXPECT_TRUE(unpaginated.result.next_cursor.empty()) << base;

    // Page through with LIMIT 2 + cursor resumption.
    const std::string paged_text = base + " LIMIT 2";
    std::vector<ResultRow> stitched;
    std::string cursor;
    size_t pages = 0;
    do {
      VectorSink sink;
      auto outcome =
          service_->ExecuteStreaming(paged_text, sink, {}, cursor);
      ASSERT_TRUE(outcome.status.ok()) << paged_text;
      for (const ResultRow& row : sink.result().rows) {
        stitched.push_back(row);
      }
      cursor = outcome.next_cursor;
      ASSERT_LT(++pages, 32u) << "cursor loop did not terminate: " << base;
    } while (!cursor.empty());

    ASSERT_EQ(stitched.size(), unpaginated.result.rows.size()) << base;
    for (size_t i = 0; i < stitched.size(); ++i) {
      EXPECT_EQ(stitched[i].sa, unpaginated.result.rows[i].sa) << base;
      EXPECT_EQ(stitched[i].ca, unpaginated.result.rows[i].ca) << base;
      EXPECT_EQ(stitched[i].t, unpaginated.result.rows[i].t) << base;
      EXPECT_EQ(stitched[i].m, unpaginated.result.rows[i].m) << base;
    }
  }
}

TEST_F(StreamingEquivalenceTest, CursorPinsTheSnapshotAcrossPublishes) {
  auto page1 = service_->ExecuteOne("DICE sa=sex=F LIMIT 2");
  ASSERT_TRUE(page1.status.ok());
  ASSERT_FALSE(page1.result.next_cursor.empty());
  ASSERT_EQ(page1.cube_version, 1u);

  // A publish between pages must not change what the cursor resumes.
  store_.Publish("default", MakeCube());  // v2

  VectorSink sink;
  auto page2 = service_->ExecuteStreaming("DICE sa=sex=F LIMIT 2", sink, {},
                                          page1.result.next_cursor);
  ASSERT_TRUE(page2.status.ok()) << page2.status;
  EXPECT_EQ(page2.cube_version, 1u);  // pinned to the page-1 snapshot

  // A fresh (cursor-less) request targets the new latest version.
  auto fresh = service_->ExecuteOne("DICE sa=sex=F LIMIT 2");
  EXPECT_EQ(fresh.cube_version, 2u);
}

TEST_F(StreamingEquivalenceTest, CursorToEvictedVersionIsNotFound) {
  CubeStore small(/*max_versions=*/1);
  small.Publish("default", MakeCube());
  QueryService service(&small, ServiceOptions{});

  auto page1 = service.ExecuteOne("DICE sa=sex=F LIMIT 2");
  ASSERT_TRUE(page1.status.ok());
  ASSERT_FALSE(page1.result.next_cursor.empty());

  small.Publish("default", MakeCube());  // evicts v1
  VectorSink sink;
  auto page2 = service.ExecuteStreaming("DICE sa=sex=F LIMIT 2", sink, {},
                                        page1.result.next_cursor);
  EXPECT_EQ(page2.status.code(), StatusCode::kNotFound);
  EXPECT_FALSE(page2.begun);
}

TEST_F(StreamingEquivalenceTest, CursorCubeMismatchRejected) {
  auto page1 = service_->ExecuteOne("DICE sa=sex=F LIMIT 2");
  ASSERT_FALSE(page1.result.next_cursor.empty());
  VectorSink sink;
  auto mismatch = service_->ExecuteStreaming(
      "DICE sa=sex=F FROM other LIMIT 2", sink, {}, page1.result.next_cursor);
  EXPECT_EQ(mismatch.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(mismatch.begun);
}

TEST_F(StreamingEquivalenceTest, CursorQueryMismatchRejected) {
  auto page1 = service_->ExecuteOne("DICE sa=sex=F LIMIT 2");
  ASSERT_FALSE(page1.result.next_cursor.empty());

  // A different statement must not be offset into by someone else's
  // cursor — that would silently return rows of neither query.
  VectorSink sink;
  auto wrong = service_->ExecuteStreaming(
      "TOPK 5 BY dissimilarity WHERE T >= 1 AND M >= 1 LIMIT 2", sink, {},
      page1.result.next_cursor);
  EXPECT_EQ(wrong.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(wrong.begun);

  // Changing only the page size is allowed: same stream, bigger pages.
  VectorSink resized;
  auto ok = service_->ExecuteStreaming("DICE sa=sex=F LIMIT 3", resized, {},
                                       page1.result.next_cursor);
  EXPECT_TRUE(ok.status.ok()) << ok.status;
  EXPECT_EQ(resized.result().rows.size(), 3u);  // rows 2..4 of 5
}

TEST_F(StreamingEquivalenceTest, LimitPushdownBoundsTheWalk) {
  auto full = service_->ExecuteOne("SLICE sa=sex=F");
  service_->ClearCache();
  auto paged = service_->ExecuteOne("SLICE sa=sex=F LIMIT 1");
  ASSERT_TRUE(full.status.ok());
  ASSERT_TRUE(paged.status.ok());
  ASSERT_EQ(full.result.rows.size(), 3u);
  ASSERT_EQ(paged.result.rows.size(), 1u);
  // The paged walk stops as soon as the page (plus its one-row
  // exhaustion probe) is served: fewer cells inspected than the full walk.
  EXPECT_LT(paged.result.cells_scanned, full.result.cells_scanned);
  EXPECT_FALSE(paged.result.exhausted);
  // An ORDER BY forbids pushdown (the sort needs every row).
  service_->ClearCache();
  auto ordered = service_->ExecuteOne("SLICE sa=sex=F ORDER BY T DESC LIMIT 1");
  EXPECT_EQ(ordered.result.cells_scanned, full.result.cells_scanned);
}

TEST_F(StreamingEquivalenceTest, ExpiredDeadlineFailsBeforeAnyOutput) {
  std::string out;
  JsonWriter writer([&out](std::string_view chunk) {
    out.append(chunk);
    return true;
  });
  auto outcome = service_->ExecuteStreaming(
      "DICE sa=sex=F", writer, QueryContext::WithTimeout(-1));
  EXPECT_EQ(outcome.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(outcome.begun);
  EXPECT_TRUE(out.empty());
}

TEST_F(StreamingEquivalenceTest, AdmissionShedsStreamsToo) {
  ServiceOptions options;
  options.max_pending = 0;  // shed everything
  QueryService service(&store_, options);
  VectorSink sink;
  auto outcome = service.ExecuteStreaming("DICE sa=sex=F", sink);
  EXPECT_EQ(outcome.status.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(outcome.begun);
}

TEST_F(StreamingEquivalenceTest, AbortedCacheReplayIssuesNoCursor) {
  // Seed the cache with a paginated answer (more pages exist)...
  auto seeded = service_->ExecuteOne("DICE sa=sex=F LIMIT 2");
  ASSERT_FALSE(seeded.result.next_cursor.empty());

  // ...then replay it into a sink that aborts after one row (client
  // gone). An aborted stream must not advertise a resume cursor — on the
  // cache-hit path exactly as on the live path.
  struct OneRowSink : RowSink {
    bool Begin(const ResultHeader&) override { return true; }
    bool Row(const ResultRow&) override { return false; }
    void Finish(const ResultTrailer& trailer) override {
      final_trailer = trailer;
    }
    ResultTrailer final_trailer;
  } sink;
  auto replay = service_->ExecuteStreaming("DICE sa=sex=F LIMIT 2", sink);
  ASSERT_TRUE(replay.status.ok());
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_TRUE(replay.next_cursor.empty());
  EXPECT_TRUE(sink.final_trailer.next_cursor.empty());
  EXPECT_EQ(replay.rows, 0u);
}

TEST_F(StreamingEquivalenceTest, InFlightStreamsOccupyAdmissionSlots) {
  ServiceOptions options;
  options.max_pending = 1;
  options.cache_capacity = 0;
  QueryService service(&store_, options);

  // A sink that tries to start a second stream mid-row: the outer stream
  // holds the only admission slot, so the nested one must shed — a
  // streaming-only overload is not invisible to admission control.
  struct NestedSink : RowSink {
    QueryService* service = nullptr;
    Status nested_status;
    bool Begin(const ResultHeader&) override { return true; }
    bool Row(const ResultRow&) override {
      VectorSink inner;
      nested_status =
          service->ExecuteStreaming("SLICE sa=sex=F", inner).status;
      return true;
    }
    void Finish(const ResultTrailer&) override {}
  } sink;
  sink.service = &service;

  auto outer = service.ExecuteStreaming("DICE sa=sex=F", sink);
  EXPECT_TRUE(outer.status.ok()) << outer.status;
  EXPECT_EQ(sink.nested_status.code(), StatusCode::kUnavailable);

  // The slot frees once the stream finishes.
  VectorSink after;
  EXPECT_TRUE(service.ExecuteStreaming("SLICE sa=sex=F", after).status.ok());
}

TEST_F(StreamingEquivalenceTest, OversizedStreamsBypassTheCache) {
  ServiceOptions options;
  options.cache_max_rows = 2;  // DICE sa=sex=F yields 5 rows
  QueryService service(&store_, options);
  VectorSink first;
  auto a = service.ExecuteStreaming("DICE sa=sex=F", first);
  ASSERT_TRUE(a.status.ok());
  EXPECT_EQ(first.result().rows.size(), 5u);  // the client still gets all
  VectorSink second;
  auto b = service.ExecuteStreaming("DICE sa=sex=F", second);
  EXPECT_FALSE(b.cache_hit);  // too large to have been cached
  EXPECT_EQ(service.cache_stats().hits, 0u);

  // A small answer does get cached by the tee.
  VectorSink small;
  service.ExecuteStreaming("SLICE sa=sex=F | ca=region=north", small);
  VectorSink replay;
  auto hit = service.ExecuteStreaming("SLICE sa=sex=F | ca=region=north",
                                      replay);
  EXPECT_TRUE(hit.cache_hit);
}

}  // namespace
}  // namespace query
}  // namespace scube
