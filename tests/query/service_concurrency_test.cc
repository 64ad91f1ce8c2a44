// Concurrency edges of the QueryService serving contract: admission
// rejection at the in-flight bound, deadline expiry, graceful shutdown
// under concurrent traffic without deadlock, and publish-time cache
// warming.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "query/service.h"

namespace scube {
namespace query {
namespace {

// Small hand-built cube: sex=F (SA), region=north/south (CA).
cube::SegregationCube MakeCube(double f_north_dissimilarity) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);     // id 0
  catalog.GetOrAdd(1, "region", "north", AttributeKind::kContext);  // id 1
  catalog.GetOrAdd(2, "region", "south", AttributeKind::kContext);  // id 2

  auto make_cell = [](std::vector<fpm::ItemId> sa,
                      std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m,
                      double d) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                        fpm::Itemset(std::move(ca))};
    cell.context_size = t;
    cell.minority_size = m;
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = d;
    return cell;
  };
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  cube.Insert(make_cell({0}, {}, 100, 40, 0.10));
  cube.Insert(make_cell({0}, {1}, 60, 25, f_north_dissimilarity));
  cube.Insert(make_cell({0}, {2}, 40, 15, 0.20));
  return cube;
}

TEST(ServiceAdmissionTest, ShedsWhenQueueBoundIsZero) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.max_pending = 0;  // bound 0: every statement sheds
  QueryService service(&store, options);

  auto responses = service.ExecuteBatch(
      {"TOPK 1 BY dissimilarity", "SLICE sa=sex=F"});
  ASSERT_EQ(responses.size(), 2u);
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable) << resp.status;
    EXPECT_NE(resp.status.message().find("admission queue full"),
              std::string::npos);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(ServiceAdmissionTest, AdmitsAgainOnceIdle) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.max_pending = 8;
  QueryService service(&store, options);

  auto ok = service.ExecuteOne("TOPK 1 BY dissimilarity WHERE M >= 1");
  EXPECT_TRUE(ok.status.ok()) << ok.status;
  EXPECT_EQ(service.stats().accepted, 1u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(ServiceDeadlineTest, AlreadyExpiredDeadlineAnswersDeadlineExceeded) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});

  QueryContext expired = QueryContext::WithTimeout(-1);
  ASSERT_TRUE(expired.Expired());
  auto responses = service.ExecuteBatch(
      {"TOPK 1 BY dissimilarity WHERE M >= 1",
       "SURPRISES BY dissimilarity MINDELTA 0.01 WHERE T >= 1 AND M >= 1"},
      expired);
  for (const auto& resp : responses) {
    EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded)
        << resp.status;
  }
  EXPECT_EQ(service.stats().deadline_expired, 2u);
}

TEST(ServiceDeadlineTest, GenerousDeadlinePasses) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});

  auto resp = service.ExecuteOne("TOPK 2 BY dissimilarity WHERE M >= 1",
                                 QueryContext::WithTimeout(60'000));
  EXPECT_TRUE(resp.status.ok()) << resp.status;
  EXPECT_EQ(service.stats().deadline_expired, 0u);
}

TEST(ServiceDeadlineTest, TimeoutsPastTheClockRangeSaturate) {
  // The clock counts int64 nanoseconds (~292 years); a longer timeout must
  // pin to the clock's last tick, not wrap into the past.
  for (double ms : {1e13, 1e300, std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::max()}) {
    QueryContext ctx = QueryContext::WithTimeout(ms);
    EXPECT_FALSE(ctx.Expired()) << ms;
    EXPECT_GT(ctx.RemainingMillis(), 1e12) << ms;
  }
  for (double ms : {0.0, -1.0, -std::numeric_limits<double>::infinity(),
                    std::numeric_limits<double>::quiet_NaN()}) {
    QueryContext ctx = QueryContext::WithTimeout(ms);
    EXPECT_TRUE(ctx.Expired()) << ms;
    EXPECT_LE(ctx.RemainingMillis(), 0.0) << ms;
  }
  EXPECT_FALSE(QueryContext::WithTimeout(60'000).Expired());
}

TEST(ServiceDeadlineTest, DefaultDeadlineFromOptionsApplies) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.default_deadline_ms = 0.0001;  // expires before the walk starts
  QueryService service(&store, options);

  auto resp = service.ExecuteOne("SLICE sa=sex=F | ca=region=north");
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded) << resp.status;
}

TEST(ServiceShutdownTest, DrainsInFlightBatchesWithoutDeadlock) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.cache_capacity = 0;  // every query executes
  QueryService service(&store, options);

  // Several threads keep submitting scan-heavy batches while the main
  // thread shuts the service down; every batch must return (drained or
  // shed), never hang.
  std::atomic<bool> go{true};
  std::atomic<uint64_t> returned{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<std::string> batch;
      for (int i = 0; i < 8; ++i) {
        batch.push_back("SURPRISES BY dissimilarity MINDELTA 0.0" +
                        std::to_string(i + 1) + " WHERE T >= 1 AND M >= 1");
      }
      while (go.load()) {
        auto responses = service.ExecuteBatch(batch);
        for (const auto& resp : responses) {
          EXPECT_TRUE(resp.status.ok() ||
                      resp.status.code() == StatusCode::kUnavailable)
              << resp.status;
        }
        returned.fetch_add(1);
      }
    });
  }
  // Let some batches through, then shut down concurrently with traffic.
  while (returned.load() < 4) std::this_thread::yield();
  service.Shutdown();
  go.store(false);
  for (auto& client : clients) client.join();

  // After shutdown everything is shed.
  auto post = service.ExecuteOne("TOPK 1 BY dissimilarity");
  EXPECT_EQ(post.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(post.status.message().find("shutting down"), std::string::npos);
}

TEST(ServiceShutdownTest, ShutdownIsIdempotent) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});
  service.Shutdown();
  service.Shutdown();  // the second call is a no-op
}

TEST(ServiceWarmingTest, PublishAndWarmPrefillsTheNewVersion) {
  CubeStore store;
  QueryService service(&store, ServiceOptions{});
  service.PublishAndWarm("default", MakeCube(0.5));  // nothing cached yet

  // Establish traffic: two distinct queries, one repeated (hotter).
  const std::string hot = "TOPK 2 BY dissimilarity WHERE M >= 1";
  const std::string cold = "SLICE sa=sex=F | ca=region=north";
  EXPECT_FALSE(service.ExecuteOne(hot).cache_hit);
  EXPECT_TRUE(service.ExecuteOne(hot).cache_hit);
  EXPECT_FALSE(service.ExecuteOne(cold).cache_hit);

  auto info = service.PublishAndWarm("default", MakeCube(0.9));
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.warmed, 2u);  // both texts re-executed against v2

  // The very first post-publish request is already a hit — and carries
  // the *new* version's data.
  auto warmed = service.ExecuteOne(hot);
  ASSERT_TRUE(warmed.status.ok()) << warmed.status;
  EXPECT_TRUE(warmed.cache_hit);
  EXPECT_EQ(warmed.cube_version, 2u);
  EXPECT_DOUBLE_EQ(warmed.result.rows[0].value, 0.9);
}

TEST(ServiceWarmingTest, VersionPinnedTextsAreNotWarmed) {
  CubeStore store;
  QueryService service(&store, ServiceOptions{});
  service.PublishAndWarm("default", MakeCube(0.5));

  auto pinned = service.ExecuteOne("TOPK 1 BY dissimilarity FROM default@1");
  ASSERT_TRUE(pinned.status.ok()) << pinned.status;

  auto info = service.PublishAndWarm("default", MakeCube(0.9));
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.warmed, 0u);  // the only cached text is pinned to v1
}

}  // namespace
}  // namespace query
}  // namespace scube
