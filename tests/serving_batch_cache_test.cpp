// Batched personalized serving + the epoch-keyed result cache
// (DESIGN.md §10). The load-bearing contracts:
//
//  * Bit-identity — a request executed inside a batch (one frozen-view
//    pin, one shared dense scratch) returns EXACTLY the answer its
//    unbatched execution returns at the same epoch: same nodes, same
//    visit counts, same scores, same audited snapshot epochs. Checked
//    differentially for both engines (PPR and SALSA) and across scratch
//    reuse, at the service layer and through the tier.
//  * Cache correctness — a hit is labelled (Response::cache_hit), equal
//    to the freshly executed answer, and reachable ONLY at the epoch it
//    was computed at: a publish rotation invalidates by construction
//    (the lookup key carries the current frozen epoch).
//
// The TSan stress at the bottom races batched serving + repeat-seed
// cache traffic against the ingest/publish rotation (runs in the TSan
// CI job alongside serving_test).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fastppr/core/incremental_pagerank.h"
#include "fastppr/core/incremental_salsa.h"
#include "fastppr/engine/query_service.h"
#include "fastppr/engine/sharded_engine.h"
#include "fastppr/graph/generators.h"
#include "fastppr/serve/serving_tier.h"

namespace fastppr {
namespace {

using serve::DegradeLevel;
using serve::QueryClass;
using serve::Request;
using serve::Response;
using serve::ServingTier;
using serve::ServingTierOptions;

std::vector<EdgeEvent> InsertEvents(std::size_t n, std::size_t m,
                                    uint64_t seed) {
  Rng rng(seed);
  auto edges = ErdosRenyi(n, m, &rng);
  std::vector<EdgeEvent> events;
  events.reserve(edges.size());
  for (const Edge& e : edges) {
    events.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
  }
  return events;
}

MonteCarloOptions TestMcOptions() {
  MonteCarloOptions mc;
  mc.walks_per_node = 3;
  mc.epsilon = 0.2;
  mc.seed = 90;
  return mc;
}

template <typename Engine>
struct ServiceFixture {
  ServiceFixture(std::size_t n, std::size_t m, uint64_t seed)
      : engine(n, TestMcOptions(), ShardedOptions{2, 2}), service(&engine) {
    const auto events = InsertEvents(n, m, seed);
    EXPECT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data(),
                                                       events.size()))
                    .ok());
    service.Quiesce();
  }
  ShardedEngine<Engine> engine;
  QueryService<Engine> service;
};

// Runs a mixed batch through PersonalizedTopKInto (one pin, shared
// scratch), then replays every item through the unbatched
// PersonalizedTopK and demands exact equality. Two batches share one
// scratch so the dense-arena reset between batches is exercised too.
template <typename Engine>
void CheckBatchedMatchesUnbatched() {
  using Service = QueryService<Engine>;
  using Item = typename Service::PersonalizedBatchQuery;
  ServiceFixture<Engine> f(200, 1400, 47);

  typename Service::PersonalizedScratch scratch;
  for (int round = 0; round < 2; ++round) {
    std::vector<Item> batch;
    for (std::size_t i = 0; i < 6; ++i) {
      Item q;
      q.seed = static_cast<NodeId>(3 + 31 * i + round);
      q.k = 5 + (i % 3) * 5;
      q.walk_length = 800 + 400 * (i % 2);
      q.exclude_friends = (i % 2 == 0);
      q.rng_seed = 1000 * (round + 1) + i;
      batch.push_back(std::move(q));
    }
    f.service.PersonalizedTopKInto(std::span<Item>(batch), &scratch);

    for (const Item& q : batch) {
      ASSERT_TRUE(q.status.ok()) << q.status.ToString();
      EXPECT_EQ(q.snapshot.min_epoch, q.snapshot.max_epoch);
      std::vector<ScoredNode> expected;
      SnapshotInfo si;
      ASSERT_TRUE(f.service
                      .PersonalizedTopK(q.seed, q.k, q.walk_length,
                                        q.exclude_friends, q.rng_seed,
                                        &expected, /*walk_stats=*/nullptr,
                                        &si)
                      .ok());
      EXPECT_EQ(q.snapshot.min_epoch, si.min_epoch);
      ASSERT_EQ(q.ranked.size(), expected.size());
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(q.ranked[i].node, expected[i].node);
        EXPECT_EQ(q.ranked[i].visits, expected[i].visits);
        EXPECT_EQ(q.ranked[i].score, expected[i].score);  // bit-identical
      }
    }
  }
}

TEST(BatchedPersonalizedTest, PageRankBatchedMatchesUnbatchedBitForBit) {
  CheckBatchedMatchesUnbatched<IncrementalPageRank>();
}

TEST(BatchedPersonalizedTest, SalsaBatchedMatchesUnbatchedBitForBit) {
  CheckBatchedMatchesUnbatched<IncrementalSalsa>();
}

// ---- tier-level -----------------------------------------------------

struct Collector {
  void Done(const Response& resp) {
    std::lock_guard<std::mutex> lock(mu);
    responses.push_back(resp);
    cv.notify_all();
  }
  std::function<void(const Response&)> Callback() {
    return [this](const Response& r) { Done(r); };
  }
  bool WaitFor(std::size_t expected, int timeout_ms) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return responses.size() >= expected; });
  }
  std::mutex mu;
  std::condition_variable cv;
  std::vector<Response> responses;
};

struct TierFixture {
  TierFixture(std::size_t n, const ServingTierOptions& topt)
      : engine(n, TestMcOptions(), ShardedOptions{2, 2}),
        service(&engine),
        tier(&service, topt) {
    const auto events = InsertEvents(n, 6 * n, 31);
    EXPECT_TRUE(service
                    .Ingest(std::span<const EdgeEvent>(events.data(),
                                                       events.size()))
                    .ok());
    service.Quiesce();
  }
  ShardedEngine<IncrementalPageRank> engine;
  QueryService<IncrementalPageRank> service;
  ServingTier<IncrementalPageRank> tier;
};

Request PersonalizedRequest(NodeId node, uint64_t rng_seed,
                            Collector* col) {
  Request req;
  req.cls = QueryClass::kPersonalized;
  req.node = node;
  req.k = 10;
  req.walk_length = 1500;
  req.rng_seed = rng_seed;
  req.on_done = col->Callback();
  return req;
}

// A gated worker forms a real multi-request batch (batches_executed /
// batched_requests prove it), and every answer served through the batch
// equals a direct unbatched service call — the tier-level half of the
// bit-identity contract.
TEST(BatchedServingTierTest, WorkerCoalescesSliceIntoBatchBitIdentically) {
  ServingTierOptions topt;
  topt.num_workers = 1;
  topt.queue.capacity = 64;
  topt.max_batch = 8;
  // Generous CoDel horizon: nothing queued behind the gate may shed,
  // however slowly the sanitizer runs this.
  topt.queue.target_delay_ns = 500'000'000;
  topt.queue.shed_interval_ns = 2'000'000'000;
  const std::size_t n = 200;
  TierFixture f(n, topt);

  std::mutex gate_mu;
  std::condition_variable gate_cv;
  bool hook_entered = false;
  bool gate_open = false;
  f.tier.SetFaultHook([&](QueryClass) {
    std::unique_lock<std::mutex> lock(gate_mu);
    hook_entered = true;
    gate_cv.notify_all();
    gate_cv.wait(lock, [&] { return gate_open; });
  });

  Collector col;
  const std::size_t total = 6;
  f.tier.Submit(PersonalizedRequest(3, 100, &col));
  {
    // The worker holds request 0 at collect time; the rest pile into
    // the queue so the reopened slice coalesces them into one batch.
    std::unique_lock<std::mutex> lock(gate_mu);
    ASSERT_TRUE(gate_cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return hook_entered; }));
  }
  for (std::size_t i = 1; i < total; ++i) {
    f.tier.Submit(PersonalizedRequest(static_cast<NodeId>(3 + 17 * i),
                                      100 + i, &col));
  }
  {
    std::lock_guard<std::mutex> lock(gate_mu);
    gate_open = true;
    gate_cv.notify_all();
  }
  ASSERT_TRUE(col.WaitFor(total, 20'000));
  EXPECT_GE(f.tier.batches_executed(), 1u);
  EXPECT_GE(f.tier.batched_requests(), 2u);
  EXPECT_EQ(f.tier.batched_requests(), total);

  for (std::size_t i = 0; i < total; ++i) {
    const NodeId node = static_cast<NodeId>(i == 0 ? 3 : 3 + 17 * i);
    const uint64_t rng_seed = 100 + i;
    // Match responses by replaying the request directly: answers are
    // keyed by (node, rng_seed) uniqueness of this test's traffic.
    std::vector<ScoredNode> expected;
    ASSERT_TRUE(f.service
                    .PersonalizedTopK(node, 10, 1500, true, rng_seed,
                                      &expected)
                    .ok());
    std::size_t matches = 0;
    for (const Response& r : col.responses) {
      if (r.ranked.size() != expected.size() || expected.empty()) continue;
      bool equal = true;
      for (std::size_t j = 0; j < expected.size(); ++j) {
        if (r.ranked[j].node != expected[j].node ||
            r.ranked[j].visits != expected[j].visits ||
            r.ranked[j].score != expected[j].score) {
          equal = false;
          break;
        }
      }
      if (equal) ++matches;
    }
    EXPECT_GE(matches, 1u) << "no batched response matched the unbatched "
                              "answer for node "
                           << node;
  }
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

// Miss → execute → insert; repeat → labelled hit with the identical
// payload, zero queue/service time, and the audited single-epoch
// snapshot. The tier's stats and the striped counters both move.
TEST(ResultCacheTierTest, CacheHitBypassesQueueAndIsLabelled) {
  ServingTierOptions topt;
  topt.num_workers = 2;
  const std::size_t n = 200;
  TierFixture f(n, topt);

  Collector col;
  f.tier.Submit(PersonalizedRequest(7, 42, &col));
  ASSERT_TRUE(col.WaitFor(1, 10'000));
  const Response first = col.responses[0];
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.degrade, DegradeLevel::kFull);
  ASSERT_FALSE(first.ranked.empty());

  f.tier.Submit(PersonalizedRequest(7, 42, &col));
  ASSERT_TRUE(col.WaitFor(2, 10'000));
  const Response& second = col.responses[1];
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.queue_ns, 0u);
  EXPECT_EQ(second.service_ns, 0u);
  EXPECT_EQ(second.snapshot.min_epoch, second.snapshot.max_epoch);
  EXPECT_EQ(second.snapshot.min_epoch, first.snapshot.min_epoch);
  ASSERT_EQ(second.ranked.size(), first.ranked.size());
  for (std::size_t i = 0; i < first.ranked.size(); ++i) {
    EXPECT_EQ(second.ranked[i].node, first.ranked[i].node);
    EXPECT_EQ(second.ranked[i].visits, first.ranked[i].visits);
    EXPECT_EQ(second.ranked[i].score, first.ranked[i].score);
  }
  const auto stats = f.tier.cache_stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_GE(stats.misses, 1u);
  EXPECT_GE(stats.insertions, 1u);
  // Both submissions resolved (one admitted, one cache-admitted).
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
  EXPECT_EQ(f.tier.outcomes().admitted_full, 2u);
}

// The invalidation-by-construction proof: an entry cached at epoch E1
// is unreachable after the publish rotation moves the frozen view to
// E2 (the lookup key carries the CURRENT epoch), and the re-executed
// E2 answer repopulates the cache for subsequent hits at E2.
TEST(ResultCacheTierTest, PublishRotationInvalidatesByConstruction) {
  ServingTierOptions topt;
  topt.num_workers = 2;
  const std::size_t n = 200;
  TierFixture f(n, topt);

  const uint64_t e1 = f.service.frozen_epoch();
  Collector col;
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(1, 10'000));
  ASSERT_TRUE(col.responses[0].status.ok());
  EXPECT_FALSE(col.responses[0].cache_hit);
  EXPECT_EQ(col.responses[0].snapshot.min_epoch, e1);

  // Warm: same key hits at E1.
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(2, 10'000));
  EXPECT_TRUE(col.responses[1].cache_hit);

  // Rotate: a fresh window advances the frozen epoch.
  const auto events = InsertEvents(n, 900, 53);
  ASSERT_TRUE(
      f.service
          .Ingest(std::span<const EdgeEvent>(events.data(), events.size()))
          .ok());
  f.service.Quiesce();
  const uint64_t e2 = f.service.frozen_epoch();
  ASSERT_GT(e2, e1);

  // The E1 entry is unreachable: this is a miss that re-executes at E2.
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(3, 10'000));
  const Response& rotated = col.responses[2];
  ASSERT_TRUE(rotated.status.ok()) << rotated.status.ToString();
  EXPECT_FALSE(rotated.cache_hit);
  EXPECT_EQ(rotated.snapshot.min_epoch, e2);
  EXPECT_EQ(rotated.snapshot.max_epoch, e2);

  // And the E2 insert serves the next repeat.
  f.tier.Submit(PersonalizedRequest(9, 77, &col));
  ASSERT_TRUE(col.WaitFor(4, 10'000));
  EXPECT_TRUE(col.responses[3].cache_hit);
  EXPECT_EQ(col.responses[3].snapshot.min_epoch, e2);
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

// Hot keys answered from the cache must not hold the frozen view back.
// A hit pins no view, so the probe itself arms the frozen refresh, and
// a probe misses while the view lags the published epoch. With the
// writer idle between windows, every answer, hit or executed, serves
// the epoch just published, including after read-free windows.
TEST(ResultCacheTierTest, CacheHitsFollowPublishedEpoch) {
  ServingTierOptions topt;
  topt.num_workers = 2;
  const std::size_t n = 200;
  TierFixture f(n, topt);

  Collector col;
  std::size_t submitted = 0;
  const auto ask = [&]() -> Response {
    f.tier.Submit(PersonalizedRequest(5, 13, &col));
    ++submitted;
    EXPECT_TRUE(col.WaitFor(submitted, 10'000));
    std::lock_guard<std::mutex> lock(col.mu);
    return col.responses.back();
  };
  const auto ingest_window = [&](uint64_t seed) {
    const auto events = InsertEvents(n, 40, seed);
    ASSERT_TRUE(
        f.service
            .Ingest(std::span<const EdgeEvent>(events.data(), events.size()))
            .ok());
  };

  std::size_t hits = 0;
  for (uint64_t w = 0; w < 6; ++w) {
    ingest_window(600 + w);
    // Every third round also ingests a read-free window first.
    if (w % 3 == 2) ingest_window(700 + w);
    for (int rep = 0; rep < 3; ++rep) {
      const Response r = ask();
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
      EXPECT_EQ(r.snapshot.min_epoch, f.service.published_epoch())
          << "window " << w << " repeat " << rep;
      EXPECT_EQ(r.snapshot.max_epoch, r.snapshot.min_epoch);
      EXPECT_EQ(r.fresh_epoch, f.service.published_epoch());
      if (rep > 0) EXPECT_TRUE(r.cache_hit);
      hits += r.cache_hit ? 1 : 0;
    }
    EXPECT_EQ(f.service.frozen_epoch(), f.service.published_epoch());
  }
  EXPECT_EQ(hits, 12u);
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
}

// The TSan stress (runs in the TSan CI job): batched workers + the
// epoch-keyed cache under repeat-seed traffic, racing the ingest/
// publish rotation. Every cache hit must be a well-formed OK answer
// with a single-epoch snapshot — a rotation may turn hits into misses,
// never serve a torn or mixed-epoch entry, nor one older than the
// epoch published when it was probed — and every submission resolves
// exactly once. Once the writer stops, every hot key serves the final
// published epoch.
TEST(ResultCacheTierTest, ConcurrentBatchedCacheServingRacesIngest) {
  ServingTierOptions topt;
  topt.num_workers = 2;
  topt.queue.capacity = 64;
  topt.max_batch = 8;
  const std::size_t n = 300;
  TierFixture f(n, topt);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(99);
    while (!stop.load(std::memory_order_acquire)) {
      auto edges = ErdosRenyi(n, 64, &rng);
      std::vector<EdgeEvent> window;
      window.reserve(edges.size());
      for (const Edge& e : edges) {
        window.push_back(EdgeEvent{EdgeEvent::Kind::kInsert, e});
      }
      f.service
          .Ingest(std::span<const EdgeEvent>(window.data(), window.size()))
          .ok();
    }
  });

  constexpr std::size_t kPerThread = 120;
  constexpr std::size_t kThreads = 3;
  Collector col;
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        Request req;
        req.cls = QueryClass::kPersonalized;
        // Repeat-seed traffic: 8 distinct keys shared by all threads,
        // so hits race inserts race the rotation.
        req.node = static_cast<NodeId>((i % 8) * 7);
        req.k = 10;
        req.walk_length = 400;
        req.rng_seed = 5;  // part of the walk, NOT the cache key
        req.deadline = serve::Deadline::AfterMillis(200);
        req.on_done = col.Callback();
        f.tier.Submit(std::move(req));
        (void)t;
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  ASSERT_TRUE(col.WaitFor(kThreads * kPerThread, 60'000));
  stop.store(true, std::memory_order_release);
  writer.join();
  EXPECT_EQ(f.tier.outcomes().resolved(), f.tier.submitted());
  for (const Response& r : col.responses) {
    EXPECT_TRUE(r.status.ok() || r.status.IsResourceExhausted() ||
                r.status.IsDeadlineExceeded() || r.status.IsUnavailable())
        << r.status.ToString();
    if (r.cache_hit) {
      EXPECT_TRUE(r.status.ok());
      EXPECT_EQ(r.snapshot.min_epoch, r.snapshot.max_epoch);
      EXPECT_EQ(r.snapshot.min_epoch, r.fresh_epoch);
      EXPECT_FALSE(r.ranked.empty());
    }
  }

  Collector after;
  for (std::size_t key = 0; key < 8; ++key) {
    Request req;
    req.cls = QueryClass::kPersonalized;
    req.node = static_cast<NodeId>(key * 7);
    req.k = 10;
    req.walk_length = 400;
    req.rng_seed = 5;
    req.on_done = after.Callback();
    f.tier.Submit(std::move(req));
    ASSERT_TRUE(after.WaitFor(key + 1, 10'000));
  }
  for (const Response& r : after.responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_EQ(r.snapshot.min_epoch, f.service.published_epoch());
  }
}

}  // namespace
}  // namespace fastppr
