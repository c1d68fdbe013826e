#include "workloads.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "cluster_phases.hpp"
#include "layers.hpp"
#include "olap/data_gen.hpp"
#include "olap/query_gen.hpp"
#include "oracle.hpp"

namespace perfbench {

using namespace volap;

namespace {

// ---- sizes -------------------------------------------------------------
// bulk_query: the fixed item set bulk-ingested in the timed phase.
constexpr std::size_t kBulkItems = 600'000;
constexpr std::size_t kBulkBatch = 2'000;
// mixed_stream: items preloaded during set-up.
constexpr std::size_t kStreamPreload = 200'000;
constexpr std::size_t kPreloadBatch = 20'000;
// Queries generateBands fills per coverage band; the mix takes half of
// the low ones and all the high ones.
constexpr std::size_t kPerBand = 256;
// mixed_stream: 7 inserts + 3 queries per round, window per session, and
// how often the stream is drained for a checked synchronous query.
constexpr unsigned kWindow = 64;
constexpr unsigned kRoundInserts = 7;
constexpr unsigned kRoundOps = 10;
constexpr unsigned kSampleEveryRounds = 250;
// Traced runs: synchronous inserts on the idle cluster.
constexpr std::size_t kRttInserts = 400;
// The worker every run crashes once its timed phase is over.
constexpr unsigned kVictim = 1;
// With balancing off, the first items routed decide the shard boxes and so
// how all later items spread over the workers: across seeds the busiest
// worker held 1.5x to 3x the items of the idlest, and every metric followed
// that layout rather than the code. The first kLayoutItems of every item
// set therefore come from one fixed seed; the rest come from --seed.
constexpr std::size_t kLayoutItems = 10'000;
constexpr std::uint64_t kLayoutSeed = 20'160'101;

PointSet workloadItems(const Schema& schema, std::uint64_t seed, std::size_t n) {
  Span span("olap.generate_items");
  PointSet items(schema.dims());
  items.reserve(n);
  DataGenerator layout(schema, kLayoutSeed), rest(schema, seed);
  for (std::size_t i = 0; i < n; ++i)
    items.push(i < kLayoutItems ? layout.next() : rest.next());
  return items;
}

struct Bands {
  std::vector<QueryBox> low, high;
  /// The query mix: one low-coverage query to two high ones (medium
  /// coverage is too rare in this schema to fill a band). Low-band latency
  /// is bimodal, tiny drill-downs and scans of up to a third of the data,
  /// so any percentile that lands between its modes jumps from seed to
  /// seed. With this mix the pooled p50 falls inside the high band (the
  /// scatter/merge and cached-aggregate path) and the p90 inside the low
  /// band's scan mode (the leaf-scan path).
  std::vector<QueryBox> mix() const {
    std::vector<QueryBox> out(low.begin(), low.begin() + low.size() / 2);
    out.insert(out.end(), high.begin(), high.end());
    return out;
  }
};

/// The query catalogue: band queries anchored on, and binned against, the
/// fixed layout items, so every seed asks the same questions (in a seeded
/// order). Drawn per seed, the share of heavy scans among the low-band
/// queries moved the query percentiles by a third from seed to seed.
Bands makeBands(const Schema& schema, const PointSet& items) {
  Span span("olap.generate_bands");
  PointSet anchors(items.dims());
  for (std::size_t i = 0; i < std::min(items.size(), kLayoutItems); ++i)
    anchors.push(items.at(i));
  QueryGenerator gen(schema, kLayoutSeed);
  const auto bins = gen.generateBands(anchors, kPerBand);
  Bands bands;
  for (const auto& q : bins[static_cast<int>(CoverageBand::kLow)])
    bands.low.push_back(q.box);
  for (const auto& q : bins[static_cast<int>(CoverageBand::kHigh)])
    bands.high.push_back(q.box);
  return bands;
}

PointSet concat(const PointSet& a, const PointSet& b) {
  PointSet out(a.dims());
  out.reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push(a.at(i));
  for (std::size_t i = 0; i < b.size(); ++i) out.push(b.at(i));
  return out;
}

/// A full-coverage query that must be exact: not partial and counting
/// every acked item, as must totalItems(). Returns the answer so its
/// aggregate can be checked against brute force.
QueryReply checkFullCoverage(VolapCluster& cluster, Client& client,
                             std::uint64_t ackedCount, Report& report) {
  QueryReply r = client.query(QueryBox(cluster.schema()));
  report.check(!r.partial, "full-coverage query answered partial");
  report.check(r.agg.count == ackedCount,
               "full-coverage query counted " + std::to_string(r.agg.count) +
                   " items, " + std::to_string(ackedCount) + " were acked");
  report.check(cluster.totalItems() == ackedCount,
               "totalItems() is " + std::to_string(cluster.totalItems()) +
                   ", " + std::to_string(ackedCount) + " items were acked");
  return r;
}

/// Traced runs only: synchronous inserts on the idle cluster, timed one by
/// one (client.insert_rtt_us). Returns how many were acked.
std::uint64_t syncInsertRtt(Client& client, const Schema& schema,
                            std::uint64_t seed, Report& report) {
  DataGenerator gen(schema, seed * 31 + 5);
  std::vector<double> rttUs;
  const std::uint64_t before = client.insertsAcked();
  for (std::size_t i = 0; i < kRttInserts; ++i) {
    const PointRef p = gen.next();
    Span span("client.insert");
    const std::uint64_t t0 = nowNanos();
    client.insert(p);
    rttUs.push_back(static_cast<double>(nowNanos() - t0) / 1e3);
  }
  report.attempt(kRttInserts);
  const std::uint64_t got = client.insertsAcked() - before;
  if (got != kRttInserts) report.fail("synchronous insert expired", kRttInserts - got);
  report.layer("client.insert_rtt_us", percentile(rttUs, 0.5), "us");
  return got;
}

void reportMsgsPerOp(std::uint64_t msgs, std::uint64_t ops, Report& report) {
  report.layer("net.msgs_per_op",
               static_cast<double>(msgs) / static_cast<double>(std::max<std::uint64_t>(1, ops)),
               "msgs");
}

void replayLayers(const Schema& schema, const PointSet& items,
                  const Bands& bands, double batch, Report& report) {
  const ClusterOptions opts = clusterOptions(true);
  const std::size_t shards = opts.workers * opts.initialShardsPerWorker;
  replayKernels({schema, items, bands.low, bands.high, shards,
                 items.size() / shards,
                 std::max<std::size_t>(1, static_cast<std::size_t>(batch + 0.5))},
                report);
}

void endToEndLatencies(const std::vector<double>& insertMs,
                       const std::vector<double>& queryMs, Report& report) {
  report.endToEnd("insert_ack_p50_ms", percentile(insertMs, 0.50), "ms");
  report.endToEnd("insert_ack_p90_ms", percentile(insertMs, 0.90), "ms");
  report.endToEnd("query_p50_ms", percentile(queryMs, 0.50), "ms");
  report.endToEnd("query_p90_ms", percentile(queryMs, 0.90), "ms");
}

}  // namespace

// ---- bulk_query ------------------------------------------------------------

void runBulkQuery(const Args& args, std::uint64_t processStart, Report& report) {
  const Schema schema = Schema::tpcds();
  const PointSet items = workloadItems(schema, args.seed, kBulkItems);
  const Bands bands = makeBands(schema, items);
  const std::vector<QueryBox> queries = bands.mix();
  report.check(!bands.low.empty() && !bands.high.empty(),
               "query generator left a coverage band empty");

  ReadyCluster ready = startCluster(schema, args.trace);
  if (!ready.cluster) return report.check(false, "chains were never built");
  VolapCluster& cluster = *ready.cluster;
  auto client = cluster.makeClient("perfbench", 0);
  const double setupSeconds = secondsSince(processStart);

  // Timed: bulk ingest, then whole rounds of the band sweep until the run's
  // seconds are used up.
  const std::uint64_t msgs0 = cluster.fabric().sentCount();
  const std::uint64_t t0 = nowNanos();
  std::vector<double> batchMs;
  std::uint64_t loaded = 0;
  {
    Span span("workload.bulk_ingest");
    loaded = bulkLoadAll(*client, items, kBulkBatch, &batchMs);
  }
  const double bulkSeconds = secondsSince(t0);
  report.attempt(batchMs.size());

  Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 1);
  std::vector<std::size_t> order(queries.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<double> queryMs;
  std::vector<std::pair<std::size_t, Aggregate>> replies;
  {
    Span span("workload.query_sweep");
    do {
      for (std::size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
      for (std::size_t qi : order) {
        Span opSpan("client.query");
        const std::uint64_t ts = nowNanos();
        const QueryReply r = client->query(queries[qi]);
        queryMs.push_back(static_cast<double>(nowNanos() - ts) / 1e6);
        report.attempt();
        if (r.partial) report.fail("partial band query");
        replies.emplace_back(qi, r.agg);
      }
    } while (secondsSince(t0) < args.seconds);
  }
  const std::uint64_t msgs = cluster.fabric().sentCount() - msgs0;

  report.check(loaded == items.size(),
               "bulkLoad returns sum to " + std::to_string(loaded) + ", " +
                   std::to_string(items.size()) + " items were sent");
  const QueryReply full = checkFullCoverage(cluster, *client, loaded, report);
  std::uint64_t acked = loaded;
  const double batch = coalesceItemsPerBatch(cluster);
  if (args.trace) {
    reportMsgsPerOp(msgs, batchMs.size() + queryMs.size(), report);
    acked += syncInsertRtt(*client, schema, args.seed, report);
    reportClusterLayers(cluster, report);
  }
  const CrashResult crash =
      crashAndProbe(cluster, *client, kVictim, acked, args.trace, report);
  client.reset();
  ready.cluster.reset();

  // Oracle.
  const std::vector<Aggregate> want = bruteForceAll(queries, items);
  std::size_t wrong = 0;
  for (const auto& [qi, got] : replies) wrong += !sameAggregate(got, want[qi]);
  report.check(wrong == 0, std::to_string(wrong) + " of " +
                               std::to_string(replies.size()) +
                               " band queries disagree with brute force");
  report.check(sameAggregate(full.agg, bruteForce(QueryBox(schema), items)),
               "full-coverage aggregate disagrees with brute force");

  report.endToEnd("ingest_items_per_s",
                  static_cast<double>(loaded) / bulkSeconds, "items/s");
  endToEndLatencies(batchMs, queryMs, report);
  reportCommonEndToEnd(setupSeconds, crash, report);
  report.note("bulk_query: " + std::to_string(loaded) + " items in " +
              std::to_string(batchMs.size()) + " batches, " +
              std::to_string(queryMs.size()) + " band queries over " +
              std::to_string(queries.size()) + " distinct");
  if (args.trace) {
    reportSetupLayers(ready, report);
    reportCrashLayers(crash, report);
    replayLayers(schema, items, bands, batch, report);
  }
}

// ---- mixed_stream ----------------------------------------------------------

void runMixedStream(const Args& args, std::uint64_t processStart,
                    Report& report) {
  const Schema schema = Schema::tpcds();
  const PointSet preload = workloadItems(schema, args.seed, kStreamPreload);
  const Bands bands = makeBands(schema, preload);
  const std::vector<QueryBox> queries = bands.mix();

  ReadyCluster ready = startCluster(schema, args.trace);
  if (!ready.cluster) return report.check(false, "chains were never built");
  VolapCluster& cluster = *ready.cluster;
  auto client = cluster.makeClient("perfbench", 0, kWindow);
  const std::uint64_t preloaded = bulkLoadAll(*client, preload, kPreloadBatch, nullptr);
  report.check(preloaded == preload.size(), "preload bulkLoad returns do not sum up");
  const double setupSeconds = secondsSince(processStart);

  // Timed: whole rounds of 7 inserts and 3 queries in a seeded order. Every
  // kSampleEveryRounds rounds the window is drained and one synchronous
  // query is recorded; it must equal brute force over every item sent so
  // far. (Completions arrive out of order: an insert routed to a stalled
  // shard can stay unacked while hundreds of newer ops complete, so "all
  // but the last window" is no lower bound on what is acked.)
  struct Sample {
    std::size_t query;
    std::size_t sentItems;
    Aggregate got;
  };
  std::vector<Sample> samples;
  DataGenerator streamGen(schema, args.seed + 1);
  PointSet sent(schema.dims());
  Rng rng(args.seed * 0x9e3779b97f4a7c15ull + 2);
  std::uint64_t asyncOps = 0, rounds = 0;
  const std::uint64_t msgs0 = cluster.fabric().sentCount();
  const std::uint64_t t0 = nowNanos();
  {
    Span span("workload.stream");
    do {
      bool isInsert[kRoundOps];
      for (unsigned i = 0; i < kRoundOps; ++i) isInsert[i] = i < kRoundInserts;
      for (unsigned i = kRoundOps; i > 1; --i)
        std::swap(isInsert[i - 1], isInsert[rng.below(i)]);
      for (bool ins : isInsert) {
        if (ins) {
          const PointRef p = streamGen.next();
          sent.push(p);
          client->insertAsync(p);
        } else {
          client->queryAsync(queries[rng.below(queries.size())]);
        }
        ++asyncOps;
      }
      if (++rounds % kSampleEveryRounds == 0) {
        client->drain();
        Sample s;
        s.query = rng.below(queries.size());
        s.sentItems = preload.size() + sent.size();
        const QueryReply r = client->query(queries[s.query]);
        s.got = r.agg;
        report.attempt();
        if (r.partial) report.fail("partial sampled query");
        else samples.push_back(s);
      }
    } while (secondsSince(t0) < args.seconds);
    client->drain();
  }
  const double streamSeconds = secondsSince(t0);
  const std::uint64_t msgs = cluster.fabric().sentCount() - msgs0;
  report.attempt(asyncOps);
  if (client->insertsExpired()) report.fail("insert expired", client->insertsExpired());
  if (client->queriesExpired()) report.fail("query expired", client->queriesExpired());
  if (client->partialReplies()) report.fail("partial stream query", client->partialReplies());
  const std::uint64_t acked = client->insertsAcked();
  report.check(acked == sent.size(), std::to_string(sent.size() - acked) +
                                         " stream inserts were never acked");
  const PointSet all = concat(preload, sent);
  const QueryReply full =
      checkFullCoverage(cluster, *client, preloaded + acked, report);
  const LatencyHistogram insertLat = client->insertLatency();
  const LatencyHistogram queryLat = client->queryLatency();
  const double batch = coalesceItemsPerBatch(cluster);
  std::uint64_t total = preloaded + acked;
  if (args.trace) {
    reportMsgsPerOp(msgs, asyncOps, report);
    total += syncInsertRtt(*client, schema, args.seed, report);
    reportClusterLayers(cluster, report);
  }
  const CrashResult crash =
      crashAndProbe(cluster, *client, kVictim, total, args.trace, report);
  client.reset();
  ready.cluster.reset();

  // Oracle: each sampled answer is brute force over the items sent before it.
  std::size_t wrong = 0;
  for (const Sample& s : samples)
    wrong += !sameAggregate(s.got, bruteForce(queries[s.query], all, s.sentItems));
  report.check(wrong == 0, std::to_string(wrong) + " of " +
                               std::to_string(samples.size()) +
                               " sampled stream queries disagree with brute "
                               "force over the items acked before them");
  report.check(sameAggregate(full.agg, bruteForce(QueryBox(schema), all)),
               "full-coverage aggregate disagrees with brute force");

  report.endToEnd("ingest_items_per_s", static_cast<double>(acked) / streamSeconds,
                  "items/s");
  report.endToEnd("insert_ack_p50_ms", histogramPercentileNanos(insertLat, 0.50) / 1e6, "ms");
  report.endToEnd("insert_ack_p90_ms", histogramPercentileNanos(insertLat, 0.90) / 1e6, "ms");
  report.endToEnd("query_p50_ms", histogramPercentileNanos(queryLat, 0.50) / 1e6, "ms");
  report.endToEnd("query_p90_ms", histogramPercentileNanos(queryLat, 0.90) / 1e6, "ms");
  reportCommonEndToEnd(setupSeconds, crash, report);
  report.note("mixed_stream: " + std::to_string(asyncOps) + " ops (" +
              std::to_string(acked) + " inserts) in " +
              std::to_string(streamSeconds) + " s, " +
              std::to_string(samples.size()) + " sampled queries checked");
  if (args.trace) {
    reportSetupLayers(ready, report);
    reportCrashLayers(crash, report);
    replayLayers(schema, all, bands, batch, report);
  }
}

}  // namespace perfbench
