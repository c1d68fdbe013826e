#include "cluster_phases.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "keeper/keeper.hpp"
#include "olap/query_box.hpp"

namespace perfbench {

using namespace volap;
using namespace std::chrono_literals;

namespace {

double msBetween(std::uint64_t t0, std::uint64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// Every shard znode, decoded.
std::vector<ShardInfo> readShards(KeeperClient& zk) {
  std::vector<ShardInfo> out;
  const auto kids = zk.children(shardsPath());
  if (!kids) return out;
  for (const auto& name : *kids) {
    const auto got = zk.get(shardsPath() + "/" + name);
    if (!got) continue;
    ByteReader r(got->data);
    out.push_back(ShardInfo::deserialize(r));
  }
  return out;
}

}  // namespace

ClusterOptions clusterOptions(bool traced) {
  ClusterOptions opts;
  // Split/migrate balancing during ingest loses acked items and makes
  // replica reads over-count (perfbench/README.md); the benchmark measures
  // the serving path without it.
  opts.manager.enabled = false;
  opts.traceSampleEveryN = traced ? 8 : 0;
  opts.worker.statsIntervalNanos = 40'000'000;
  opts.server.syncIntervalNanos = 100'000'000;
  opts.manager.periodNanos = 50'000'000;
  opts.manager.aliveTimeoutNanos = 250'000'000;
  opts.manager.deadGraceNanos = 150'000'000;
  return opts;
}

bool allShardsChained(VolapCluster& cluster) {
  KeeperClient zk(cluster.fabric(), "perfbench-chain-observer");
  const ClusterOptions opts = clusterOptions(false);
  const std::vector<ShardInfo> shards = readShards(zk);
  if (shards.size() < opts.workers * opts.initialShardsPerWorker) return false;
  for (const ShardInfo& s : shards)
    if (s.replicas.empty()) return false;
  return true;
}

ReadyCluster startCluster(const Schema& schema, bool traced) {
  Span span("setup.cluster");
  ReadyCluster ready;
  std::uint64_t t0 = nowNanos();
  ready.cluster = std::make_unique<VolapCluster>(schema, clusterOptions(traced));
  ready.clusterSeconds = secondsSince(t0);
  t0 = nowNanos();
  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!allShardsChained(*ready.cluster)) {
    if (std::chrono::steady_clock::now() > deadline) {
      ready.cluster.reset();
      return ready;
    }
    std::this_thread::sleep_for(5ms);
  }
  ready.chainSeconds = secondsSince(t0);
  return ready;
}

std::uint64_t bulkLoadAll(Client& client, const PointSet& items,
                          std::size_t batch, std::vector<double>* batchMs) {
  std::uint64_t loaded = 0;
  PointSet chunk(items.dims());
  chunk.reserve(batch);
  for (std::size_t at = 0; at < items.size(); at += batch) {
    chunk.clear();
    for (std::size_t i = at; i < std::min(items.size(), at + batch); ++i)
      chunk.push(items.at(i));
    Span span("client.bulk_load");
    const std::uint64_t t0 = nowNanos();
    loaded += client.bulkLoad(chunk);
    if (batchMs != nullptr) batchMs->push_back(msBetween(t0, nowNanos()));
  }
  return loaded;
}

CrashResult crashAndProbe(VolapCluster& cluster, Client& probe,
                          unsigned victim, std::uint64_t acked,
                          bool watchPhases, Report& report) {
  Span span("failover.crash_to_exact");
  CrashResult res;
  Manager& manager = cluster.manager();
  const std::uint64_t repairsBefore =
      manager.promotionsDone() + manager.recoveriesDone();
  std::vector<ShardId> victimShards;
  {
    KeeperClient zk(cluster.fabric(), "perfbench-victim-scan");
    for (const ShardInfo& s : readShards(zk))
      if (s.worker == victim) victimShards.push_back(s.id);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> detectNanos{0}, publishNanos{0};
  const std::uint64_t t0 = nowNanos();
  std::thread watcher;
  if (watchPhases) {
    watcher = std::thread([&] {
      KeeperClient zk(cluster.fabric(), "perfbench-phase-watcher");
      while (!stop.load() && (detectNanos == 0 || publishNanos == 0)) {
        if (detectNanos == 0 &&
            manager.promotionsDone() + manager.recoveriesDone() > repairsBefore)
          detectNanos = nowNanos();
        if (publishNanos == 0) {
          bool moved = true;
          for (ShardId id : victimShards) {
            const auto got = zk.get(shardPath(id));
            if (!got) continue;  // re-hosted under a new znode
            ByteReader r(got->data);
            moved &= ShardInfo::deserialize(r).worker != victim;
          }
          if (moved) publishNanos = nowNanos();
        }
        std::this_thread::sleep_for(1ms);
      }
    });
  }

  cluster.crashWorker(victim);
  const QueryBox all(cluster.schema());
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t ts = nowNanos();
    QueryReply reply;
    {
      Span probeSpan("client.probe_query");
      reply = probe.query(all);
    }
    const std::uint64_t te = nowNanos();
    if (!reply.partial) {
      report.check(reply.agg.count <= acked,
                   "full-coverage probe counted " +
                       std::to_string(reply.agg.count) + " items, only " +
                       std::to_string(acked) + " were acked");
      if (reply.agg.count >= acked) {
        res.recovered = true;
        res.mttrMs = msBetween(t0, te);
        break;
      }
    }
    res.probeBlockMs = std::max(res.probeBlockMs, msBetween(ts, te));
    std::this_thread::sleep_for(5ms);
  }
  stop = true;
  if (watcher.joinable()) watcher.join();
  if (detectNanos != 0) res.detectMs = msBetween(t0, detectNanos);
  if (publishNanos != 0) res.publishMs = msBetween(t0, publishNanos);
  res.promotions = manager.promotionsDone();
  report.check(res.recovered, "no exact full-coverage answer within 60 s of "
                              "the crash");
  return res;
}

double coalesceItemsPerBatch(VolapCluster& cluster) {
  std::uint64_t items = 0, batches = 0;
  for (unsigned s = 0; s < cluster.serverCount(); ++s) {
    const Server::Stats st = cluster.server(s).stats();
    items += st.coalescedItems;
    batches += st.coalescedBatches;
  }
  return batches ? static_cast<double>(items) / static_cast<double>(batches)
                 : 0.0;
}

void reportClusterLayers(VolapCluster& cluster, Report& report) {
  report.layer("server.coalesce_items_per_batch",
               coalesceItemsPerBatch(cluster), "items");
  // Every benchmark session attaches to server 0, so its registry holds
  // every sampled trace.
  const MetricsSnapshot snap = cluster.server(0).metrics().snapshot();
  for (const char* stage : {"route", "lane_dwell", "wal", "repl", "apply",
                            "total"}) {
    const std::string name = std::string("trace.ingest.") + stage + "_ns";
    const HistogramStats* h = snap.findHistogram(name);
    report.layer(name, h ? static_cast<double>(h->p50) : 0.0, "ns");
  }
  for (const char* stage : {"scan", "total"}) {
    const std::string name = std::string("trace.query.") + stage + "_ns";
    const HistogramStats* h = snap.findHistogram(name);
    report.layer(name, h ? static_cast<double>(h->p50) : 0.0, "ns");
  }
}

void reportSetupLayers(const ReadyCluster& ready, Report& report) {
  report.layer("setup.cluster_s", ready.clusterSeconds, "s");
  report.layer("setup.chain_s", ready.chainSeconds, "s");
}

void reportCrashLayers(const CrashResult& crash, Report& report) {
  report.layer("failover.detect_ms", crash.detectMs, "ms");
  report.layer("failover.publish_ms", crash.publishMs, "ms");
  report.layer("failover.probe_block_ms", crash.probeBlockMs, "ms");
}

void reportCommonEndToEnd(double setupSeconds, const CrashResult& crash,
                          Report& report) {
  report.endToEnd("setup_s", setupSeconds, "s");
  report.endToEnd("mttr_ms", crash.mttrMs, "ms");
  report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
}

}  // namespace perfbench
