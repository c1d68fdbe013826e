// Cluster phases every workload shares: the common set-up (configuration,
// start, chain build and seed), bulk loading, and the crash-to-exact-answer
// measurement that each run closes with.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "harness.hpp"
#include "olap/point.hpp"
#include "olap/schema.hpp"
#include "volap/volap.hpp"

namespace perfbench {

/// The default ClusterOptions (2 servers, 4 workers, durability, R = 2,
/// replica reads) with balancing off, trace sampling only in traced runs,
/// and the accelerated failure-detection timers of bench/recovery.cpp so a
/// crash is detected and repaired within a few seconds.
volap::ClusterOptions clusterOptions(bool traced);

/// A started cluster whose every shard has a built and seeded chain.
struct ReadyCluster {
  std::unique_ptr<volap::VolapCluster> cluster;
  double clusterSeconds = 0;  // VolapCluster constructor
  double chainSeconds = 0;    // until every shard znode lists a replica
};

/// Start a cluster and wait for its chains. Returns a null cluster if the
/// chains are not built within the deadline.
ReadyCluster startCluster(const volap::Schema& schema, bool traced);

/// True once every shard znode in the keeper lists a chain replica.
bool allShardsChained(volap::VolapCluster& cluster);

/// Bulk-load `items` in batches through `client`; returns the sum of the
/// bulkLoad returns and appends each batch round trip (ms) to `batchMs`.
std::uint64_t bulkLoadAll(volap::Client& client, const volap::PointSet& items,
                          std::size_t batch, std::vector<double>* batchMs);

/// Result of a crash: time until a full-coverage query is exact again, and
/// (when the watcher runs) the recovery phases as seen from outside.
struct CrashResult {
  bool recovered = false;
  double mttrMs = 0;
  double probeBlockMs = 0;  // longest single probe before the exact one
  double detectMs = 0;      // until promotionsDone()/recoveriesDone() rises
  double publishMs = 0;     // until the keeper names new owners
  std::uint64_t promotions = 0;
};

/// Crash worker `victim` on the quiet cluster and probe with full-coverage
/// queries through `probe` until one is not partial and counts the `acked`
/// items; a count above it is a wrong answer. With `watchPhases`, a watcher
/// thread polls the manager and keeper each millisecond for the phases.
CrashResult crashAndProbe(volap::VolapCluster& cluster, volap::Client& probe,
                          unsigned victim, std::uint64_t acked,
                          bool watchPhases, Report& report);

/// Client inserts per coalesced kWBulk batch, over every server (0 when the
/// coalescer sent nothing).
double coalesceItemsPerBatch(volap::VolapCluster& cluster);

/// Per-layer metrics read from the cluster's own registries and counters:
/// stage-histogram p50s and the coalescer's items per batch.
void reportClusterLayers(volap::VolapCluster& cluster, Report& report);

/// Per-layer metrics of set-up and of a crash.
void reportSetupLayers(const ReadyCluster& ready, Report& report);
void reportCrashLayers(const CrashResult& crash, Report& report);

/// The end-to-end metrics every workload reports besides its own.
void reportCommonEndToEnd(double setupSeconds, const CrashResult& crash,
                          Report& report);

}  // namespace perfbench
