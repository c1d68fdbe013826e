// Per-layer kernel replays of the traced run: each layer's kernel is timed
// from outside, through its public API, on the workload's own inputs.
#pragma once

#include <cstddef>
#include <vector>

#include "harness.hpp"
#include "olap/point.hpp"
#include "olap/query_box.hpp"
#include "olap/schema.hpp"

namespace perfbench {

struct KernelInputs {
  const volap::Schema& schema;
  const volap::PointSet& items;     // the workload's items
  std::vector<volap::QueryBox> low;   // coverage < 1/3
  std::vector<volap::QueryBox> high;  // coverage > 2/3
  std::size_t shards = 1;           // shards the cluster starts with
  std::size_t shardItems = 0;       // items one cluster shard holds
  std::size_t coalesceBatch = 1;    // items per batch the coalescer sent
};

/// Replays the hilbert, tree, WAL and fabric kernels and reports
/// hilbert.*, tree.*, wal.* and net.roundtrip_us.
void replayKernels(const KernelInputs& in, Report& report);

}  // namespace perfbench
