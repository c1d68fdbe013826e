// The benchmark's workloads. Each builds its inputs from the seed, runs the
// common set-up, measures for `seconds`, closes with a worker crash on the
// quiet cluster, checks every answer against the oracle, and fills the
// report.
#pragma once

#include <cstdint>

#include "harness.hpp"

namespace perfbench {

/// Bulk-ingest a fixed item set through Client::bulkLoad batches, then a
/// closed-loop, single-session sweep of synchronous band queries.
void runBulkQuery(const Args& args, std::uint64_t processStart, Report& report);

/// A closed-loop 70/30 stream of insertAsync/queryAsync on a preloaded
/// cluster, with a fixed window.
void runMixedStream(const Args& args, std::uint64_t processStart,
                    Report& report);

}  // namespace perfbench
