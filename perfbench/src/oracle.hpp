// The oracle every workload shares: brute-force aggregates over the items
// the benchmark itself loaded and had acked, compared with the cluster's
// answers. Count, min and max must match exactly; the sum is a double the
// cluster merges in another order, so it matches to a relative tolerance.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <thread>
#include <vector>

#include "olap/aggregate.hpp"
#include "olap/point.hpp"
#include "olap/query_box.hpp"

namespace perfbench {

inline volap::Aggregate bruteForce(const volap::QueryBox& q,
                                   const volap::PointSet& items,
                                   std::size_t end) {
  volap::Aggregate agg;
  for (std::size_t i = 0; i < end; ++i) {
    const volap::PointRef p = items.at(i);
    if (q.contains(p)) agg.add(p.measure);
  }
  return agg;
}

inline volap::Aggregate bruteForce(const volap::QueryBox& q,
                                   const volap::PointSet& items) {
  return bruteForce(q, items, items.size());
}

/// Aggregates of many queries over one item set, on up to four threads.
inline std::vector<volap::Aggregate> bruteForceAll(
    const std::vector<volap::QueryBox>& queries, const volap::PointSet& items) {
  std::vector<volap::Aggregate> out(queries.size());
  const unsigned threads = std::max(
      1u, std::min<unsigned>(4, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < queries.size(); i += threads)
        out[i] = bruteForce(queries[i], items);
    });
  for (auto& th : pool) th.join();
  return out;
}

inline bool sameAggregate(const volap::Aggregate& got,
                          const volap::Aggregate& want) {
  if (got.count != want.count) return false;
  if (want.count == 0) return true;
  const double tol = 1e-9 * std::max(1.0, std::fabs(want.sum));
  return got.min == want.min && got.max == want.max &&
         std::fabs(got.sum - want.sum) <= tol;
}

}  // namespace perfbench
