#include "layers.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <thread>

#include "common/clock.hpp"
#include "common/wal.hpp"
#include "hilbert/compact_hilbert.hpp"
#include "net/fabric.hpp"
#include "tree/shard.hpp"

namespace perfbench {

using namespace volap;

namespace {

/// Keeps a computed value alive so the timed call is not optimized away.
template <typename T>
void sink(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

PointSet slice(const PointSet& items, std::size_t begin, std::size_t end) {
  PointSet out(items.dims());
  out.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) out.push(items.at(i));
  return out;
}

void replayHilbert(const KernelInputs& in, Report& report) {
  const Schema& schema = in.schema;
  const std::size_t n = std::min<std::size_t>(in.items.size(), 100'000);
  std::vector<std::uint64_t> expanded(n * schema.dims());
  for (std::size_t i = 0; i < n; ++i)
    schema.expandPoint(in.items.at(i).coords,
                       std::span<std::uint64_t>(expanded.data() + i * schema.dims(),
                                                schema.dims()));
  Span span("hilbert.index");
  const CompactHilbertCurve& curve = schema.curve();
  const std::uint64_t t0 = nowNanos();
  for (std::size_t i = 0; i < n; ++i) {
    const auto key = curve.index(std::span<const std::uint64_t>(
        expanded.data() + i * schema.dims(), schema.dims()));
    sink(key);
  }
  report.layer("hilbert.index_ns",
               static_cast<double>(nowNanos() - t0) / static_cast<double>(n),
               "ns");
}

double meanQueryMicros(const Shard& shard, const std::vector<QueryBox>& qs) {
  if (qs.empty()) return 0;
  constexpr int kRepeats = 5;
  const std::uint64_t t0 = nowNanos();
  for (int r = 0; r < kRepeats; ++r)
    for (const QueryBox& q : qs) sink(shard.query(q));
  return static_cast<double>(nowNanos() - t0) / 1e3 /
         static_cast<double>(kRepeats * qs.size());
}

void replayTree(const KernelInputs& in, Report& report) {
  const std::size_t n = std::min(in.shardItems, in.items.size());
  const PointSet base = slice(in.items, 0, n);
  auto shard = makeShard(ShardKind::kHilbertPdcMds, in.schema);
  {
    Span span("tree.bulk_load");
    const std::uint64_t t0 = nowNanos();
    shard->bulkLoad(base);
    report.layer("tree.bulk_load_ns_per_item",
                 static_cast<double>(nowNanos() - t0) / static_cast<double>(n),
                 "ns");
  }
  {
    Span span("tree.query");
    report.layer("tree.query_low_us", meanQueryMicros(*shard, in.low), "us");
    report.layer("tree.query_high_us", meanQueryMicros(*shard, in.high), "us");
  }
  Blob blob;
  {
    Span span("tree.serialize");
    const std::uint64_t t0 = nowNanos();
    blob = shard->serializeShard();
    report.layer("tree.serialize_ms",
                 static_cast<double>(nowNanos() - t0) / 1e6, "ms");
  }
  {
    Span span("tree.deserialize");
    const std::uint64_t t0 = nowNanos();
    auto copy = deserializeShard(in.schema, blob);
    report.layer("tree.deserialize_ms",
                 static_cast<double>(nowNanos() - t0) / 1e6, "ms");
    sink(copy);
  }
  // Point batches the size the coalescer sends, into the loaded shard.
  const std::size_t extra = std::min<std::size_t>(20'000, in.items.size());
  const std::size_t batch = std::max<std::size_t>(1, in.coalesceBatch);
  std::vector<PointSet> batches;
  for (std::size_t at = 0; at < extra; at += batch)
    batches.push_back(slice(in.items, at, std::min(extra, at + batch)));
  Span span("tree.bulk_insert");
  const std::uint64_t t0 = nowNanos();
  for (const PointSet& b : batches) shard->bulkInsert(b);
  report.layer("tree.insert_ns_per_item",
               static_cast<double>(nowNanos() - t0) / static_cast<double>(extra),
               "ns");
}

void replayWal(const KernelInputs& in, Report& report) {
  // One record per client insert, grouped as the coalescer groups them and
  // spread over as many shard logs as the cluster has shards.
  const std::size_t records = std::min<std::size_t>(20'000, in.items.size());
  const std::size_t group = std::max<std::size_t>(1, in.coalesceBatch);
  std::vector<std::vector<WalRecord>> groups;
  for (std::size_t at = 0; at < records; at += group) {
    std::vector<WalRecord> g;
    for (std::size_t i = at; i < std::min(records, at + group); ++i) {
      WalRecord rec;
      rec.from = "client/perfbench";
      rec.corr = i + 1;
      ByteWriter w;
      slice(in.items, i, i + 1).serialize(w);
      rec.items = w.take();
      g.push_back(std::move(rec));
    }
    groups.push_back(std::move(g));
  }
  DurableLog log;
  Span span("wal.append_group");
  const std::uint64_t t0 = nowNanos();
  for (std::size_t i = 0; i < groups.size(); ++i)
    log.appendGroup(/*shard=*/1 + i % in.shards, /*epoch=*/1,
                    std::move(groups[i]));
  report.layer("wal.append_group_ns_per_record",
               static_cast<double>(nowNanos() - t0) /
                   static_cast<double>(records),
               "ns");
}

void replayFabric(Report& report) {
  Fabric fabric;
  auto ping = fabric.bind("perfbench/ping");
  auto pong = fabric.bind("perfbench/pong");
  std::thread echo([&] {
    while (auto m = pong->recv()) {
      if (m->corr == 0) break;
      fabric.send("perfbench/ping", std::move(*m));
    }
  });
  constexpr int kRoundTrips = 20'000;
  const SharedBlob payload(Blob(64, 0x5a));
  std::uint64_t t0 = 0;
  {
    Span span("net.roundtrip");
    t0 = nowNanos();
    for (int i = 1; i <= kRoundTrips; ++i) {
      Message m;
      m.type = 1;
      m.corr = static_cast<std::uint64_t>(i);
      m.from = "perfbench/ping";
      m.payload = payload;
      fabric.send("perfbench/pong", std::move(m));
      ping->recv();
    }
  }
  const double us = static_cast<double>(nowNanos() - t0) / 1e3 / kRoundTrips;
  Message stop;
  stop.corr = 0;
  fabric.send("perfbench/pong", std::move(stop));
  echo.join();
  report.layer("net.roundtrip_us", us, "us");
}

}  // namespace

void replayKernels(const KernelInputs& in, Report& report) {
  replayHilbert(in, report);
  replayTree(in, report);
  replayWal(in, report);
  replayFabric(report);
}

}  // namespace perfbench
