#include "core/dasc_mapreduce.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "clustering/metrics.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "core/dasc_clusterer.hpp"
#include "data/dataset_io.hpp"
#include "mapreduce/virtual_cluster.hpp"
#include "data/synthetic.hpp"

namespace dasc::core {
namespace {

data::PointSet blobs(std::size_t n, std::size_t k, std::uint64_t seed) {
  dasc::Rng rng(seed);
  data::MixtureParams params;
  params.n = n;
  params.dim = 12;
  params.k = k;
  params.cluster_stddev = 0.03;
  return data::make_gaussian_mixture(params, rng);
}

TEST(MemberCodec, RoundTrip) {
  const std::vector<double> point{0.25, -1.5, 3.14159};
  const std::string encoded = encode_member(42, point);
  const auto [index, decoded] = decode_member(encoded);
  EXPECT_EQ(index, 42u);
  ASSERT_EQ(decoded.size(), 3u);
  for (std::size_t d = 0; d < 3; ++d) {
    EXPECT_EQ(decoded[d], point[d]);
  }
}

TEST(MemberCodec, RejectsMalformedValue) {
  EXPECT_THROW(decode_member("no separator here"), dasc::InvalidArgument);
}

TEST(MemberCodec, RejectsMalformedIndex) {
  for (const char* bad : {"12x|1.0,2.0", "|1.0", "-1|1.0", "1.5|1.0",
                          "99999999999999999999999|1.0"}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(decode_member(bad), dasc::InvalidArgument);
  }
  EXPECT_THROW(decode_member("12|1.0,oops"), dasc::IoError);
}

TEST(MapReduceDasc, ProducesValidLabeling) {
  const data::PointSet points = blobs(200, 4, 311);
  MapReduceDascParams params;
  params.dasc.k = 4;
  dasc::Rng rng(1);
  const MapReduceDascResult result =
      dasc_cluster_mapreduce(points, params, rng);

  ASSERT_EQ(result.labels.size(), 200u);
  for (int label : result.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, static_cast<int>(result.num_clusters));
  }
  EXPECT_GT(result.num_clusters, 0u);
}

TEST(MapReduceDasc, AccuracyComparableToInProcessPipeline) {
  const data::PointSet points = blobs(300, 3, 312);

  MapReduceDascParams mr_params;
  mr_params.dasc.k = 3;
  dasc::Rng mr_rng(2);
  const auto mr = dasc_cluster_mapreduce(points, mr_params, mr_rng);
  const double mr_acc =
      clustering::clustering_accuracy(mr.labels, points.labels());

  DascParams local_params;
  local_params.k = 3;
  dasc::Rng local_rng(2);
  const auto local = dasc_cluster(points, local_params, local_rng);
  const double local_acc =
      clustering::clustering_accuracy(local.labels, points.labels());

  EXPECT_GT(mr_acc, 0.85);
  EXPECT_NEAR(mr_acc, local_acc, 0.1);
}

TEST(MapReduceDasc, JobAccountingIsPopulated) {
  const data::PointSet points = blobs(256, 4, 313);
  MapReduceDascParams params;
  params.dasc.k = 4;
  params.conf.split_records = 64;
  dasc::Rng rng(3);
  const auto result = dasc_cluster_mapreduce(points, params, rng);

  EXPECT_EQ(result.lsh_job.counters.map_input_records, 256u);
  EXPECT_EQ(result.lsh_job.counters.map_output_records, 256u);
  EXPECT_EQ(result.lsh_job.num_map_tasks, 4u);  // 256 / 64
  EXPECT_EQ(result.cluster_job.counters.reduce_input_groups,
            result.stats.merged_buckets);
  EXPECT_GT(result.simulated_seconds, 0.0);
  EXPECT_GE(result.real_seconds, 0.0);
  EXPECT_LT(result.stats.gram_bytes, result.stats.full_gram_bytes);
}

TEST(MapReduceDasc, StatsMatchInProcessBucketing) {
  const data::PointSet points = blobs(200, 4, 314);

  MapReduceDascParams mr_params;
  mr_params.dasc.k = 4;
  dasc::Rng mr_rng(4);
  const auto mr = dasc_cluster_mapreduce(points, mr_params, mr_rng);

  DascParams local_params = mr_params.dasc;
  dasc::Rng local_rng(4);
  ApproximatorStats local_stats;
  bucket_points(points, local_params, local_rng, &local_stats);

  // Same seed -> same fitted hasher -> identical bucketing statistics.
  EXPECT_EQ(mr.stats.signature_bits, local_stats.signature_bits);
  EXPECT_EQ(mr.stats.raw_buckets, local_stats.raw_buckets);
  EXPECT_EQ(mr.stats.merged_buckets, local_stats.merged_buckets);
  EXPECT_EQ(mr.stats.largest_bucket, local_stats.largest_bucket);
}

TEST(MapReduceDasc, MoreNodesReduceSimulatedTime) {
  // Run once, then reschedule the SAME measured task durations onto wider
  // clusters (re-running would compare two noisy measurements and flake).
  const data::PointSet points = blobs(512, 8, 315);
  MapReduceDascParams params;
  params.dasc.k = 8;
  params.conf.split_records = 32;
  dasc::Rng rng(5);
  const auto result = dasc_cluster_mapreduce(points, params, rng);

  auto simulated = [&](std::size_t nodes) {
    return mapreduce::makespan_lpt(result.lsh_job.map_task_seconds, nodes,
                                   4) +
           mapreduce::makespan_lpt(result.lsh_job.reduce_task_seconds,
                                   nodes, 2) +
           mapreduce::makespan_lpt(result.cluster_job.map_task_seconds,
                                   nodes, 4) +
           mapreduce::makespan_lpt(result.cluster_job.reduce_task_seconds,
                                   nodes, 2);
  };
  EXPECT_LE(simulated(16), simulated(1));
  EXPECT_GT(simulated(1), 0.0);
}

TEST(MapReduceDasc, DfsVariantMatchesInMemoryPipeline) {
  const data::PointSet points = blobs(150, 3, 317);

  // Stage the dataset in the DFS, one record per line.
  mapreduce::DfsConfig dfs_config;
  dfs_config.block_size_bytes = 2048;
  mapreduce::Dfs dfs(dfs_config);
  std::vector<std::string> lines;
  lines.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    lines.push_back(data::point_to_record(points.point(i)));
  }
  dfs.write_file("/data/points", lines);

  MapReduceDascParams params;
  params.dasc.k = 3;
  dasc::Rng r1(7);
  const auto from_dfs = dasc_cluster_mapreduce_dfs(dfs, "/data/points",
                                                   "/out/dasc", params, r1);
  dasc::Rng r2(7);
  const auto in_memory = dasc_cluster_mapreduce(points, params, r2);

  EXPECT_EQ(from_dfs.labels, in_memory.labels);
  EXPECT_EQ(from_dfs.num_clusters, in_memory.num_clusters);
  EXPECT_GT(from_dfs.lsh_job.num_map_tasks, 1u);  // block-local splits

  // The assignment landed in the DFS.
  const auto out = dfs.read_file("/out/dasc/part-r-00000");
  ASSERT_EQ(out.size(), points.size());
  EXPECT_NE(out[0].find('\t'), std::string::npos);
}

TEST(MapReduceDasc, DfsVariantRejectsBadInput) {
  mapreduce::Dfs dfs({});
  MapReduceDascParams params;
  dasc::Rng rng(8);
  EXPECT_THROW(
      dasc_cluster_mapreduce_dfs(dfs, "/missing", "/out", params, rng),
      dasc::IoError);
  dfs.write_file("/ragged", {"1.0,2.0", "3.0"});
  EXPECT_THROW(
      dasc_cluster_mapreduce_dfs(dfs, "/ragged", "/out", params, rng),
      dasc::InvalidArgument);
}

TEST(MapReduceDasc, MultiProcessLabelsMatchInProcessOnWideInput) {
  // 64-d points as shortest round-trip text make the single 1000-record
  // map split larger than 1 MiB, so map inputs and pulled slices stream as
  // several chunks on both the control and the data plane — the payload
  // sizes real inputs reach and small-dimension tests never do.
  dasc::Rng data_rng(5);
  data::MixtureParams mix;
  mix.n = 1000;
  mix.dim = 64;
  mix.k = 4;
  mix.cluster_stddev = 0.03;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);
  std::size_t split_bytes = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    split_bytes += data::point_to_record(points.point(i)).size();
  }
  ASSERT_GT(split_bytes, std::size_t{1} << 20);

  MapReduceDascParams params;
  params.dasc.k = 4;
  ASSERT_GE(params.conf.split_records, points.size());  // one split
  dasc::Rng baseline_rng(9);
  const auto baseline = dasc_cluster_mapreduce(points, params, baseline_rng);
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    params.conf.execution_mode = mapreduce::ExecutionMode::kMultiProcess;
    params.conf.num_workers = workers;
    dasc::Rng rng(9);
    const auto result = dasc_cluster_mapreduce(points, params, rng);
    EXPECT_EQ(result.labels, baseline.labels);
    EXPECT_EQ(result.num_clusters, baseline.num_clusters);
  }
}

/// Every metric name a registry holds, tagged by kind, minus the names
/// only a multi-process run can have: its transport (`ipc.*`), its worker
/// processes (`worker.*`) and its pull connections.
std::set<std::string> engine_metric_keys(const MetricsRegistry& registry) {
  const auto engine_only = [](const std::string& name) {
    return name.starts_with("ipc.") || name.starts_with("worker.") ||
           name == "shuffle.conns_opened" || name == "shuffle.pulls";
  };
  const MetricsSnapshot snapshot = registry.snapshot();
  std::set<std::string> keys;
  for (const auto& [name, value] : snapshot.counters) {
    if (!engine_only(name)) keys.insert("counter " + name);
  }
  for (const auto& [name, timer] : snapshot.timers) {
    if (!engine_only(name)) keys.insert("timer " + name);
  }
  for (const auto& [name, gauge] : snapshot.gauges) {
    if (!engine_only(name)) keys.insert("gauge " + name);
  }
  return keys;
}

TEST(MapReduceDasc, MultiProcessReportsTheInProcessMetrics) {
  // Worker tasks ship their whole registry home, so a multi-process run
  // reports every metric the in-process engine does — the reducers'
  // bucket pipeline, K-means and eigensolver work, the mappers' LSH work,
  // the pulled spools — and every counter agrees exactly.
  const data::PointSet points = blobs(400, 4, 41);
  for (const std::size_t budget : {0u, 65536u}) {
    SCOPED_TRACE("spill budget " + std::to_string(budget));
    MapReduceDascParams params;
    params.dasc.k = 4;
    params.dasc.spill_budget_bytes = budget;
    params.conf.split_records = 100;  // several map tasks

    MetricsRegistry in_process;
    params.dasc.metrics = &in_process;
    dasc::Rng in_process_rng(9);
    const auto baseline = dasc_cluster_mapreduce(points, params,
                                                 in_process_rng);

    MetricsRegistry multi_process;
    params.dasc.metrics = &multi_process;
    params.conf.execution_mode = mapreduce::ExecutionMode::kMultiProcess;
    params.conf.num_workers = 2;
    dasc::Rng multi_process_rng(9);
    const auto result = dasc_cluster_mapreduce(points, params,
                                               multi_process_rng);
    ASSERT_EQ(result.labels, baseline.labels);

    EXPECT_EQ(engine_metric_keys(multi_process),
              engine_metric_keys(in_process));
    for (const auto& [name, value] : in_process.counters_snapshot()) {
      EXPECT_EQ(multi_process.counter_value(name), value) << name;
    }
    EXPECT_EQ(multi_process.counter_value("lsh.points_hashed"),
              static_cast<std::int64_t>(points.size()));
    EXPECT_GT(multi_process.counter_value("pipeline.buckets"), 0);
    if (budget > 0) {
      EXPECT_GT(multi_process.gauge_value("spill.bytes_written"), 0);
    }
  }
}

TEST(MapReduceDasc, RejectsUnsupportedHashFamily) {
  const data::PointSet points = blobs(50, 2, 316);
  MapReduceDascParams params;
  params.dasc.family = HashFamily::kMinHash;
  dasc::Rng rng(6);
  EXPECT_THROW(dasc_cluster_mapreduce(points, params, rng),
               dasc::InvalidArgument);
}

}  // namespace
}  // namespace dasc::core
