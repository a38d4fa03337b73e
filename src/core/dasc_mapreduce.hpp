// DASC as MapReduce jobs (paper Section 3.3, Algorithms 1 and 2).
//
// Stage 1 ("dasc-lsh"): the mapper emits (signature, index|vector) pairs —
// Algorithm 1 — with the fitted hash parameters broadcast from the driver.
// Between the stages the driver merges buckets whose signatures share at
// least P bits, exactly where the paper performs the merge ("before
// applying the reducer").
// Stage 2 ("dasc-cluster"): the reducer receives one bucket per key, builds
// the bucket's Gram matrix (Algorithm 2, Eq. 1) and runs spectral
// clustering on it, emitting (index, clusterKey) pairs.
// The driver densifies cluster keys into global labels.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/dasc_params.hpp"
#include "core/kernel_approximator.hpp"
#include "data/point_set.hpp"
#include "mapreduce/job.hpp"

namespace dasc::core {

struct MapReduceDascParams {
  DascParams dasc;
  mapreduce::JobConf conf;  ///< virtual cluster for both stages
};

struct MapReduceDascResult {
  std::vector<int> labels;
  std::size_t num_clusters = 0;
  std::size_t requested_k = 0;

  /// Bucketing statistics (resolved M/P, bucket counts, Gram bytes).
  ApproximatorStats stats;

  mapreduce::JobResult lsh_job;      ///< stage 1 accounting
  mapreduce::JobResult cluster_job;  ///< stage 2 accounting
  double simulated_seconds = 0.0;    ///< both stages on the virtual cluster
  double real_seconds = 0.0;
};

/// Run the two-stage MapReduce DASC pipeline on a dataset. Only the
/// random-projection family is supported on this path (the hash parameters
/// must serialize into mapper configuration, as in the paper).
MapReduceDascResult dasc_cluster_mapreduce(const data::PointSet& points,
                                           const MapReduceDascParams& params,
                                           Rng& rng);

/// DFS-backed variant: the dataset lives in `dfs` at `input_path` (one
/// point record per line, as written by point_to_record), stage 1 reads
/// block-local splits directly from the DFS, and the final (index,
/// clusterId) assignment is persisted to `<output_path>/part-r-00000`.
MapReduceDascResult dasc_cluster_mapreduce_dfs(
    mapreduce::Dfs& dfs, const std::string& input_path,
    const std::string& output_path, const MapReduceDascParams& params,
    Rng& rng);

/// Serialization helpers shared with tests.
std::string encode_member(std::size_t index, std::span<const double> point);
std::pair<std::size_t, std::vector<double>> decode_member(
    std::string_view value);

}  // namespace dasc::core
