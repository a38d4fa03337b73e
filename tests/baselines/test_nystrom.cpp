#include "baselines/nystrom.hpp"

#include <gtest/gtest.h>

#include "clustering/metrics.hpp"
#include "common/error.hpp"
#include "core/bucket_embedder.hpp"
#include "data/synthetic.hpp"
#include "linalg/dense_matrix.hpp"

namespace dasc::baselines {
namespace {

TEST(NystromAutoLandmarks, RuleAndClamping) {
  // NYST's auto landmark count is the Nystrom backend's shared rank rule.
  EXPECT_EQ(core::auto_backend_rank(10000), 400u);  // 4 * 100
  EXPECT_EQ(core::auto_backend_rank(4), 4u);        // capped at n
  EXPECT_EQ(core::auto_backend_rank(25), 20u);
}

TEST(Nystrom, RecoversSeparatedBlobs) {
  dasc::Rng data_rng(511);
  data::MixtureParams mix;
  mix.n = 300;
  mix.dim = 8;
  mix.k = 3;
  mix.cluster_stddev = 0.02;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);

  NystromParams params;
  params.k = 3;
  dasc::Rng rng(512);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_GT(clustering::clustering_accuracy(result.labels, points.labels()),
            0.9);
}

TEST(Nystrom, KernelBytesScaleWithLandmarks) {
  dasc::Rng data_rng(513);
  const data::PointSet points = data::make_uniform(200, 4, data_rng);
  NystromParams params;
  params.k = 2;
  params.landmarks = 20;
  dasc::Rng rng(514);
  const NystromResult small = nystrom_cluster(points, params, rng);
  params.landmarks = 80;
  dasc::Rng rng2(515);
  const NystromResult large = nystrom_cluster(points, params, rng2);
  EXPECT_LT(small.kernel_bytes, large.kernel_bytes);
  EXPECT_EQ(small.kernel_bytes, linalg::gram_entry_bytes(200u * 20u + 20u * 20u));
}

TEST(Nystrom, MemoryBelowFullGramForModestLandmarks) {
  dasc::Rng data_rng(516);
  const data::PointSet points = data::make_uniform(400, 4, data_rng);
  NystromParams params;
  params.k = 4;
  dasc::Rng rng(517);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_LT(result.kernel_bytes, linalg::gram_entry_bytes(400u * 400u));
}

TEST(Nystrom, LandmarksClampedToDatasetAndK) {
  dasc::Rng data_rng(518);
  const data::PointSet points = data::make_uniform(30, 3, data_rng);
  NystromParams params;
  params.k = 5;
  params.landmarks = 1000;
  dasc::Rng rng(519);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_EQ(result.landmarks, 30u);

  params.landmarks = 2;  // below k: must be raised to k
  dasc::Rng rng2(520);
  const NystromResult raised = nystrom_cluster(points, params, rng2);
  EXPECT_GE(raised.landmarks, 5u);
}

TEST(Nystrom, LabelsValid) {
  dasc::Rng data_rng(521);
  const data::PointSet points = data::make_uniform(100, 5, data_rng);
  NystromParams params;
  params.k = 4;
  dasc::Rng rng(522);
  const NystromResult result = nystrom_cluster(points, params, rng);
  ASSERT_EQ(result.labels.size(), 100u);
  for (int label : result.labels) {
    EXPECT_GE(label, 0);
    EXPECT_LT(label, 4);
  }
}

TEST(Nystrom, KOneAndBadInputs) {
  dasc::Rng data_rng(523);
  const data::PointSet points = data::make_uniform(40, 3, data_rng);
  NystromParams params;
  params.k = 1;
  dasc::Rng rng(524);
  const NystromResult result = nystrom_cluster(points, params, rng);
  for (int label : result.labels) EXPECT_EQ(label, 0);

  params.k = 0;
  EXPECT_THROW(nystrom_cluster(points, params, rng), dasc::InvalidArgument);
}

TEST(Nystrom, FullLandmarksApproachesExactSpectral) {
  // With m = n, Nystrom is (numerically) full spectral clustering; it must
  // nail well-separated blobs.
  dasc::Rng data_rng(525);
  data::MixtureParams mix;
  mix.n = 120;
  mix.dim = 6;
  mix.k = 2;
  mix.cluster_stddev = 0.02;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);
  NystromParams params;
  params.k = 2;
  params.landmarks = 120;
  dasc::Rng rng(526);
  const NystromResult result = nystrom_cluster(points, params, rng);
  EXPECT_GT(clustering::clustering_accuracy(result.labels, points.labels()),
            0.97);
}

}  // namespace
}  // namespace dasc::baselines
