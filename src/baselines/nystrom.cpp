#include "baselines/nystrom.hpp"

#include <algorithm>
#include <memory>
#include <numeric>

#include "clustering/kernel.hpp"
#include "common/error.hpp"
#include "core/bucket_embedder.hpp"

namespace dasc::baselines {

NystromResult nystrom_cluster(const data::PointSet& points,
                              const NystromParams& params, Rng& rng) {
  const std::size_t n = points.size();
  DASC_EXPECT(n >= 2, "nystrom_cluster: need >= 2 points");
  DASC_EXPECT(params.k >= 1, "nystrom_cluster: k must be >= 1");

  NystromResult result;
  result.k = std::min(params.k, n);
  const std::size_t m = params.landmarks > 0 ? std::min(params.landmarks, n)
                                             : core::auto_backend_rank(n);
  result.landmarks = std::max(m, result.k);

  core::EmbedderOptions options;
  options.sigma = params.sigma > 0.0 ? params.sigma
                                     : clustering::suggest_bandwidth(points);
  options.nystrom_landmarks = result.landmarks;
  const std::unique_ptr<core::BucketEmbedder> embedder =
      core::make_bucket_embedder(core::GramBackend::kNystrom, options);
  result.kernel_bytes = embedder->gram_bytes(n, points.dim());

  std::vector<std::size_t> all(n);
  std::iota(all.begin(), all.end(), std::size_t{0});
  result.labels = embedder->fit(points, all, result.k, rng).fit.labels;
  return result;
}

}  // namespace dasc::baselines
