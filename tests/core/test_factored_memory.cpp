// Memory bound of the factored (Nystrom / random-binning) bucket fits: the
// bucket pipeline admits a bucket under its embedder's gram_bytes, so the
// tracked bytes a fit allocates on top of what was live before it must
// stay within a small factor of that charge. A fit that materializes
// F = C P (or a copy of it) next to C would run at about 3x.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <vector>

#include "clustering/kernel.hpp"
#include "common/memory_tracker.hpp"
#include "common/rng.hpp"
#include "core/bucket_embedder.hpp"
#include "data/synthetic.hpp"

namespace dasc::core {
namespace {

constexpr std::size_t kBucketPoints = 4096;
constexpr double kPeakOverAdmitted = 1.5;

void expect_fit_within_admitted_bytes(GramBackend backend) {
  dasc::Rng data_rng(41);
  data::MixtureParams mix;
  mix.n = kBucketPoints;
  mix.dim = 16;
  mix.k = 8;
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);
  std::vector<std::size_t> indices(points.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});

  EmbedderOptions options;
  options.sigma = clustering::suggest_bandwidth(points);
  const auto embedder = make_bucket_embedder(backend, options);
  const double admitted =
      static_cast<double>(embedder->gram_bytes(points.size(), points.dim()));

  for (const bool want_factor : {false, true}) {
    dasc::Rng rng(7);
    const std::size_t before = MemoryTracker::current();
    MemoryTracker::reset_peak();
    const BucketEmbedding fit =
        embedder->fit(points, indices, 8, rng, want_factor);
    const double grown =
        static_cast<double>(MemoryTracker::peak() - before);
    ASSERT_GT(fit.fit.k, 1u) << "the bucket must take the spectral path";
    EXPECT_LE(grown, kPeakOverAdmitted * admitted)
        << gram_backend_name(backend) << " want_factor=" << want_factor
        << ": peak " << grown << " bytes over " << admitted << " admitted";
  }
}

TEST(FactoredFitMemory, NystromPeakStaysWithinAdmittedBytes) {
  expect_fit_within_admitted_bytes(GramBackend::kNystrom);
}

TEST(FactoredFitMemory, RbfBinningPeakStaysWithinAdmittedBytes) {
  expect_fit_within_admitted_bytes(GramBackend::kRbfBinning);
}

}  // namespace
}  // namespace dasc::core
