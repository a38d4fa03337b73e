// Backend tradeoff sweep: cluster one pinned dataset with each Gram
// backend (dense, nystrom, rbf_binning) and report the three axes of the
// tradeoff — wall time, Eq. 12 gram bytes, and label agreement with the
// dense-exact path (ARI, exported in ppm). Also reports each backend's
// per-bucket footprint at the 4096-point reference bucket size as a
// bytes-vs-dense ppm gauge; CI's backend-tradeoff job gates the factored
// backends at <= 25% of dense (250000 ppm). Each factored embedder also
// fits the whole sweep as one 4096-point bucket, and the tracked bytes
// that fit allocates at its peak are reported against its admitted
// gram_bytes as backend.<name>.peak_vs_gram_ppm (CI gate: <= 1.5x). Emits
// BENCH_backend_tradeoff.json (validated by scripts/check_bench_json.py).
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "clustering/kernel.hpp"
#include "clustering/metrics.hpp"
#include "common/memory_tracker.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "core/bucket_embedder.hpp"
#include "core/dasc_clusterer.hpp"
#include "data/synthetic.hpp"

namespace {

struct BackendRun {
  const char* name;
  dasc::core::GramBackendPolicy policy;
  dasc::core::GramBackend backend;
};

}  // namespace

int main() {
  using namespace dasc;

  bench::banner("Gram backend tradeoff (time / bytes / ARI vs dense)");

  data::MixtureParams mix;
  mix.n = 4096;
  mix.dim = 16;
  mix.k = 8;
  mix.cluster_stddev = 0.03;
  Rng data_rng(311);
  const data::PointSet points = data::make_gaussian_mixture(mix, data_rng);

  const std::vector<BackendRun> runs = {
      {"dense", core::GramBackendPolicy::kDense, core::GramBackend::kDense},
      {"nystrom", core::GramBackendPolicy::kNystrom,
       core::GramBackend::kNystrom},
      {"rbf_binning", core::GramBackendPolicy::kRbfBinning,
       core::GramBackend::kRbfBinning},
  };

  MetricsRegistry registry;
  std::printf("%12s %12s %14s %12s\n", "backend", "fit time", "gram bytes",
              "ARI vs dense");
  std::vector<int> dense_labels;
  for (const BackendRun& run : runs) {
    core::DascParams params;
    params.k = 8;
    params.gram_backend = run.policy;
    params.metrics = &registry;  // accumulates backend.selected_* counters
    Rng rng(7);

    Stopwatch clock;
    const core::DascResult result = core::dasc_cluster(points, params, rng);
    const double seconds = clock.seconds();

    const std::string prefix = std::string("backend.") + run.name;
    registry.timer(prefix + ".fit").record_seconds(seconds);
    registry.gauge(prefix + ".gram_bytes")
        .set(static_cast<std::int64_t>(result.stats.gram_bytes));

    double ari = 1.0;
    if (dense_labels.empty()) {
      dense_labels = result.labels;  // the dense run comes first
    } else {
      ari = clustering::adjusted_rand_index(result.labels, dense_labels);
    }
    bench::set_ppm(registry, prefix + ".ari_vs_dense_ppm", ari);

    std::printf("%12s %12s %14s %11.4f\n", run.name,
                bench::format_seconds(seconds).c_str(),
                bench::format_bytes(
                    static_cast<double>(result.stats.gram_bytes))
                    .c_str(),
                ari);
  }

  // Per-bucket footprint at the reference 4096-point bucket: the Eq. 12
  // bytes each backend materializes for a single bucket of that size,
  // independent of how the LSH stage actually partitioned the sweep above.
  const std::size_t kReferenceBucket = 4096;
  core::EmbedderOptions embed_options;
  embed_options.sigma = 1.0;
  std::size_t dense_reference = 0;
  std::printf("per-bucket footprint at %zu points:\n", kReferenceBucket);
  for (const BackendRun& run : runs) {
    const auto embedder = core::make_bucket_embedder(run.backend,
                                                     embed_options);
    const std::size_t bytes = embedder->gram_bytes(kReferenceBucket, mix.dim);
    if (run.backend == core::GramBackend::kDense) dense_reference = bytes;
    const double ratio =
        static_cast<double>(bytes) / static_cast<double>(dense_reference);
    const std::string prefix = std::string("backend.") + run.name;
    registry.gauge(prefix + ".bucket4096_bytes")
        .set(static_cast<std::int64_t>(bytes));
    bench::set_ppm(registry, prefix + ".bytes_vs_dense_ppm", ratio);
    std::printf("%12s %14s  (%5.2f%% of dense)\n", run.name,
                bench::format_bytes(static_cast<double>(bytes)).c_str(),
                100.0 * ratio);
  }

  // Peak tracked bytes of one factored fit over the whole sweep as a
  // single bucket, against the gram_bytes the pipeline admits it under.
  std::vector<std::size_t> all(points.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  embed_options.sigma = clustering::suggest_bandwidth(points);
  std::printf("peak tracked bytes of one %zu-point fit:\n", points.size());
  for (const BackendRun& run : runs) {
    if (run.backend == core::GramBackend::kDense) continue;
    const auto embedder = core::make_bucket_embedder(run.backend,
                                                     embed_options);
    const std::size_t admitted = embedder->gram_bytes(points.size(), mix.dim);
    Rng rng(7);
    const std::size_t before = MemoryTracker::current();
    MemoryTracker::reset_peak();
    embedder->fit(points, all, mix.k, rng);
    const std::size_t grown = MemoryTracker::peak() - before;
    const double ratio =
        static_cast<double>(grown) / static_cast<double>(admitted);
    bench::set_ppm(registry,
                   std::string("backend.") + run.name + ".peak_vs_gram_ppm",
                   ratio);
    std::printf("%12s %14s  (%5.2fx admitted %s)\n", run.name,
                bench::format_bytes(static_cast<double>(grown)).c_str(),
                ratio,
                bench::format_bytes(static_cast<double>(admitted)).c_str());
  }

  bench::write_metrics_json(registry, "backend_tradeoff");
  return 0;
}
