// Closed-loop serving benchmark: fit a model once, then drive the
// micro-batching server over a sweep of worker/batch configurations,
// reporting throughput and per-request latency. Emits BENCH_serving.json
// (validated in CI by scripts/check_bench_json.py, which requires the
// serving.assign_batch timer and the serving.requests counter).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/stopwatch.hpp"
#include "data/synthetic.hpp"
#include "serving/assigner.hpp"
#include "serving/model_artifact.hpp"
#include "serving/server.hpp"

namespace {

struct Config {
  std::size_t threads;
  std::size_t batch;
  std::size_t linger_us;
};

}  // namespace

int main() {
  using namespace dasc;

  bench::banner("Serving throughput (closed loop)");

  data::MixtureParams mix;
  mix.n = 4000;
  mix.dim = 16;
  mix.k = 8;
  mix.cluster_stddev = 0.04;
  Rng data_rng(11);
  const data::PointSet train = data::make_gaussian_mixture(mix, data_rng);

  core::DascParams params;
  params.k = 8;
  Rng rng(42);
  Stopwatch fit_clock;
  const serving::FitResult fit = serving::fit_model(train, params, rng);
  std::printf("fit: %zu points -> %zu buckets, %zu clusters in %s\n",
              train.size(), fit.model.buckets.size(),
              fit.offline.num_clusters,
              bench::format_seconds(fit_clock.seconds()).c_str());

  const serving::Assigner assigner(fit.model);

  // Query workload: the training points plus jittered out-of-sample copies.
  Rng query_rng(7);
  data::PointSet queries(2 * train.size(), train.dim());
  for (std::size_t i = 0; i < train.size(); ++i) {
    const auto src = train.point(i);
    for (std::size_t d = 0; d < train.dim(); ++d) {
      queries.at(i, d) = src[d];
      queries.at(train.size() + i, d) =
          src[d] + 0.01 * (query_rng.uniform() - 0.5);
    }
  }

  MetricsRegistry registry;
  const std::vector<Config> configs = {
      {1, 1, 0}, {1, 64, 0}, {4, 64, 0}, {0, 64, 200}};
  std::printf("%8s %8s %10s %12s %14s\n", "threads", "batch", "linger_us",
              "throughput", "mean latency");
  std::vector<int> reference;
  for (const Config& config : configs) {
    MetricsRegistry run_registry;
    serving::ServerOptions options;
    options.threads = config.threads;
    options.max_batch_size = config.batch;
    options.max_linger = std::chrono::microseconds(config.linger_us);
    options.metrics = &run_registry;

    Stopwatch clock;
    std::vector<int> served;
    {
      serving::Server server(assigner, options);
      served = server.assign_all(queries);
      server.shutdown();
    }
    const double seconds = clock.seconds();

    if (reference.empty()) {
      reference = served;
    } else if (served != reference) {
      std::fprintf(stderr, "FAILURE: served labels changed with the server "
                           "configuration\n");
      return 1;
    }

    const double throughput = static_cast<double>(queries.size()) / seconds;
    const double mean_latency_ms =
        run_registry.timer_total_ms("serving.request_latency") /
        static_cast<double>(queries.size());
    std::printf("%8zu %8zu %10zu %9.0f/s %11.3f ms\n", config.threads,
                config.batch, config.linger_us, throughput, mean_latency_ms);

    // Fold the run into the exported registry: counters accumulate across
    // the sweep; the final run's timers stand for the tuned configuration.
    registry.counter("serving.requests")
        .add(run_registry.counter_value("serving.requests"));
    registry.counter("serving.exact_hits")
        .add(run_registry.counter_value("serving.exact_hits"));
    registry.counter("serving.nystrom_assigns")
        .add(run_registry.counter_value("serving.nystrom_assigns"));
    registry.counter("serving.factor_assigns")
        .add(run_registry.counter_value("serving.factor_assigns"));
    registry.timer("serving.assign_batch")
        .record_seconds(
            run_registry.timer_total_ms("serving.assign_batch") / 1e3);
    registry.timer("serving.request_latency")
        .record_seconds(
            run_registry.timer_total_ms("serving.request_latency") / 1e3);
    registry.gauge("serving.peak_batch_size")
        .set_max(run_registry.gauge_value("serving.peak_batch_size"));
    registry.gauge("serving.peak_queue_depth")
        .set_max(run_registry.gauge_value("serving.peak_queue_depth"));
    registry.gauge("serving.batches")
        .set_max(run_registry.gauge_value("serving.batches"));
  }

  std::printf("labels identical across all %zu configurations\n",
              configs.size());
  bench::write_metrics_json(registry, "serving");
  return 0;
}
