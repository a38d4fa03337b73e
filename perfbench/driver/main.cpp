// dasc_perfbench: end-to-end benchmark of DASC, CSV in -> labels CSV out.
//
//   dasc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --workdir <dir> [--trace-out <file>] [--scale full|tiny]
//
// Set-up generates the workload's corpora from --seed, writes each as an
// unlabelled CSV (the program under test never sees the generator's
// labels), and warms up on a corpus an eighth of the size; untraced runs
// time it again between measured operations. The measured operations
// cycle over the corpora, every corpus at least once; each makes the calls
// dasc_tool makes: data::load_csv, then core::dasc_cluster or
// core::dasc_cluster_mapreduce, then data::save_csv. Every operation's
// output is checked: labels and output bytes identical across operations
// on a corpus, equal to the in-process reference on multi-process
// workloads, and scored by ARI against the generator's labels.
//
// With --trace 1 operations alternate untraced and traced. A traced
// operation wraps each call into a layer's public function in a span (see
// trace.hpp) and reads the stage timers the program exports through
// params.metrics for stages reached only from inside another call.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "clustering/kernel.hpp"
#include "clustering/metrics.hpp"
#include "common/memory_tracker.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/bucket_embedder.hpp"
#include "core/bucket_pipeline.hpp"
#include "core/dasc_clusterer.hpp"
#include "core/dasc_mapreduce.hpp"
#include "data/dataset_io.hpp"
#include "data/synthetic.hpp"
#include "data/wiki_corpus.hpp"
#include "trace.hpp"

namespace {

using namespace dasc;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::Tracer;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kSetupPasses = 5;
constexpr int kWarmUps = 5;
constexpr std::uint64_t kWarmUpSeed = 0x5eed;

struct Workload {
  const char* name;
  bool wiki;       ///< corpus: 11-d wiki vectors, else 64-d Gaussian mixture
  bool multiproc;  ///< engine: multi-process w2w MapReduce, else fused
  std::size_t n;
  std::size_t tiny_n;  ///< --scale tiny (the benchmark's smoke test)
  std::size_t k;       ///< DASC global K (0 = auto, Eq. 15)
  std::size_t cap;     ///< max bucket points (0 = off)
  /// Corpora per run, each clustered at least once and then cycled until
  /// --seconds is up. The bucket structure, and with it the work, the Gram
  /// storage and the accuracy, varies from corpus to corpus (on the wiki
  /// corpus by about a sixth; about one mixture in nine splits into several
  /// buckets, which cluster in a fraction of the time), so every metric is
  /// a median over this fixed set, which an odd count keeps on one corpus.
  std::size_t corpora;
};

constexpr Workload kWorkloads[] = {
    {"giant-bucket", false, false, 10000, 600, 8, 0, 3},
    {"capped-wiki", true, false, 65536, 4096, 0, 1024, 8},
    {"capped-wiki-multiproc", true, true, 65536, 4096, 0, 1024, 5},
    {"mixture-multiproc", false, true, 10000, 600, 8, 0, 1},
};

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},          {"cpu_s", "s"},   {"ari", "index"},
    {"gram_bytes", "bytes"}, {"setup_s", "s"},
};

constexpr const char* kLayers[] = {"data",     "lsh",      "clustering",
                                   "core",     "pipeline", "embedder",
                                   "mapreduce"};

constexpr Metric kPerLayer[] = {
    {"peak_tracked_bytes", "bytes"},
    {"data.load_csv_s", "s"},
    {"data.save_csv_s", "s"},
    {"data.csv_bytes", "bytes"},
    {"lsh.bucket_points_s", "s"},
    {"lsh.raw_buckets", "count"},
    {"lsh.merged_buckets", "count"},
    {"lsh.largest_bucket_points", "count"},
    {"lsh.largest_bucket_share_ppm", "ppm"},
    {"pipeline.wall_s", "s"},
    {"pipeline.gram_build_s", "s"},
    {"pipeline.consume_s", "s"},
    {"pipeline.buckets", "count"},
    {"pipeline.thread_busy_ppm", "ppm"},
    {"pipeline.peak_inflight_bytes", "bytes"},
    {"embedder.dense_buckets", "count"},
    {"embedder.nystrom_buckets", "count"},
    {"embedder.fit_s_p50", "s"},
    {"embedder.fit_s_max", "s"},
    {"embedder.fit_max_n", "count"},
    {"embedder.unattributed_s", "s"},
    {"spectral.eigensolve_s", "s"},
    {"eigensolve.factored", "count"},
    {"kmeans.lloyd_s", "s"},
    {"kmeans.iterations", "count"},
    {"mr.lsh_job_s", "s"},
    {"mr.cluster_job_s", "s"},
    {"mr.driver_s", "s"},
    {"mapreduce.map_s", "s"},
    {"mapreduce.shuffle_s", "s"},
    {"mapreduce.reduce_s", "s"},
    {"mapreduce.shuffle_bytes", "bytes"},
    {"mapreduce.failed_task_attempts", "count"},
    {"ipc.recv_wait_s", "s"},
    {"ipc.messages_sent", "count"},
    {"ipc.messages_received", "count"},
    {"ipc.bytes_sent", "bytes"},
    {"ipc.bytes_received", "bytes"},
    {"shuffle.pulls", "count"},
    {"shuffle.conns_opened", "count"},
    {"shuffle.conns_per_pull_ppm", "ppm"},
    {"worker.forked", "count"},
    {"data.self_s", "s"},
    {"lsh.self_s", "s"},
    {"clustering.self_s", "s"},
    {"core.self_s", "s"},
    {"pipeline.self_s", "s"},
    {"embedder.self_s", "s"},
    {"mapreduce.self_s", "s"},
    {"trace.coverage_ppm", "ppm"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_ppm", "ppm"},
};

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dasc_perfbench: %s\nusage: dasc_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> --workdir <dir> "
               "[--trace-out <file>] [--scale full|tiny]\n",
               why.c_str());
  std::exit(2);
}

Config parse_args(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      cfg.workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::stoull(value);
    } else if (key == "--seconds") {
      cfg.seconds = std::stod(value);
    } else if (key == "--trace") {
      cfg.trace = value == "1";
    } else if (key == "--workdir") {
      cfg.workdir = value;
    } else if (key == "--trace-out") {
      cfg.trace_out = value;
    } else if (key == "--scale") {
      if (value != "full" && value != "tiny") usage("bad --scale " + value);
      cfg.tiny = value == "tiny";
    } else {
      usage("unknown option " + key);
    }
  }
  if (cfg.workdir.empty()) usage("--workdir is required");
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// User + system CPU seconds of this process and every reaped child (the
/// forked MapReduce workers are reaped when each job ends).
double cpu_seconds() {
  rusage self{};
  rusage kids{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(self.ru_utime) + sec(self.ru_stime) + sec(kids.ru_utime) +
         sec(kids.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The highest sample with at least ten samples beyond it. Below 21
/// samples that sample would sit under the median, so the maximum is
/// reported instead; `label` says which was taken.
double tail(std::vector<double> v, std::string& label) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 21) {
    label = "max of " + std::to_string(n);
    return n == 0 ? 0.0 : v.back();
  }
  const std::size_t idx = n - 11;
  label = "p" + std::to_string(100 * (idx + 1) / n) + " of " +
          std::to_string(n);
  return v[idx];
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Seed of a run's j-th corpus; corpus 0 uses the run's seed itself.
std::uint64_t corpus_seed(std::uint64_t seed, std::size_t j) {
  return seed ^ (0x9e3779b97f4a7c15ULL * j);
}

data::PointSet make_corpus(const Workload& w, std::size_t n,
                           std::uint64_t seed) {
  Rng rng(seed);
  if (w.wiki) {
    data::WikiCorpusParams wiki;  // F = 11, K = Eq. 15 category count
    wiki.n = n;
    wiki.seed = seed;
    return data::make_wiki_vectors(wiki, rng);
  }
  data::MixtureParams mix;
  mix.n = n;
  mix.dim = 64;
  mix.k = 8;
  mix.seed = seed;
  return data::make_gaussian_mixture(mix, rng);
}

core::DascParams dasc_params(const Workload& w) {
  core::DascParams params;
  params.k = w.k;
  params.max_bucket_points = w.cap;
  params.threads = kThreads;
  return params;
}

/// Instrumentation of one traced operation.
struct Probe {
  Tracer* tracer = nullptr;
  int op = 0;
  int parent = -1;
  bool decomposed = true;  ///< drive the fused pipeline call by call
  MetricsRegistry registry;
  core::ApproximatorStats stats;
  double mr_call_s = 0.0;
  double lsh_job_s = 0.0;
  double cluster_job_s = 0.0;
};

/// Labels plus the Eq. 12 Gram storage the chosen backends materialize
/// (ApproximatorStats::gram_bytes, as dasc_tool reports it).
struct Clustered {
  std::vector<int> labels;
  std::size_t gram_bytes = 0;
};

/// dasc_cluster's body, one public call at a time, with a span around each
/// call and one span per bucket carrying {n, backend}. Labels must equal
/// dasc_cluster's; the caller checks.
Clustered fused_decomposed(const data::PointSet& points,
                           core::DascParams params, Probe& probe) {
  params.metrics = &probe.registry;
  Tracer* tr = probe.tracer;
  Rng rng(params.seed);
  const std::size_t requested_k =
      core::resolve_cluster_count(params, points.size());

  std::vector<lsh::Bucket> buckets;
  {
    ScopedSpan span(tr, "lsh.bucket_points", probe.parent, probe.op);
    buckets = core::bucket_points(points, params, rng, &probe.stats);
  }
  double sigma = params.sigma;
  if (sigma <= 0.0) {
    ScopedSpan span(tr, "clustering.suggest_bandwidth", probe.parent,
                    probe.op);
    sigma = clustering::suggest_bandwidth(points);
  }
  std::vector<core::BucketJob> jobs;
  {
    ScopedSpan span(tr, "core.plan_bucket_jobs", probe.parent, probe.op);
    jobs = core::plan_bucket_jobs(buckets, requested_k, points.size(), rng);
  }
  std::optional<core::EmbedderSet> embedder_set;
  core::BucketPipelineOptions options;
  {
    ScopedSpan span(tr, "core.embedder_plan", probe.parent, probe.op);
    embedder_set.emplace(params, sigma);
    options.embedders = embedder_set->plan(buckets);
  }
  options.sigma = sigma;
  options.threads = params.threads;
  options.max_inflight_blocks = params.max_inflight_blocks;
  options.max_inflight_bytes = params.max_inflight_bytes;
  options.spill_budget_bytes = params.spill_budget_bytes;
  options.spill_dir = params.spill_dir;
  options.metrics = params.metrics;
  options.faults = params.faults;
  options.max_bucket_attempts = params.max_bucket_attempts;

  Clustered out;
  out.gram_bytes = embedder_set->total_gram_bytes(buckets, points.dim());
  std::vector<int>& labels = out.labels;
  labels.assign(points.size(), 0);
  ScopedSpan pipeline_span(tr, "pipeline.run_bucket_pipeline", probe.parent,
                           probe.op);
  const int pipeline_id = pipeline_span.id();
  core::run_bucket_pipeline(
      points, buckets, jobs, options,
      [&](linalg::DenseMatrix&& block, const lsh::Bucket& bucket,
          const core::BucketJob& job) {
        const core::BucketEmbedder& embedder = *options.embedders[job.index];
        ScopedSpan span(tr, "embedder.fit_with_block", pipeline_id, probe.op);
        span.annotate(bucket.indices.size(),
                      core::gram_backend_name(embedder.backend()));
        Rng bucket_rng(job.seed);
        const core::BucketEmbedding embedding = embedder.fit_with_block(
            points, bucket.indices, job.k_bucket, bucket_rng,
            /*want_factor=*/false, std::move(block));
        for (std::size_t i = 0; i < bucket.indices.size(); ++i) {
          labels[bucket.indices[i]] =
              static_cast<int>(job.label_offset) + embedding.fit.labels[i];
        }
      });
  return out;
}

/// Clusters `points` with the workload's engine; `probe` is null for an
/// untraced operation.
Clustered cluster(const Workload& w, const data::PointSet& points,
                  mapreduce::ExecutionMode mode, const std::string& tmp_dir,
                  Probe* probe) {
  core::DascParams params = dasc_params(w);
  if (!w.multiproc) {
    if (probe == nullptr) {
      Rng rng(params.seed);
      core::DascResult result = core::dasc_cluster(points, params, rng);
      return {std::move(result.labels), result.stats.gram_bytes};
    }
    if (probe->decomposed) return fused_decomposed(points, params, *probe);
    params.metrics = &probe->registry;
    ScopedSpan span(probe->tracer, "core.dasc_cluster", probe->parent,
                    probe->op);
    Rng rng(params.seed);
    core::DascResult result = core::dasc_cluster(points, params, rng);
    probe->stats = result.stats;
    return {std::move(result.labels), result.stats.gram_bytes};
  }

  core::MapReduceDascParams mr;
  mr.dasc = params;
  mr.dasc.spill_dir = tmp_dir;  // data-plane sockets and spools
  mr.conf.execution_mode = mode;
  mr.conf.shuffle_mode = mapreduce::ShuffleMode::kWorkerToWorker;
  mr.conf.num_workers = kWorkers;
  mr.conf.physical_threads = kThreads;
  if (probe != nullptr) mr.dasc.metrics = &probe->registry;
  std::optional<ScopedSpan> span;
  if (probe != nullptr) {
    span.emplace(probe->tracer, "mapreduce.dasc_cluster_mapreduce",
                 probe->parent, probe->op);
  }
  const auto start = std::chrono::steady_clock::now();
  Rng rng(params.seed);
  core::MapReduceDascResult result =
      core::dasc_cluster_mapreduce(points, mr, rng);
  if (probe != nullptr) {
    probe->mr_call_s = seconds_since(start);
    probe->lsh_job_s = result.lsh_job.real_seconds;
    probe->cluster_job_s = result.cluster_job.real_seconds;
    probe->stats = result.stats;
  }
  return {std::move(result.labels), result.stats.gram_bytes};
}

struct Sample {
  int op = 0;
  std::size_t corpus = 0;
  bool ok = false;
  bool traced = false;
  std::string error;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double gram_bytes = 0.0;
  double peak_tracked = 0.0;
  std::vector<int> labels;
  std::map<std::string, double> layers;  ///< traced operations only
};

struct Paths {
  std::string input;
  std::string output;
  std::string tmp;
};

/// One generated corpus of a run and what its operations are checked
/// against.
struct Corpus {
  Paths paths;
  std::vector<int> truth;          ///< the generator's labels
  std::vector<int> reference;      ///< labels every operation must match
  std::string reference_bytes;     ///< output CSV every operation must match
  std::optional<double> ari;       ///< of the reference against truth
  double gram_bytes = 0.0;         ///< Eq. 12 storage of the reference
};

/// One operation: load the CSV, cluster, write labels. Exceptions are
/// caught and reported in the sample, never retried.
Sample run_operation(const Workload& w, const Paths& paths, Probe* probe) {
  Sample s;
  s.traced = probe != nullptr;
  Tracer* tr = probe == nullptr ? nullptr : probe->tracer;
  const int op = probe == nullptr ? 0 : probe->op;
  MemoryTracker::reset_peak();
  // Hand freed heap back to the kernel, so every operation starts as a
  // fresh dasc_tool process would.
  malloc_trim(0);
  const double cpu0 = cpu_seconds();
  const auto start = std::chrono::steady_clock::now();
  try {
    ScopedSpan root(tr, "op", -1, op);
    if (probe != nullptr) probe->parent = root.id();
    data::PointSet points;
    {
      ScopedSpan span(tr, "data.load_csv", root.id(), op);
      points = data::load_csv(paths.input, /*labelled=*/false);
    }
    Clustered clustered = cluster(
        w, points, mapreduce::ExecutionMode::kMultiProcess, paths.tmp, probe);
    s.labels = std::move(clustered.labels);
    s.gram_bytes = static_cast<double>(clustered.gram_bytes);
    points.set_labels(s.labels);
    {
      ScopedSpan span(tr, "data.save_csv", root.id(), op);
      data::save_csv(points, paths.output);
    }
    s.ok = true;
  } catch (const std::exception& e) {
    s.error = e.what();
  }
  s.wall_s = seconds_since(start);
  s.cpu_s = cpu_seconds() - cpu0;
  s.peak_tracked = static_cast<double>(MemoryTracker::peak());
  return s;
}

/// Per-layer figures of one traced operation.
std::map<std::string, double> layer_metrics(const Probe& probe,
                                            const std::vector<Span>& spans,
                                            std::size_t n,
                                            double csv_bytes) {
  const MetricsRegistry& reg = probe.registry;
  const auto timer_s = [&](const char* name) {
    return reg.timer_total_ms(name) / 1e3;
  };
  // Some instruments are counters in one process and gauges where a
  // worker's figure is folded into the supervisor; read whichever is set.
  const auto value = [&](const char* name) {
    return static_cast<double>(reg.counter_value(name) +
                               reg.gauge_value(name));
  };
  std::map<std::string, double> m;
  for (const Metric& metric : kPerLayer) m[metric.name] = 0.0;

  std::vector<double> fits;
  double fit_max = -1.0;
  for (const Span& s : spans) {
    if (s.name == "data.load_csv") m["data.load_csv_s"] = s.seconds();
    if (s.name == "data.save_csv") m["data.save_csv_s"] = s.seconds();
    if (s.name == "lsh.bucket_points") m["lsh.bucket_points_s"] = s.seconds();
    if (s.name == "embedder.fit_with_block") {
      fits.push_back(s.seconds());
      if (s.seconds() > fit_max) {
        fit_max = s.seconds();
        m["embedder.fit_max_n"] = static_cast<double>(s.n);
      }
    }
  }
  if (!fits.empty()) {
    m["embedder.fit_s_p50"] = median(fits);
    m["embedder.fit_s_max"] = fit_max;
  }
  if (m["lsh.bucket_points_s"] == 0.0) {
    m["lsh.bucket_points_s"] =
        timer_s("lsh.signatures") + timer_s("lsh.bucketing");
  }
  m["data.csv_bytes"] = csv_bytes;
  m["lsh.raw_buckets"] = static_cast<double>(probe.stats.raw_buckets);
  m["lsh.merged_buckets"] = static_cast<double>(probe.stats.merged_buckets);
  m["lsh.largest_bucket_points"] =
      static_cast<double>(probe.stats.largest_bucket);
  m["lsh.largest_bucket_share_ppm"] =
      1e6 * static_cast<double>(probe.stats.largest_bucket) /
      static_cast<double>(n);

  m["pipeline.wall_s"] = timer_s("pipeline.wall");
  m["pipeline.gram_build_s"] = timer_s("pipeline.gram_build");
  m["pipeline.consume_s"] = timer_s("pipeline.consume");
  m["pipeline.buckets"] = value("pipeline.buckets");
  if (m["pipeline.wall_s"] > 0.0) {
    m["pipeline.thread_busy_ppm"] =
        1e6 * (m["pipeline.gram_build_s"] + m["pipeline.consume_s"]) /
        (m["pipeline.wall_s"] * static_cast<double>(kThreads));
  }
  m["pipeline.peak_inflight_bytes"] = value("pipeline.peak_inflight_bytes");
  m["embedder.dense_buckets"] = value("backend.selected_dense");
  m["embedder.nystrom_buckets"] = value("backend.selected_nystrom");
  m["spectral.eigensolve_s"] = timer_s("spectral.eigensolve");
  m["eigensolve.factored"] = value("eigensolve.factored");
  m["kmeans.lloyd_s"] = timer_s("kmeans.lloyd");
  m["kmeans.iterations"] = value("kmeans.iterations");
  // Bucket fit time the program's stage timers do not account for. A
  // factored bucket builds its factor inside the fit, a dense bucket before
  // it; when a run mixes the two, the factored builds land here too.
  if (!fits.empty()) {
    double fit_total = 0.0;
    for (const double f : fits) fit_total += f;
    const double inside_build =
        m["embedder.dense_buckets"] == 0.0 ? m["pipeline.gram_build_s"] : 0.0;
    m["embedder.unattributed_s"] =
        std::max(0.0, fit_total - m["spectral.eigensolve_s"] -
                          m["kmeans.lloyd_s"] - inside_build);
  }

  m["mr.lsh_job_s"] = probe.lsh_job_s;
  m["mr.cluster_job_s"] = probe.cluster_job_s;
  if (probe.mr_call_s > 0.0) {
    m["mr.driver_s"] = probe.mr_call_s - probe.lsh_job_s - probe.cluster_job_s;
  }
  m["mapreduce.map_s"] = timer_s("mapreduce.map");
  m["mapreduce.shuffle_s"] = timer_s("mapreduce.shuffle");
  m["mapreduce.reduce_s"] = timer_s("mapreduce.reduce");
  m["mapreduce.shuffle_bytes"] = value("mapreduce.shuffle_bytes");
  m["mapreduce.failed_task_attempts"] = value("mapreduce.failed_task_attempts");

  m["ipc.recv_wait_s"] = timer_s("ipc.recv_wait");
  m["ipc.messages_sent"] = value("ipc.messages_sent");
  m["ipc.messages_received"] = value("ipc.messages_received");
  m["ipc.bytes_sent"] = value("ipc.bytes_sent");
  m["ipc.bytes_received"] = value("ipc.bytes_received");
  m["shuffle.pulls"] = value("shuffle.pulls");
  m["shuffle.conns_opened"] = value("shuffle.conns_opened");
  if (m["shuffle.pulls"] > 0.0) {
    m["shuffle.conns_per_pull_ppm"] =
        1e6 * m["shuffle.conns_opened"] / m["shuffle.pulls"];
  }
  m["worker.forked"] = value("worker.forked");

  const perfbench::SelfTimes self = perfbench::self_times(spans);
  for (const char* layer : kLayers) {
    const auto it = self.layer_s.find(layer);
    m[std::string(layer) + ".self_s"] =
        it == self.layer_s.end() ? 0.0 : it->second;
  }
  m["trace.unattributed_s"] = self.unattributed_s;
  if (self.op_s > 0.0) {
    m["trace.coverage_ppm"] =
        1e6 * (self.op_s - self.unattributed_s) / self.op_s;
  }
  return m;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const Config& cfg) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (cfg.workload == w.name) found = &w;
  }
  if (found == nullptr) usage("unknown workload '" + cfg.workload + "'");
  const Workload& w = *found;
  const std::size_t n = cfg.tiny ? w.tiny_n : w.n;

  namespace fs = std::filesystem;
  const std::string tmp = cfg.workdir + "/tmp";
  fs::create_directories(tmp);
  const Paths warm{cfg.workdir + "/warm_input.csv",
                   cfg.workdir + "/warm_labels.csv", tmp};
  std::vector<Corpus> corpora(w.corpora);
  for (std::size_t j = 0; j < w.corpora; ++j) {
    const std::string tag = std::to_string(j);
    corpora[j].paths = {cfg.workdir + "/input" + tag + ".csv",
                        cfg.workdir + "/labels" + tag + ".csv", tmp};
  }

  std::printf("workload %s: %zu %s corpora of N=%zu, %s, K=%s, cap=%zu, "
              "seed=%llu\n",
              w.name, w.corpora, w.wiki ? "wiki 11-d" : "mixture 64-d", n,
              w.multiproc ? "multi-process w2w MapReduce, 4 workers"
                          : "fused pipeline, 4 threads",
              w.k == 0 ? "auto" : std::to_string(w.k).c_str(), w.cap,
              static_cast<unsigned long long>(cfg.seed));

  // Set-up: generate and write each corpus, at least kSetupPasses times in
  // all (pass r makes corpus r mod C), then warm up kWarmUps times on a
  // corpus an eighth of the size. The warm-up corpus has a fixed seed, so
  // its work is the same in every run. setup_s is the median pass plus the
  // median warm-up.
  std::vector<double> pass_times;
  std::vector<double> write_times;
  const auto timed_pass = [&](std::size_t j, const std::string& path) {
    const auto start = std::chrono::steady_clock::now();
    data::PointSet corpus = make_corpus(w, n, corpus_seed(cfg.seed, j));
    const auto write_start = std::chrono::steady_clock::now();
    data::save_csv(corpus, path, /*with_labels=*/false);
    write_times.push_back(seconds_since(write_start));
    pass_times.push_back(seconds_since(start));
    return corpus.labels();
  };
  std::vector<double> warm_times;
  std::string warm_error;
  const auto timed_warm_up = [&] {
    const Sample warm_up = run_operation(w, warm, nullptr);
    warm_times.push_back(warm_up.wall_s);
    if (!warm_up.ok) warm_error = warm_up.error;
  };
  const std::size_t passes = std::max(kSetupPasses, w.corpora);
  for (std::size_t r = 0; r < passes; ++r) {
    Corpus& c = corpora[r % w.corpora];
    c.truth = timed_pass(r % w.corpora, c.paths.input);
  }
  data::save_csv(make_corpus(w, n / 8, kWarmUpSeed), warm.input,
                 /*with_labels=*/false);
  for (int r = 0; r < kWarmUps; ++r) timed_warm_up();

  // Cross-mode parity reference: the same job run in-process.
  if (w.multiproc) {
    const auto start = std::chrono::steady_clock::now();
    for (Corpus& c : corpora) {
      const data::PointSet points = data::load_csv(c.paths.input, false);
      c.reference = cluster(w, points, mapreduce::ExecutionMode::kInProcess,
                            tmp, nullptr)
                        .labels;
    }
    std::printf("in-process MapReduce references: %.3f s\n",
                seconds_since(start));
  }

  Tracer tracer;
  std::vector<Sample> samples;
  std::string first_error;
  bool decomposed = true;
  // Every corpus gets at least one operation (a pair when traced), however
  // long that takes, so the corpora behind every metric are the same in
  // every run whatever the program's speed.
  const int ops_per_corpus = cfg.trace ? 2 : 1;
  const int min_ops = ops_per_corpus * static_cast<int>(w.corpora);
  const auto run_start = std::chrono::steady_clock::now();
  for (int i = 0; i < min_ops || seconds_since(run_start) < cfg.seconds; ++i) {
    // Traced runs pair an untraced and a traced operation on one corpus.
    const bool traced = cfg.trace && i % 2 == 1;
    const std::size_t corpus = static_cast<std::size_t>(i / ops_per_corpus) %
                               w.corpora;
    Corpus& c = corpora[corpus];
    std::optional<Probe> probe;
    if (traced) {
      probe.emplace();
      probe->tracer = &tracer;
      probe->op = i;
      probe->decomposed = decomposed && !w.multiproc;
    }
    Sample s = run_operation(w, c.paths, probe ? &*probe : nullptr);
    s.op = i;
    s.corpus = corpus;
    if (s.ok) {
      // Output checks: labels equal the corpus's reference (the in-process
      // run, or its first successful operation) and the output CSV is
      // byte-identical to the corpus's first.
      const std::string bytes = read_file(c.paths.output);
      if (c.reference.empty()) c.reference = s.labels;
      if (c.reference_bytes.empty()) c.reference_bytes = bytes;
      if (s.labels.size() != n) {
        s.ok = false;
        s.error = "output has " + std::to_string(s.labels.size()) +
                  " labels, expected " + std::to_string(n);
      } else if (s.labels != c.reference) {
        s.ok = false;
        s.error = w.multiproc
                      ? "labels differ from the in-process reference"
                      : "labels differ from the first operation's";
        if (traced && probe->decomposed) {
          s.error += " (traced decomposition; later traced operations "
                     "fall back to dasc_cluster and stage timers)";
          decomposed = false;
        }
      } else if (bytes != c.reference_bytes) {
        s.ok = false;
        s.error = "output CSV is not byte-identical to the first operation's";
      } else if (!c.ari) {
        c.ari = clustering::adjusted_rand_index(s.labels, c.truth);
        c.gram_bytes = s.gram_bytes;
      }
    }
    if (!s.ok && first_error.empty()) first_error = s.error;
    if (s.ok && traced) {
      s.layers = layer_metrics(*probe, tracer.spans_of(i), n,
                               static_cast<double>(
                                   fs::file_size(c.paths.input)));
      s.layers["peak_tracked_bytes"] = s.peak_tracked;
    }
    samples.push_back(std::move(s));
    // The host's speed shifts over seconds, so untraced runs time set-up
    // again after each operation, alternately a corpus pass (to a scratch
    // file) and a warm-up: setup_s then samples the host over the whole
    // run, as wall_s does, not only over its first seconds.
    if (!cfg.trace && i % 2 == 0) {
      timed_pass(corpus, cfg.workdir + "/setup_pass.csv");
    } else if (!cfg.trace) {
      timed_warm_up();
    }
  }
  const double measured_s = seconds_since(run_start);
  const double setup_s = median(pass_times) + median(warm_times);
  std::printf("set-up: median corpus pass %.4f s of %zu (CSV write %.4f s), "
              "median warm-up %.4f s of %zu, repeats between operations "
              "included\n",
              median(pass_times), pass_times.size(), median(write_times),
              median(warm_times), warm_times.size());
  if (!warm_error.empty()) {
    std::printf("note: warm-up operation failed: %s\n", warm_error.c_str());
  }

  // Every end-to-end metric but setup_s is a median over the corpora; for
  // wall_s and cpu_s, of each corpus's median operation, so every corpus
  // weighs the same however many operations the run had time for.
  std::vector<std::vector<double>> wall_of(w.corpora);
  std::vector<std::vector<double>> cpu_of(w.corpora);
  std::vector<double> wall;  ///< every untraced sample, for the tail
  std::vector<double> traced_ratios;  ///< traced ÷ its untraced partner
  std::vector<double> tracked;
  std::size_t failed = 0;
  bool untraced_ok = false;
  for (const Sample& s : samples) untraced_ok |= s.ok && !s.traced;
  for (const Sample& s : samples) {
    if (!s.ok) ++failed;
    if (s.ok && s.traced) {
      // A traced operation follows its untraced partner on the same corpus.
      const Sample& partner = samples[static_cast<std::size_t>(s.op - 1)];
      if (partner.ok) traced_ratios.push_back(s.wall_s / partner.wall_s);
    }
    // With no untraced success at all, the attempted operations' costs are
    // reported, so a failing workload still shows how long failing takes.
    if (s.traced || (!s.ok && untraced_ok)) continue;
    wall_of[s.corpus].push_back(s.wall_s);
    cpu_of[s.corpus].push_back(s.cpu_s);
    wall.push_back(s.wall_s);
    tracked.push_back(s.peak_tracked);
  }
  const auto median_of_corpora =
      [](const std::vector<std::vector<double>>& of) {
        std::vector<double> per_corpus;
        for (const std::vector<double>& v : of) {
          if (!v.empty()) per_corpus.push_back(median(v));
        }
        return median(per_corpus);
      };
  // ari and gram_bytes score each corpus on its first checked operation.
  std::vector<double> aris;
  std::vector<double> gram_bytes;
  for (const Corpus& c : corpora) {
    if (!c.ari) continue;
    aris.push_back(*c.ari);
    gram_bytes.push_back(c.gram_bytes);
  }

  std::string tail_label;
  std::map<std::string, double> e2e;
  e2e["wall_s"] = median_of_corpora(wall_of);
  const double wall_tail = tail(wall, tail_label);
  e2e["cpu_s"] = median_of_corpora(cpu_of);
  e2e["ari"] = median(aris);
  e2e["gram_bytes"] = median(gram_bytes);
  e2e["setup_s"] = setup_s;
  const double fail_ratio =
      static_cast<double>(failed) / static_cast<double>(samples.size());

  std::printf("measured %zu operations in %.1f s (%zu untraced samples%s)\n",
              samples.size(), measured_s, wall.size(),
              cfg.trace ? ", alternating with traced ones" : "");
  std::printf("wall_s samples:");
  for (const double v : wall) std::printf(" %.3f", v);
  std::printf("\n");
  for (const Metric& m : kEndToEnd) {
    std::printf("metric %-22s %.6g %s\n", m.name, e2e[m.name], m.unit);
  }
  // Printed for reading, but kept out of the JSON result: fail_ratio is 0
  // on a passing workload (the result's failed/attempted carry it), the
  // tail has no percentile above the median with ten samples beyond it at
  // this run length, and peak_tracked_bytes is 0 in a multi-process
  // supervisor (see perfbench/README.md).
  std::printf("metric %-22s %.6g s (%s samples)\n", "wall_s_tail", wall_tail,
              tail_label.c_str());
  std::printf("metric %-22s %.6g ratio (%zu of %zu failed)\n", "fail_ratio",
              fail_ratio, failed, samples.size());
  std::printf("metric %-22s %.6g bytes (MemoryTracker::peak() per "
              "operation)\n",
              "peak_tracked_bytes", median(tracked));
  if (w.multiproc) {
    std::printf("note: peak_tracked_bytes covers the supervisor process "
                "only; worker memory is not tracked\n");
  }
  if (!first_error.empty()) {
    std::printf("first error: %s\n", first_error.c_str());
  }
  std::printf("note: ari and gram_bytes are medians over %zu of %zu "
              "corpora%s\n",
              aris.size(), corpora.size(),
              aris.empty() ? " (no operation succeeded; reported as 0)" : "");

  std::map<std::string, double> layers;
  if (cfg.trace) {
    std::map<std::string, std::vector<double>> per_key;
    for (const Sample& s : samples) {
      for (const auto& [key, v] : s.layers) per_key[key].push_back(v);
    }
    for (const Metric& m : kPerLayer) layers[m.name] = median(per_key[m.name]);
    if (!traced_ratios.empty()) {
      layers["trace.overhead_ppm"] = 1e6 * (median(traced_ratios) - 1.0);
    }
    std::printf("traced operations: %zu (%s)\n", traced_ratios.size(),
                !w.multiproc && decomposed
                    ? "fused pipeline driven call by call, one span per "
                      "bucket"
                    : "one span per engine call plus exported stage timers");
    // Corpora differ in bucket structure, so the medians below can blend
    // operations of different shapes; each fused traced operation's shape
    // is printed too.
    for (const Sample& s : samples) {
      if (w.multiproc || !s.traced || s.layers.empty()) continue;
      const auto& l = s.layers;
      std::printf("traced op %d (corpus %zu): %.3f s, %g dense + %g nystrom "
                  "buckets, embedder.unattributed_s %.3f s\n",
                  s.op, s.corpus, s.wall_s, l.at("embedder.dense_buckets"),
                  l.at("embedder.nystrom_buckets"),
                  l.at("embedder.unattributed_s"));
    }
    for (const Metric& m : kPerLayer) {
      std::printf("layer  %-34s %.6g %s\n", m.name, layers[m.name], m.unit);
    }
    // The slowest bucket's backend, beside its size and time.
    double slowest = -1.0;
    std::string backend;
    for (const Sample& s : samples) {
      if (!s.traced) continue;
      for (const Span& span : tracer.spans_of(s.op)) {
        if (span.name == "embedder.fit_with_block" &&
            span.seconds() > slowest) {
          slowest = span.seconds();
          backend = span.backend;
        }
      }
    }
    if (!backend.empty()) {
      std::printf("note: slowest bucket fit %.3f s on the %s backend\n",
                  slowest, backend.c_str());
    }
    if (!cfg.trace_out.empty()) {
      tracer.write_chrome_json(cfg.trace_out);
      std::printf("spans written to %s\n", cfg.trace_out.c_str());
    }
  }

  std::ostringstream json;
  json << "{\"correct\": " << (failed == 0 ? "true" : "false")
       << ", \"attempted\": " << samples.size() << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const Metric& m, double v) {
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << format_value(v) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (cfg.trace) {
    for (const Metric& m : kPerLayer) emit(m, layers[m.name]);
  } else {
    for (const Metric& m : kEndToEnd) emit(m, e2e[m.name]);
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dasc_perfbench: %s\n", e.what());
    return 1;
  }
}
