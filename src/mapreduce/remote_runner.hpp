// Multi-process job execution: the supervisor side (run_job_multiproc) and
// the worker side (serve_worker_loop) of JobConf::execution_mode ==
// kMultiProcess.
//
// The control plane is a supervisor-mediated star (DESIGN.md section 13):
// the supervisor — the process that called run_job — forks the workers
// before spawning any job threads, drives both phases through the
// same detail::run_task_phase as the in-process executor, and moves data
// as CRC-framed messages. Payloads larger than one stream chunk ship as
// bounded kDataChunk/kDataEnd streams (ipc/stream.hpp), so a big map input
// or pulled slice never buffers whole in a socket.
//
// The shuffle is worker-to-worker (DESIGN.md section 14): each worker
// binds a data-plane Listener, reducers pull their partitions straight
// from the mapper workers, and the supervisor relays no shuffle bytes:
//
//   map:     kMapAssign{task, records}        -> kMapDone{counts, metrics}
//   reduce:  kReducePull{task, partition map} -> kReducePullDone{counts,
//                                                metrics, records}
//   pull:    kFetchPart{map_task, partition}  -> kFetchData{crc, records}
//            (reducer -> owner's data plane)
//
// Pulled records stream into one sort-on-seal SpoolBuffer per reduce
// task, so JobConf::spill_budget_bytes bounds reducer residency. A
// map-output owner that dies mid-pull is first-class: the reducer reports
// kPullFailed, the supervisor re-executes the map task inline on that
// reducer (kMapAssign over the same conversation), replies kPullResume,
// and the pull resumes locally.
//
// The data plane (DESIGN.md section 15): each reducer keeps one pooled
// connection per owner slot (ipc/conn_pool.hpp), reused across pulls and
// reduce tasks, with a fixed window of kFetchPart requests in flight on
// it. A retry re-requests on the same connection; a broken connection is
// re-dialled once before the owner counts as unreachable. Owners serve
// each accepted peer on its own thread, so one reducer's long-lived
// conversation never parks another's. Every endpoint streams with the
// one StreamConfig{} geometry.
//
// Speculative execution (DESIGN.md section 15): with
// JobConf::enable_speculation a straggling task gets one backup attempt,
// dispatched to a different live worker than the primary's current slot.
// run_task_phase's commit-once exchange arbitrates which attempt's report
// lands; the losing attempt queues a kTaskCancel that — flushed after the
// phase joins, so the winner check is race-free — makes the loser's worker
// drop its retained map output and sweep its spool files
// (kTaskCancelled{task, outputs_dropped, spools_swept} receipt;
// `worker.task_cancels` / `worker.spec_commits_won` gauges).
//
// Together with commit-once attempts and the shared task helpers, job
// output is byte-identical to kInProcess for any worker count, any spill
// budget, and any fault plan that lets the job finish.
//
// Metrics: a worker's registry is its private copy of the job's (a local
// one when the job has none), which the job's mapper and reducer already
// write into. It is zeroed before each task and shipped whole in the
// reply; the supervisor merges only the committed attempt's snapshot.
//
// Fault sites: `map.task` / `reduce.task` fire in the supervisor exactly
// as in-process, and `worker.kill` SIGKILLs the assigned worker right
// after its task ships — the task's transport then sees EOF, the attempt
// fails, and the retry re-dispatches to the next live slot (a pre-forked
// spare when the primaries are exhausted). Sites inside a task
// (`shuffle.fetch`, `spill.page_io`, `alloc.gram_block`) fire in the
// worker's copy of the injector and count into the task registry; the
// supervisor moves those counts into its own injector
// (FaultInjector::absorb_remote_fires). A dead map-output owner causes a
// deterministic map re-execution (`worker.map_reexecutions` gauge).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mapreduce/job.hpp"
#include "mapreduce/types.hpp"

namespace dasc {
class FaultInjector;
class MetricsRegistry;
}  // namespace dasc

namespace dasc::ipc {
class Transport;
}  // namespace dasc::ipc

namespace dasc::mapreduce {

/// What a worker process needs to execute tasks: the same factories a
/// JobSpec carries, plus whether map tasks should run the combiner.
struct WorkerJob {
  std::function<std::unique_ptr<Mapper>()> mapper_factory;
  std::function<std::unique_ptr<Reducer>()> reducer_factory;
  std::function<std::unique_ptr<Reducer>()> combiner_factory;
  bool use_combiner = false;
};

/// Per-worker runtime knobs for serve_worker_loop, set by the supervisor's
/// fork closure.
struct WorkerOptions {
  /// The worker's slot index (logging and self-pull detection).
  std::size_t ordinal = 0;
  /// kHeartbeat period while a task runs (0 = off).
  std::size_t heartbeat_ms = 0;
  /// AF_UNIX path this worker binds its data-plane Listener on. Empty =
  /// no data plane (a worker driven directly, without a supervisor).
  std::string data_socket_path;
  /// Worker-side fault injection (`shuffle.fetch` during pulls,
  /// `spill.page_io` in the reduce spool), or null: the worker's own
  /// (copy-on-write) copy of the supervisor's injector. The loop points
  /// it at the task registry.
  FaultInjector* faults = nullptr;
  /// The registry every task reports through: zeroed before each task,
  /// snapshotted into its reply. Null = a registry local to the loop.
  MetricsRegistry* metrics = nullptr;
};

/// A worker process's whole life: serve task assignments from `transport`
/// until kShutdown or EOF (supervisor gone). Runs map tasks with
/// execute_map_task (outputs retained for data-plane pulls) and reduce
/// tasks (kReducePull) by fetching each map task's slice of the
/// partition — remote owners over their data planes, itself directly —
/// into a sort-on-seal SpoolBuffer reduced via execute_reduce_spooled. A
/// task that throws is reported as kTaskError and the loop keeps serving
/// (the supervisor decides whether to retry). While a task is executing, a
/// companion thread sends kHeartbeat every options.heartbeat_ms (idle
/// workers stay silent so unread frames stay bounded).
void serve_worker_loop(ipc::Transport& transport, const WorkerJob& job,
                       const WorkerOptions& options);

/// Execute a job on forked worker processes. Called by run_job/run_job_dfs
/// when conf.execution_mode == kMultiProcess; call sequence, speculation,
/// and determinism contract in the file comment.
JobResult run_job_multiproc(const JobSpec& spec,
                            std::vector<std::vector<Record>> splits);

}  // namespace dasc::mapreduce
