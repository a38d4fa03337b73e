// Worker-process lifecycle: fork N workers (plus pre-forked spares), hand
// out their transports, and reap them on death or shutdown. A worker is a
// fork of its supervisor: it runs worker_main on copy-on-write copies of
// everything the supervisor held, closures and registries included.
//
// Fork safety is by construction: every worker — including the spares that
// replace victims of the `worker.kill` fault site — is forked in the
// supervisor's constructor, before the job runtime spawns any threads.
// Nothing ever forks from a multi-threaded parent, so inherited locks
// (metrics registry, logger) can never be mid-acquisition in a child, and
// TSan's fork restrictions are respected. A killed worker is therefore
// replaced by *activating* an already-forked spare, never by a late fork.
//
// Each worker slot owns:
//   - the connected Transport (parent end of a socketpair),
//   - an exchange mutex serializing request/response conversations (the
//     transport's single-reader contract),
//   - a lifecycle mutex guarding SIGKILL/waitpid/sweep so a fault-injected
//     kill and an EOF-triggered reap can race safely (waitpid runs exactly
//     once per pid — no reuse hazard).
//
// On reap the supervisor sweeps the spill directory for the dead worker's
// orphaned spool files ("dasc-spool-<pid>-*.spl"). SpoolPager unlinks its
// file right after creation, so normally there is nothing to sweep; the
// sweep is the backstop for pathological cases (DESIGN.md section 13).
//
// Metrics (null-safe): gauges `worker.forked`, `worker.active`,
// `worker.killed`, `worker.spool_files_swept`.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ipc/transport.hpp"

namespace dasc {
class MetricsRegistry;
}  // namespace dasc

namespace dasc::ipc {

struct WorkerLaunch {
  /// Primary workers: the placement plan assigns tasks to these.
  std::size_t num_workers = 2;
  /// Pre-forked spares activated when a primary dies (worker.kill).
  std::size_t num_spares = 1;
  /// Runs in the child with its end of the socketpair. The child must
  /// treat the call as its whole life: the preamble has already sent
  /// kHello, and _exit follows the return.
  std::function<void(Transport&, std::size_t slot)> worker_main;
  /// Spill directory swept for dead workers' spool files ("" = temp dir).
  std::string spill_dir;
  MetricsRegistry* metrics = nullptr;
};

class WorkerSupervisor {
 public:
  /// Forks every worker and completes the kHello handshake.
  /// Must be called while the process is single-threaded (see file
  /// comment); throws IoError when a worker fails to start.
  explicit WorkerSupervisor(WorkerLaunch launch);
  ~WorkerSupervisor();
  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  std::size_t provisioned() const { return slots_.size(); }
  std::size_t primaries() const { return launch_.num_workers; }
  bool alive(std::size_t slot) const;
  std::size_t alive_count() const;
  pid_t pid(std::size_t slot) const;

  Transport& transport(std::size_t slot);
  /// Serializes one request/response conversation on a slot's transport.
  std::mutex& exchange_mutex(std::size_t slot);

  /// SIGKILL the worker (the `worker.kill` fault site's hammer), reap it,
  /// and sweep its spool files. No-op if already dead.
  void kill_worker(std::size_t slot);
  /// Reap a worker observed dead (transport EOF/error): waitpid + sweep.
  /// No-op if already reaped.
  void mark_dead(std::size_t slot);

  /// Graceful stop: kShutdown to every live worker, bounded wait, SIGKILL
  /// stragglers, reap + sweep everyone. Idempotent; runs in ~destructor.
  void shutdown();

 private:
  struct WorkerSlot {
    pid_t pid = -1;
    std::unique_ptr<Transport> transport;
    std::atomic<bool> alive{false};
    std::mutex exchange_mutex;
    std::mutex lifecycle_mutex;
  };

  void spawn(std::size_t slot, std::vector<int>& parent_fds);
  void expect_hello(std::size_t slot);
  /// Reap + sweep under the slot's lifecycle mutex; returns false if the
  /// slot was already dead.
  bool reap_locked(WorkerSlot& slot);
  /// Mark a reaped slot dead and sweep its spool files; the caller holds
  /// its lifecycle mutex.
  void retire(WorkerSlot& slot);
  void record_active() const;

  WorkerLaunch launch_;
  std::vector<std::unique_ptr<WorkerSlot>> slots_;
  bool shut_down_ = false;
};

/// Remove `dir`'s (or the temp dir's, when empty) spool files belonging to
/// `pid` ("dasc-spool-<pid>-*.spl"); returns how many were removed. Best
/// effort: unreadable entries are skipped, never thrown on.
std::size_t sweep_spool_files(const std::string& dir, long pid);

}  // namespace dasc::ipc
