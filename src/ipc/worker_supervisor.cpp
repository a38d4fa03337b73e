#include "ipc/worker_supervisor.hpp"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"

namespace dasc::ipc {

namespace {

/// Blocking waitpid riding out EINTR. The caller guarantees the pid is an
/// unreaped child, so this cannot block forever once the child has exited
/// or been SIGKILLed.
void reap_pid(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

std::size_t sweep_spool_files(const std::string& dir, long pid) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path base = dir.empty() ? fs::temp_directory_path(ec) : fs::path(dir);
  if (ec) return 0;
  // Exactly "dasc-spool-<pid>-<digits>.spl". Workers in worker-to-worker
  // shuffle mode share the supervisor's spill_dir, so the match must never
  // alias across pids: the "-" after the pid stops prefix collisions
  // (123 vs 1234) and the all-digits middle stops any other live worker's
  // name shape from matching a dead pid's sweep.
  const std::string prefix = "dasc-spool-" + std::to_string(pid) + "-";
  const std::string suffix = ".spl";
  std::size_t removed = 0;
  fs::directory_iterator it(base, ec);
  if (ec) return 0;
  for (const auto& entry : it) {
    std::error_code type_ec;
    if (!entry.is_regular_file(type_ec) || type_ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) != 0) continue;
    if (name.size() < prefix.size() + suffix.size() + 1) continue;
    if (name.substr(name.size() - suffix.size()) != suffix) continue;
    const std::string middle = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    bool digits = !middle.empty();
    for (const char c : middle) digits = digits && c >= '0' && c <= '9';
    if (!digits) continue;
    std::error_code remove_ec;
    if (fs::remove(entry.path(), remove_ec)) ++removed;
  }
  return removed;
}

WorkerSupervisor::WorkerSupervisor(WorkerLaunch launch)
    : launch_(std::move(launch)) {
  DASC_EXPECT(launch_.num_workers >= 1,
              "WorkerSupervisor: need at least one worker");
  DASC_EXPECT(launch_.worker_main != nullptr,
              "WorkerSupervisor: need a worker_main");

  const std::size_t total = launch_.num_workers + launch_.num_spares;
  slots_.reserve(total);
  for (std::size_t slot = 0; slot < total; ++slot) {
    slots_.push_back(std::make_unique<WorkerSlot>());
  }

  std::vector<int> parent_fds;
  parent_fds.reserve(total);
  for (std::size_t slot = 0; slot < total; ++slot) spawn(slot, parent_fds);
  for (std::size_t slot = 0; slot < total; ++slot) expect_hello(slot);

  if (launch_.metrics != nullptr) {
    launch_.metrics->gauge("worker.forked")
        .add(static_cast<std::int64_t>(total));
  }
  record_active();
  DASC_LOG(kInfo) << "supervisor: " << launch_.num_workers << " workers + "
                  << launch_.num_spares << " spares forked";
}

WorkerSupervisor::~WorkerSupervisor() {
  try {
    shutdown();
  } catch (...) {
  }
}

void WorkerSupervisor::spawn(std::size_t slot, std::vector<int>& parent_fds) {
  auto [parent_fd, child_fd] = make_socketpair();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(parent_fd);
    ::close(child_fd);
    throw IoError("supervisor: fork failed");
  }
  if (pid == 0) {
    // Worker child. Sever every parent-side end inherited from earlier
    // workers — holding one would keep a sibling's socket open and defeat
    // the supervisor's EOF-based death detection.
    for (const int fd : parent_fds) ::close(fd);
    ::close(parent_fd);
    ::signal(SIGPIPE, SIG_IGN);
    int exit_code = 0;
    try {
      Transport transport(child_fd);
      WireWriter hello;
      hello.u64(static_cast<std::uint64_t>(::getpid()));
      transport.send({MessageType::kHello, hello.take()});
      launch_.worker_main(transport, slot);
    } catch (...) {
      exit_code = 1;
    }
    // _exit: a forked worker must not run the parent's static destructors
    // or flush its inherited stdio buffers.
    ::_exit(exit_code);
  }
  ::close(child_fd);
  parent_fds.push_back(parent_fd);
  WorkerSlot& state = *slots_[slot];
  state.pid = pid;
  state.transport = std::make_unique<Transport>(parent_fd, launch_.metrics);
  state.alive.store(true, std::memory_order_release);
}

void WorkerSupervisor::expect_hello(std::size_t slot) {
  WorkerSlot& state = *slots_[slot];
  std::optional<Message> hello;
  try {
    hello = state.transport->recv();
  } catch (...) {
    hello.reset();
  }
  if (!hello || hello->type != MessageType::kHello) {
    reap_locked(state);
    throw IoError("supervisor: worker " + std::to_string(slot) +
                  " failed its kHello handshake");
  }
  WireReader reader(hello->payload);
  const auto reported = static_cast<pid_t>(reader.u64());
  DASC_ENSURE(reported == state.pid,
              "supervisor: worker reported an unexpected pid");
}

bool WorkerSupervisor::alive(std::size_t slot) const {
  return slots_[slot]->alive.load(std::memory_order_acquire);
}

std::size_t WorkerSupervisor::alive_count() const {
  std::size_t count = 0;
  for (const auto& slot : slots_) {
    if (slot->alive.load(std::memory_order_acquire)) ++count;
  }
  return count;
}

pid_t WorkerSupervisor::pid(std::size_t slot) const {
  return slots_[slot]->pid;
}

Transport& WorkerSupervisor::transport(std::size_t slot) {
  return *slots_[slot]->transport;
}

std::mutex& WorkerSupervisor::exchange_mutex(std::size_t slot) {
  return slots_[slot]->exchange_mutex;
}

bool WorkerSupervisor::reap_locked(WorkerSlot& slot) {
  std::lock_guard lock(slot.lifecycle_mutex);
  if (!slot.alive.load(std::memory_order_acquire)) return false;
  reap_pid(slot.pid);
  retire(slot);
  return true;
}

void WorkerSupervisor::retire(WorkerSlot& slot) {
  slot.alive.store(false, std::memory_order_release);
  const std::size_t swept =
      sweep_spool_files(launch_.spill_dir, static_cast<long>(slot.pid));
  if (launch_.metrics != nullptr && swept > 0) {
    launch_.metrics->gauge("worker.spool_files_swept")
        .add(static_cast<std::int64_t>(swept));
  }
}

void WorkerSupervisor::kill_worker(std::size_t slot) {
  WorkerSlot& state = *slots_[slot];
  {
    std::lock_guard lock(state.lifecycle_mutex);
    if (!state.alive.load(std::memory_order_acquire)) return;
    // SIGKILL inside the lifecycle lock: alive==true guarantees the pid is
    // not yet reaped, so it cannot have been recycled.
    ::kill(state.pid, SIGKILL);
    reap_pid(state.pid);
    retire(state);
    if (launch_.metrics != nullptr) {
      launch_.metrics->gauge("worker.killed").add(1);
    }
  }
  DASC_LOG(kWarn) << "supervisor: killed worker " << slot << " (pid "
                  << state.pid << ")";
  record_active();
}

void WorkerSupervisor::mark_dead(std::size_t slot) {
  if (reap_locked(*slots_[slot])) {
    DASC_LOG(kWarn) << "supervisor: reaped dead worker " << slot << " (pid "
                    << slots_[slot]->pid << ")";
    record_active();
  }
}

void WorkerSupervisor::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;

  for (const auto& slot : slots_) {
    if (!slot->alive.load(std::memory_order_acquire)) continue;
    try {
      slot->transport->send({MessageType::kShutdown, {}});
    } catch (...) {
      // already dying; the reap below handles it
    }
  }
  for (const auto& slot : slots_) {
    std::lock_guard lock(slot->lifecycle_mutex);
    if (!slot->alive.load(std::memory_order_acquire)) continue;
    // Bounded wait for a voluntary exit, then escalate to SIGKILL. The
    // grace window only matters for a wedged worker; a healthy one exits
    // on kShutdown within one serve-loop iteration.
    bool exited = false;
    for (int spin = 0; spin < 100; ++spin) {
      int status = 0;
      const pid_t got = ::waitpid(slot->pid, &status, WNOHANG);
      if (got == slot->pid || (got < 0 && errno != EINTR)) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (!exited) {
      ::kill(slot->pid, SIGKILL);
      reap_pid(slot->pid);
    }
    retire(*slot);
  }
  record_active();
}

void WorkerSupervisor::record_active() const {
  if (launch_.metrics != nullptr) {
    launch_.metrics->gauge("worker.active")
        .set(static_cast<std::int64_t>(alive_count()));
  }
}

}  // namespace dasc::ipc
