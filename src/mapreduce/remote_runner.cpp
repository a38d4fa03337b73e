#include "mapreduce/remote_runner.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fault_injection.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/spool.hpp"
#include "common/stopwatch.hpp"
#include "ipc/conn_pool.hpp"
#include "ipc/stream.hpp"
#include "ipc/transport.hpp"
#include "ipc/worker_supervisor.hpp"
#include "mapreduce/shuffle.hpp"
#include "mapreduce/task_exec.hpp"
#include "mapreduce/virtual_cluster.hpp"

namespace dasc::mapreduce {

namespace {

using ipc::Message;
using ipc::MessageType;
using ipc::WireReader;
using ipc::WireWriter;

constexpr std::size_t kNoOwner = static_cast<std::size_t>(-1);

/// CRC over records in the "key\tvalue\n" convention — the same transfer
/// checksum fetch_one_verified uses in shuffle.cpp, so the pull's
/// verification (and its fault accounting) mirrors in-process.
std::uint32_t records_crc(const std::vector<Record>& records) {
  Crc32 crc;
  for (const auto& record : records) {
    crc.update(record.key).update("\t").update(record.value).update("\n");
  }
  return crc.value();
}

void append_records(WireWriter& writer, const std::vector<Record>& records) {
  for (const auto& record : records) {
    writer.record(record.key, record.value);
  }
}

std::vector<Record> read_records(WireReader& reader) {
  std::vector<Record> records;
  while (!reader.done()) {
    const auto [key, value] = reader.record();
    records.push_back({std::string(key), std::string(value)});
  }
  return records;
}

/// Throws the worker-reported task failure carried by a kTaskError reply.
[[noreturn]] void rethrow_task_error(const Message& reply) {
  WireReader reader(reply.payload);
  reader.u64();  // task
  throw IoError("worker task failed: " + std::string(reader.bytes()));
}

/// The records of `output` that hash to `partition` — order-preserving, so
/// a reducer pulling its slice of every map output in task order sees the
/// exact record sequence fetch_and_partition appends for that partition.
std::vector<Record> filter_partition(const std::vector<Record>& output,
                                     std::size_t partition,
                                     std::size_t num_partitions) {
  std::vector<Record> slice;
  for (const auto& record : output) {
    if (partition_for_key(record.key, num_partitions) == partition) {
      slice.push_back(record);
    }
  }
  return slice;
}

/// Injected-corruption realization of the worker-side pull, as in
/// fetch_one_verified: flip one byte of the transfer so the CRC check
/// catches it. Returns false when every record is empty (nothing to flip —
/// the caller fails the attempt instead).
bool flip_one_byte(std::vector<Record>& records) {
  for (auto& record : records) {
    if (!record.value.empty()) {
      record.value.front() = static_cast<char>(record.value.front() ^ 0x1);
      return true;
    }
    if (!record.key.empty()) {
      record.key.front() = static_cast<char>(record.key.front() ^ 0x1);
      return true;
    }
  }
  return false;
}

/// A task's whole metrics registry on the wire, after the fixed fields of
/// kMapDone and kReducePullDone: counters, timers, gauges, each a count
/// followed by named entries. No name is special here; the supervisor
/// merges what arrives (MetricsSnapshot has the rules).
void write_metrics(WireWriter& writer, const MetricsRegistry& metrics) {
  const MetricsSnapshot snapshot = metrics.snapshot();
  writer.u64(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    writer.bytes(name);
    writer.u64(static_cast<std::uint64_t>(value));
  }
  writer.u64(snapshot.timers.size());
  for (const auto& [name, timer] : snapshot.timers) {
    writer.bytes(name);
    writer.u64(static_cast<std::uint64_t>(timer.count));
    writer.u64(static_cast<std::uint64_t>(timer.nanos));
  }
  writer.u64(snapshot.gauges.size());
  for (const auto& [name, gauge] : snapshot.gauges) {
    writer.bytes(name);
    writer.u64(static_cast<std::uint64_t>(gauge.value));
    writer.u32(gauge.sums ? 1 : 0);
  }
}

MetricsSnapshot read_metrics(WireReader& reader) {
  MetricsSnapshot snapshot;
  for (std::uint64_t n = reader.u64(); n > 0; --n) {
    const std::string name(reader.bytes());
    snapshot.counters[name] = static_cast<std::int64_t>(reader.u64());
  }
  for (std::uint64_t n = reader.u64(); n > 0; --n) {
    const std::string name(reader.bytes());
    MetricsSnapshot::Timer& timer = snapshot.timers[name];
    timer.count = static_cast<std::int64_t>(reader.u64());
    timer.nanos = static_cast<std::int64_t>(reader.u64());
  }
  for (std::uint64_t n = reader.u64(); n > 0; --n) {
    const std::string name(reader.bytes());
    MetricsSnapshot::Gauge& gauge = snapshot.gauges[name];
    gauge.value = static_cast<std::int64_t>(reader.u64());
    gauge.sums = reader.u32() != 0;
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// State shared between a worker's serve loop and its data-plane threads:
/// map outputs are written by the serve loop (kMapAssign, and kMapAssign
/// re-executions inside a pull recovery) and read concurrently by
/// kFetchPart servers and local pulls.
struct WorkerState {
  std::mutex outputs_mutex;
  std::map<std::uint64_t, std::vector<Record>> map_outputs;
  /// Pooled data-plane connections to map-output owners, reused across
  /// pulls, reduce tasks, and re-attempts (DESIGN.md section 15).
  ipc::ConnPool pool;
};

/// Thrown inside a pull when the owner's data plane is unreachable (dead
/// process, stale socket path, EOF mid-reply): the reducer reports
/// kPullFailed so the supervisor re-homes the map output, rather than
/// burning fetch attempts on a peer that cannot answer.
struct OwnerUnreachable {
  std::string reason;
};

/// Owner of one map task's output as the kReducePull partition map
/// describes it. An empty path on our own slot means "pull locally".
struct OwnerRef {
  std::size_t slot = kNoOwner;
  std::string path;
};

/// One pulled slice plus the checksum its owner computed before transfer.
struct PullSlice {
  std::vector<Record> records;
  std::uint32_t crc = 0;
};

/// Execute one map task (a kMapAssign payload past its task id) and retain
/// its output for pulls; returns the kMapDone reply, which ends with the
/// snapshot of `metrics`.
Message run_map_task(const WorkerJob& job, WorkerState& state,
                     const MetricsRegistry& metrics, std::uint64_t task,
                     WireReader& reader) {
  detail::MapTaskResult mapped = detail::execute_map_task(
      job.mapper_factory, job.combiner_factory,
      job.use_combiner && job.combiner_factory != nullptr,
      read_records(reader));
  WireWriter done;
  done.u64(task);
  done.u64(mapped.emitted);
  done.u64(mapped.combined);
  done.u64(mapped.output.size());
  write_metrics(done, metrics);
  std::lock_guard lock(state.outputs_mutex);
  state.map_outputs[task] = std::move(mapped.output);
  return {MessageType::kMapDone, done.take()};
}

/// Serve one data-plane connection: kFetchPart requests until the peer
/// closes. Each request is a self-contained transaction answered in
/// arrival order, so a puller can keep several requests in flight on one
/// pooled connection, and a dead puller costs nothing but this loop's EOF.
/// Pipelined requests also arrive while a streamed reply waits for credit;
/// they queue behind it.
void serve_data_peer(ipc::Transport& peer, WorkerState& state) {
  std::deque<Message> queued;
  const auto queue = [&queued](const Message& frame) {
    queued.push_back(frame);
  };
  while (true) {
    std::optional<Message> request;
    if (queued.empty()) {
      request = ipc::recv_message(peer);
      if (!request.has_value()) return;  // puller closed cleanly
    } else {
      request = std::move(queued.front());
      queued.pop_front();
    }
    if (request->type != MessageType::kFetchPart) {
      throw IoError("data plane: unexpected message type " +
                    std::to_string(
                        static_cast<std::uint32_t>(request->type)));
    }
    WireReader reader(request->payload);
    const std::uint64_t map_task = reader.u64();
    const std::uint64_t partition = reader.u64();
    const std::uint64_t num_partitions = reader.u64();
    std::optional<std::vector<Record>> slice;
    {
      std::lock_guard lock(state.outputs_mutex);
      const auto it = state.map_outputs.find(map_task);
      if (it != state.map_outputs.end()) {
        slice = filter_partition(it->second,
                                 static_cast<std::size_t>(partition),
                                 static_cast<std::size_t>(num_partitions));
      }
    }
    if (!slice.has_value()) {
      WireWriter writer;
      writer.u64(map_task);
      writer.bytes("fetch_part: map output not resident on this worker");
      peer.send({MessageType::kTaskError, writer.take()});
      continue;
    }
    WireWriter writer;
    writer.u64(map_task);
    writer.u32(records_crc(*slice));
    writer.u64(slice->size());
    append_records(writer, *slice);
    ipc::send_message(peer, {MessageType::kFetchData, writer.take()}, {},
                      queue);
  }
}

/// kFetchPart requests a reducer keeps in flight per owner connection.
constexpr std::size_t kPullWindow = 4;

/// One reduce task's pulls from one remote map-output owner, over a
/// connection leased from the worker's pool (DESIGN.md section 15). Up to
/// kPullWindow requests stay in flight in the owner's pull order; the
/// owner answers in request order, so replies come back in that order and
/// any that arrive ahead of the task being pulled wait in `early_`.
class OwnerLink {
 public:
  OwnerLink(ipc::ConnPool& pool, std::size_t slot, std::string path,
            std::uint64_t partition, std::uint64_t num_partitions)
      : pool_(pool), slot_(slot), path_(std::move(path)),
        partition_(partition), num_partitions_(num_partitions) {}
  OwnerLink(const OwnerLink&) = delete;
  OwnerLink& operator=(const OwnerLink&) = delete;

  /// A connection with replies still unread is mid-conversation: close it
  /// rather than hand it back to the pool.
  ~OwnerLink() {
    if (lease_.has_value() && !in_flight_.empty()) lease_->invalidate();
  }

  void add_task(std::uint64_t map_task) { tasks_.push_back(map_task); }

  /// Dial (or reuse) the connection and fill the window, so pulls from
  /// every owner overlap from the start. A failure here only drops the
  /// connection; fetch() re-dials and reports it.
  void prime() {
    try {
      connect();
    } catch (const IoError&) {
      drop();
    }
  }

  /// The owner's reply to kFetchPart for `map_task`. The task is requested
  /// afresh when no request for it is outstanding: a retry after a failed
  /// verification, or a request lost with a broken connection. A broken
  /// connection is re-dialled once; a second failure means the owner is
  /// unreachable.
  Message fetch(std::uint64_t map_task) {
    for (int dial = 0;; ++dial) {
      try {
        connect();
        if (const auto it = early_.find(map_task); it != early_.end()) {
          Message reply = std::move(it->second);
          early_.erase(it);
          return reply;
        }
        if (std::find(in_flight_.begin(), in_flight_.end(), map_task) ==
            in_flight_.end()) {
          request(map_task);
        }
        while (true) {
          std::optional<Message> reply = ipc::recv_message(**lease_);
          if (!reply.has_value()) {
            throw IoError("owner closed the data plane mid-pull");
          }
          const std::uint64_t answered = in_flight_.front();
          in_flight_.pop_front();
          if (answered == map_task) return *std::move(reply);
          early_.emplace(answered, *std::move(reply));
        }
      } catch (const IoError& error) {
        drop();
        if (dial >= 1) throw OwnerUnreachable{error.what()};
      }
    }
  }

 private:
  void connect() {
    if (!lease_.has_value()) lease_.emplace(pool_.lease(slot_, path_));
    while (in_flight_.size() < kPullWindow && next_ < tasks_.size()) {
      request(tasks_[next_++]);
    }
  }

  void request(std::uint64_t map_task) {
    WireWriter writer;
    writer.u64(map_task);
    writer.u64(partition_);
    writer.u64(num_partitions_);
    (*lease_)->send({MessageType::kFetchPart, writer.take()});
    in_flight_.push_back(map_task);
  }

  /// Close a connection that failed mid-conversation; its unanswered
  /// requests are re-sent by fetch() as their tasks come up.
  void drop() {
    if (lease_.has_value()) {
      lease_->invalidate();
      lease_.reset();
    }
    in_flight_.clear();
  }

  ipc::ConnPool& pool_;
  std::size_t slot_;
  std::string path_;
  std::uint64_t partition_;
  std::uint64_t num_partitions_;
  std::optional<ipc::ConnPool::Lease> lease_;
  std::vector<std::uint64_t> tasks_;        ///< owner's map tasks, pull order
  std::size_t next_ = 0;                    ///< tasks_[next_..) unrequested
  std::deque<std::uint64_t> in_flight_;     ///< requested, reply unread
  std::map<std::uint64_t, Message> early_;  ///< replies read ahead
};

/// The worker half of a kReducePull assignment (topology in the header
/// comment): pull this reduce task's slice of every map output in map-task
/// order — remote owners over their data planes, our own outputs directly
/// — into one sort-on-seal spool, then reduce off the merged stream. Pull
/// order fixes the partition's record sequence to exactly what
/// fetch_and_partition builds, so the spool's stable merge makes the
/// reduce byte-identical to the in-process executor. The pulls, the spool
/// and the reducer all report into `metrics`; the kReducePullDone reply
/// carries the reduce result, the pulled byte volume and that registry's
/// snapshot.
Message run_reduce_pull(ipc::Transport& control, const WorkerJob& job,
                        const WorkerOptions& options, WorkerState& state,
                        MetricsRegistry& metrics, std::uint64_t task,
                        WireReader& reader) {
  const std::uint64_t num_partitions = reader.u64();
  const std::uint64_t num_map_tasks = reader.u64();
  const std::uint64_t spill_budget = reader.u64();
  const std::string spill_dir(reader.bytes());
  const std::uint64_t max_fetch_attempts = reader.u64();
  std::vector<OwnerRef> owners(static_cast<std::size_t>(num_map_tasks));
  for (auto& owner : owners) {
    owner.slot = static_cast<std::size_t>(reader.u64());
    owner.path = std::string(reader.bytes());
  }

  FaultInjector* faults = options.faults;
  ScopedTimer shuffle_timer(&metrics, "mapreduce.shuffle");
  SpoolConfig spool_config;
  spool_config.dir = spill_dir;
  // JobConf budget 0 means spilling off; SpoolConfig budget 0 means spill
  // every sealed page. Map "off" to a budget nothing reaches.
  spool_config.budget_bytes =
      spill_budget == 0 ? std::numeric_limits<std::size_t>::max()
                        : static_cast<std::size_t>(spill_budget);
  spool_config.sort_on_seal = true;
  spool_config.faults = faults;
  spool_config.metrics = &metrics;
  SpoolBuffer spool(spool_config);

  const std::uint64_t conns_base = state.pool.opened();

  std::map<std::size_t, OwnerLink> links;
  for (std::uint64_t m = 0; m < num_map_tasks; ++m) {
    const OwnerRef& owner = owners[static_cast<std::size_t>(m)];
    if (owner.slot == options.ordinal || owner.slot == kNoOwner ||
        owner.path.empty()) {
      continue;
    }
    links
        .try_emplace(owner.slot, state.pool, owner.slot, owner.path, task,
                     num_partitions)
        .first->second.add_task(m);
  }
  for (auto& entry : links) entry.second.prime();

  const auto pull_slice = [&](std::uint64_t map_task) -> PullSlice {
    const OwnerRef& owner = owners[static_cast<std::size_t>(map_task)];
    PullSlice slice;
    if (owner.slot == options.ordinal) {
      std::lock_guard lock(state.outputs_mutex);
      const auto it = state.map_outputs.find(map_task);
      if (it == state.map_outputs.end()) {
        throw IoError("pull: map output " + std::to_string(map_task) +
                      " not resident on this worker");
      }
      slice.records =
          filter_partition(it->second, static_cast<std::size_t>(task),
                           static_cast<std::size_t>(num_partitions));
      slice.crc = records_crc(slice.records);
      return slice;
    }
    const auto link = links.find(owner.slot);
    if (link == links.end()) {
      throw OwnerUnreachable{"owner has no data-plane address"};
    }
    const Message reply = link->second.fetch(map_task);
    if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
    DASC_ENSURE(reply.type == MessageType::kFetchData,
                "ipc: unexpected reply to kFetchPart");
    WireReader data(reply.payload);
    DASC_ENSURE(data.u64() == map_task, "ipc: kFetchData map task mismatch");
    slice.crc = data.u32();
    const std::uint64_t count = data.u64();
    slice.records = read_records(data);
    DASC_ENSURE(slice.records.size() == count,
                "ipc: kFetchData record count mismatch");
    return slice;
  };

  // The in-process fetch loop's contract (fetch_one_verified): one
  // `shuffle.fetch` check per attempt, the same corruption realization,
  // the same attempt cap. An injected error skips the transfer, so the
  // next attempt consumes the reply already in flight; a failed
  // verification consumed it, so the retry re-requests.
  const auto pull_verified = [&](std::uint64_t map_task) {
    for (std::uint64_t attempt = 1;; ++attempt) {
      const FaultInjector::Outcome fault =
          faults != nullptr ? faults->check("shuffle.fetch")
                            : FaultInjector::Outcome::kNone;
      std::vector<Record> records;
      bool ok = fault != FaultInjector::Outcome::kError;
      if (ok) {
        PullSlice slice = pull_slice(map_task);
        records = std::move(slice.records);
        ok = (fault != FaultInjector::Outcome::kCorruption ||
              flip_one_byte(records)) &&
             records_crc(records) == slice.crc;
      }
      if (ok) return records;
      if (attempt >= max_fetch_attempts) {
        throw IoError("pull: fetch of map output " +
                      std::to_string(map_task) + " failed after " +
                      std::to_string(max_fetch_attempts) + " attempts");
      }
      metrics.counter("retry.shuffle_fetch").add();
      DASC_LOG(kWarn) << "worker " << options.ordinal
                      << ": re-pulling map output " << map_task
                      << " (attempt " << attempt
                      << " failed verification)";
    }
  };

  // Dead-owner recovery (state machine in DESIGN.md section 14): report
  // the dead owner, serve the supervisor's inline kMapAssign re-execution
  // of that map task, and resume with the output re-homed onto us. The
  // whole dance happens inside our own kReducePull conversation, so it
  // needs no second supervisor thread and works at any worker count.
  const auto recover_owner = [&](std::uint64_t map_task,
                                 const std::string& reason) {
    DASC_LOG(kWarn) << "worker " << options.ordinal << ": map output "
                    << map_task << " owner unreachable (" << reason
                    << "); asking the supervisor to re-home it";
    // Any idle pooled connection to the dead owner is garbage now — its
    // next incarnation listens on a fresh accept queue.
    state.pool.invalidate(owners[static_cast<std::size_t>(map_task)].slot);
    WireWriter failed;
    failed.u64(task);
    failed.u64(map_task);
    control.send({MessageType::kPullFailed, failed.take()});
    while (true) {
      std::optional<Message> frame = ipc::recv_message(control);
      if (!frame.has_value()) {
        throw IoError("pull: supervisor vanished during owner recovery");
      }
      switch (frame->type) {
        case MessageType::kMapAssign: {
          WireReader assign(frame->payload);
          const std::uint64_t assigned = assign.u64();
          control.send(run_map_task(job, state, metrics, assigned, assign));
          break;
        }
        case MessageType::kPullResume: {
          WireReader resume(frame->payload);
          DASC_ENSURE(resume.u64() == map_task,
                      "ipc: kPullResume map task mismatch");
          owners[static_cast<std::size_t>(map_task)] =
              OwnerRef{options.ordinal, std::string()};
          return;
        }
        default:
          throw IoError("pull: unexpected message type " +
                        std::to_string(
                            static_cast<std::uint32_t>(frame->type)) +
                        " during owner recovery");
      }
    }
  };

  for (std::uint64_t m = 0; m < num_map_tasks; ++m) {
    std::vector<Record> slice;
    // Two rounds suffice: a failed pull re-homes the output onto this
    // worker, and a local pull cannot lose its owner.
    for (std::size_t round = 0;; ++round) {
      try {
        slice = pull_verified(m);
        break;
      } catch (const OwnerUnreachable& unreachable) {
        if (round >= 1) {
          throw IoError("pull: map output " + std::to_string(m) +
                        " unreachable after re-homing: " +
                        unreachable.reason);
        }
        recover_owner(m, unreachable.reason);
      }
    }
    for (const auto& record : slice) {
      spool.append(record.key, record.value);
    }
  }
  spool.finish();
  shuffle_timer.stop();
  // Connection economics are scheduling-shaped (how many distinct owners a
  // reducer pulls from, pool reuse across its tasks), so they are summed
  // gauges; reused connections add nothing to the dial count.
  metrics.gauge("shuffle.conns_opened")
      .add(static_cast<std::int64_t>(state.pool.opened() - conns_base));
  metrics.gauge("shuffle.pulls")
      .add(static_cast<std::int64_t>(num_map_tasks));  // one slice per map
  const detail::ReduceTaskResult reduced =
      detail::execute_reduce_spooled(job.reducer_factory, spool);
  WireWriter report;
  report.u64(task);
  report.u64(reduced.num_groups);
  report.u64(reduced.in_records);
  report.u64(reduced.output.size());
  report.u64(spool.record_bytes());
  write_metrics(report, metrics);
  append_records(report, reduced.output);
  return {MessageType::kReducePullDone, report.take()};
}

}  // namespace

void serve_worker_loop(ipc::Transport& transport, const WorkerJob& job,
                       const WorkerOptions& options) {
  DASC_EXPECT(job.mapper_factory != nullptr, "worker: missing mapper");
  DASC_EXPECT(job.reducer_factory != nullptr, "worker: missing reducer");

  WorkerState state;
  MetricsRegistry local_metrics;  // the job passed no registry
  MetricsRegistry& metrics =
      options.metrics != nullptr ? *options.metrics : local_metrics;
  // Fires count where the task's work does, so they travel home with it.
  if (options.faults != nullptr) options.faults->set_metrics(&metrics);

  // Bind the data plane before serving the first assignment, so by the
  // time any reducer learns this worker's address (from a partition map
  // built after our first kMapDone) the listener is already accepting.
  // The accept loop blocks until a peer connects or the shutdown path
  // wakes the listener, so a stopping worker exits without delay.
  //
  // Each accepted peer gets its own serving thread: a reducer holds its
  // pooled connection open across many pulls, and a serve-one-peer-to-EOF
  // loop would park every other reducer behind it. The peer registry lets
  // shutdown wake threads blocked in recv via shutdown_rw (close() would
  // be unsafe cross-thread — the fd could be reused under the reader).
  std::unique_ptr<ipc::Listener> data_listener;
  std::thread data_server;
  std::mutex peers_mutex;
  std::vector<ipc::Transport*> live_peers;
  std::vector<std::thread> peer_threads;
  if (!options.data_socket_path.empty()) {
    data_listener = std::make_unique<ipc::Listener>(options.data_socket_path);
    data_server = std::thread([&] {
      while (true) {
        std::unique_ptr<ipc::Transport> peer;
        try {
          peer = data_listener->accept_until_woken();
        } catch (const std::exception& error) {
          DASC_LOG(kWarn) << "worker " << options.ordinal
                          << ": data-plane listener failed: "
                          << error.what();
          return;
        }
        if (peer == nullptr) return;  // the worker is stopping
        std::lock_guard lock(peers_mutex);
        live_peers.push_back(peer.get());
        peer_threads.emplace_back(
            [&state, &options, &peers_mutex, &live_peers,
             peer = std::move(peer)]() mutable {
              try {
                serve_data_peer(*peer, state);
              } catch (const std::exception& error) {
                // One misbehaving puller must not take the plane down; its
                // failed pull surfaces on the puller's side.
                DASC_LOG(kWarn) << "worker " << options.ordinal
                                << ": data-plane connection failed: "
                                << error.what();
              }
              std::lock_guard lock(peers_mutex);
              live_peers.erase(std::find(live_peers.begin(),
                                         live_peers.end(), peer.get()));
            });
      }
    });
  }

  // Heartbeats flow only while a task is executing: that is when the
  // supervisor is blocked in the exchange's recv loop draining them, so
  // unread frames stay bounded even between phases.
  std::atomic<bool> busy{false};
  std::atomic<bool> stop{false};
  std::thread heartbeat;
  if (options.heartbeat_ms > 0) {
    heartbeat = std::thread([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options.heartbeat_ms));
        if (!busy.load(std::memory_order_acquire)) continue;
        try {
          transport.send({MessageType::kHeartbeat, {}});
        } catch (const std::exception&) {
          return;  // supervisor gone; the serve loop will see EOF too
        }
      }
    });
  }

  const auto join_threads = [&] {
    stop.store(true, std::memory_order_release);
    if (data_listener != nullptr) data_listener->wake();
    if (heartbeat.joinable()) heartbeat.join();
    if (data_server.joinable()) data_server.join();
    // No new peer threads can spawn now; our own outbound pool closes
    // first so peer workers' serving threads see EOF too, then any thread
    // still blocked on an inbound recv is woken with a half-close.
    state.pool.clear();
    {
      std::lock_guard lock(peers_mutex);
      for (ipc::Transport* peer : live_peers) peer->shutdown_rw();
    }
    for (std::thread& thread : peer_threads) thread.join();
  };

  // Run one assigned task with heartbeats flowing and ship its reply; a
  // failure becomes the task's kTaskError and the loop keeps serving. The
  // registry starts each task at zero, so the snapshot a reply carries is
  // exactly that task's work.
  const auto run_task = [&](const Message& assignment, const char* where,
                            const auto& execute) {
    WireReader reader(assignment.payload);
    const std::uint64_t task = reader.u64();
    metrics.reset();
    busy.store(true, std::memory_order_release);
    try {
      ipc::send_message(transport, execute(task, reader));
    } catch (const std::exception& error) {
      WireWriter writer;
      writer.u64(task);
      writer.bytes(std::string(where) + ": " + error.what());
      transport.send({MessageType::kTaskError, writer.take()});
    }
    busy.store(false, std::memory_order_release);
  };

  try {
    bool serving = true;
    while (serving) {
      std::optional<Message> message = ipc::recv_message(transport);
      if (!message.has_value()) break;  // supervisor closed or died
      switch (message->type) {
        case MessageType::kMapAssign:
          run_task(*message, "map",
                   [&](std::uint64_t task, WireReader& reader) {
                     return run_map_task(job, state, metrics, task, reader);
                   });
          break;
        case MessageType::kReducePull:
          run_task(*message, "reduce_pull",
                   [&](std::uint64_t task, WireReader& reader) {
                     return run_reduce_pull(transport, job, options, state,
                                            metrics, task, reader);
                   });
          break;
        case MessageType::kTaskCancel: {
          // A retained attempt of ours lost the commit race (DESIGN.md
          // section 15): drop the losing map output so no reducer can pull
          // a side effect the job discarded, and sweep our spool files so
          // a cancelled reduce attempt leaks no disk.
          WireReader reader(message->payload);
          const std::uint64_t kind = reader.u64();  // 0 = map, 1 = reduce
          const std::uint64_t task = reader.u64();
          const std::string spill_dir(reader.bytes());
          std::uint64_t dropped = 0;
          if (kind == 0) {
            std::lock_guard lock(state.outputs_mutex);
            dropped = state.map_outputs.erase(task);
          }
          const std::uint64_t swept = static_cast<std::uint64_t>(
              ipc::sweep_spool_files(spill_dir,
                                     static_cast<long>(::getpid())));
          WireWriter writer;
          writer.u64(task);
          writer.u64(dropped);
          writer.u64(swept);
          transport.send({MessageType::kTaskCancelled, writer.take()});
          break;
        }
        case MessageType::kShutdown:
          serving = false;
          break;
        default:
          DASC_LOG(kWarn) << "worker " << options.ordinal
                          << ": ignoring unexpected message type "
                          << static_cast<std::uint32_t>(message->type);
          break;
      }
    }
  } catch (...) {
    join_threads();
    throw;
  }
  join_threads();
}

// ---------------------------------------------------------------------------
// Supervisor side
// ---------------------------------------------------------------------------

namespace {

/// Supervisor-side conversation driver over one worker's transport.
class WorkerExchange {
 public:
  WorkerExchange(ipc::WorkerSupervisor& supervisor, MetricsRegistry* metrics)
      : supervisor_(supervisor), metrics_(metrics) {
    interloper_ = [this](const Message& frame) {
      if (frame.type == MessageType::kHeartbeat) {
        note_heartbeat();
        return;
      }
      throw IoError("ipc: unexpected frame type " +
                    std::to_string(static_cast<std::uint32_t>(frame.type)) +
                    " during a streamed exchange");
    };
  }

  /// One request/response conversation with `slot`, serialized by the
  /// slot's exchange mutex. With `kill_after_send` the worker is
  /// SIGKILLed right after the request ships — the worker.kill fault
  /// lands genuinely mid-task. Heartbeats are drained (worker.heartbeats
  /// gauge); kTaskError is returned like any reply (the worker is alive).
  /// Transport failure or EOF marks the slot dead and throws IoError.
  Message call(std::size_t slot, const Message& request,
               bool kill_after_send = false) {
    return converse(slot, request, kill_after_send,
                    [](const Message&) { return true; });
  }

  /// call(), but every reply runs through `handle` first: returning true
  /// finishes the conversation with that reply; returning false means the
  /// handler consumed the frame mid-conversation (the worker-to-worker
  /// kPullFailed -> kMapAssign -> kPullResume recovery dance) and the
  /// exchange keeps listening. Handler exceptions propagate without
  /// marking the worker dead — a kTaskError from a live worker is a task
  /// failure, not a transport failure.
  Message converse(std::size_t slot, const Message& request,
                   bool kill_after_send,
                   const std::function<bool(const Message&)>& handle) {
    std::lock_guard lock(supervisor_.exchange_mutex(slot));
    return converse_locked(slot, request, kill_after_send, handle);
  }

  /// converse() for a handler already inside a conversation with `slot`,
  /// which holds the slot's exchange mutex: the kPullFailed recovery's
  /// nested kMapAssign round trip.
  Message converse_locked(std::size_t slot, const Message& request,
                          bool kill_after_send,
                          const std::function<bool(const Message&)>& handle) {
    send_locked(slot, request);
    if (kill_after_send) supervisor_.kill_worker(slot);
    while (true) {
      std::optional<Message> reply;
      try {
        reply = ipc::recv_message(supervisor_.transport(slot), {},
                                  interloper_);
      } catch (const IoError&) {
        supervisor_.mark_dead(slot);
        throw;
      }
      if (!reply.has_value()) {
        supervisor_.mark_dead(slot);
        throw IoError("ipc: worker " + std::to_string(slot) +
                      " died mid-task (connection closed)");
      }
      if (reply->type == MessageType::kHeartbeat) {
        note_heartbeat();
        continue;
      }
      if (handle(*reply)) {
#ifndef NDEBUG
        expect_drained(slot);
#endif
        return *std::move(reply);
      }
    }
  }

  /// Ship one message to `slot` inside a conversation the caller holds;
  /// a failed send marks the worker dead.
  void send_locked(std::size_t slot, const Message& message) {
    try {
      ipc::send_message(supervisor_.transport(slot), message, {},
                        interloper_);
    } catch (const std::exception&) {
      supervisor_.mark_dead(slot);
      throw IoError("ipc: worker " + std::to_string(slot) +
                    " unreachable (send failed)");
    }
  }

  /// First live slot scanning from placement[task] + shift (wrapping over
  /// every provisioned slot, spares included). Deterministic: the scan
  /// order depends only on the placement plan and which workers are dead.
  /// `avoid` excludes one slot from the scan — a speculative backup must
  /// land on a different worker than the straggling primary, otherwise it
  /// would queue behind the very serve loop it is meant to outrun.
  std::size_t pick_worker(std::size_t task,
                          const std::vector<std::size_t>& placement,
                          std::size_t shift,
                          std::size_t avoid = kNoOwner) const {
    const std::size_t total = supervisor_.provisioned();
    for (std::size_t i = 0; i < total; ++i) {
      const std::size_t slot = (placement[task] + shift + i) % total;
      if (slot == avoid) continue;
      if (supervisor_.alive(slot)) return slot;
    }
    throw IoError(avoid == kNoOwner
                      ? "ipc: no live workers remain"
                      : "ipc: no distinct live worker for a backup attempt");
  }

  void note_heartbeat() {
    if (metrics_ != nullptr) metrics_->gauge("worker.heartbeats").add(1);
  }

 private:
#ifndef NDEBUG
  /// A reply ends its conversation on the wire: anything but a heartbeat
  /// queued behind it (a stray kChunkAck, say) would be misread as the
  /// next conversation's reply. EOF is fine — the worker was killed after
  /// it replied.
  void expect_drained(std::size_t slot) {
    ipc::Transport& transport = supervisor_.transport(slot);
    pollfd pending{transport.fd(), POLLIN, 0};
    while (::poll(&pending, 1, 0) > 0) {
      std::optional<Message> frame;
      try {
        frame = transport.recv();
      } catch (const IoError&) {
        return;  // torn by a kill; the next conversation reports it
      }
      if (!frame.has_value()) return;
      DASC_ENSURE(frame->type == MessageType::kHeartbeat,
                  "ipc: worker left a frame on the wire after its reply");
      note_heartbeat();
    }
  }
#endif

  ipc::WorkerSupervisor& supervisor_;
  MetricsRegistry* metrics_ = nullptr;
  std::function<void(const Message&)> interloper_;
};

/// Which worker each attempt of one phase's tasks runs on. Retries shift
/// to the next live slot; a speculative backup runs concurrently with its
/// primary's retries, so the shifts are atomics. attempt_slot_ holds the
/// slot each task's latest primary attempt dispatched to — what a backup
/// must avoid — seeded from the placement plan so a backup launched while
/// the primary is still pre-dispatch (stalled in fault injection) avoids
/// the slot the primary is about to use.
class PhaseSlots {
 public:
  PhaseSlots(WorkerExchange& exchange,
             const std::vector<std::size_t>& placement)
      : exchange_(exchange), placement_(placement),
        shift_(std::make_unique<std::atomic<std::size_t>[]>(placement.size())),
        attempt_slot_(
            std::make_unique<std::atomic<std::size_t>[]>(placement.size())) {
    for (std::size_t t = 0; t < placement.size(); ++t) {
      shift_[t].store(0, std::memory_order_relaxed);
      attempt_slot_[t].store(placement[t], std::memory_order_relaxed);
    }
  }

  /// The slot for one attempt of `task`; a backup avoids the primary's.
  std::size_t pick(std::size_t task, bool backup) {
    const std::size_t shift = shift_[task].load(std::memory_order_acquire);
    if (backup) {
      return exchange_.pick_worker(
          task, placement_, shift,
          attempt_slot_[task].load(std::memory_order_acquire));
    }
    const std::size_t slot = exchange_.pick_worker(task, placement_, shift);
    attempt_slot_[task].store(slot, std::memory_order_release);
    return slot;
  }

  /// The attempt's worker failed; the next attempt tries another.
  void shift(std::size_t task) {
    shift_[task].fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  WorkerExchange& exchange_;
  const std::vector<std::size_t>& placement_;
  std::unique_ptr<std::atomic<std::size_t>[]> shift_;
  std::unique_ptr<std::atomic<std::size_t>[]> attempt_slot_;
};

}  // namespace

JobResult run_job_multiproc(const JobSpec& spec,
                            std::vector<std::vector<Record>> splits) {
  JobSpec mp = spec;
  const JobConf& conf = mp.conf;

  Stopwatch total_clock;
  JobResult result;
  result.num_map_tasks = splits.size();
  result.num_reduce_tasks = conf.num_reducers;
  result.map_task_seconds.assign(splits.size(), 0.0);
  result.map_task_workers =
      assign_tasks(splits.size(), conf.num_workers, conf.placement_seed);
  result.reduce_task_workers = assign_tasks(
      conf.num_reducers, conf.num_workers, conf.placement_seed + 1);

  const bool use_combiner =
      conf.enable_combiner && mp.combiner_factory != nullptr;

  // Every provisioned slot (spares included) gets a data-plane address up
  // front, supervisor-pid-namespaced so concurrent jobs sharing a
  // spill_dir cannot collide.
  std::vector<std::string> data_paths;
  const std::filesystem::path data_dir =
      conf.spill_dir.empty() ? std::filesystem::temp_directory_path()
                             : std::filesystem::path(conf.spill_dir);
  for (std::size_t slot = 0; slot < conf.num_workers + conf.worker_spares;
       ++slot) {
    data_paths.push_back((data_dir / ("dasc-data-" +
                                      std::to_string(::getpid()) + "-" +
                                      std::to_string(slot) + ".sock"))
                             .string());
  }

  // ---- Fork the workers (before any job threads exist: fork safety) ----
  ipc::WorkerLaunch launch;
  launch.num_workers = conf.num_workers;
  launch.num_spares = conf.worker_spares;
  launch.spill_dir = conf.spill_dir;
  launch.metrics = mp.metrics;
  WorkerJob job;
  job.mapper_factory = mp.mapper_factory;
  job.reducer_factory = mp.reducer_factory;
  job.combiner_factory = mp.combiner_factory;
  job.use_combiner = use_combiner;
  launch.worker_main = [job = std::move(job), faults = mp.faults,
                        metrics = mp.metrics,
                        heartbeat_ms = conf.heartbeat_interval_ms,
                        data_paths](ipc::Transport& transport,
                                    std::size_t slot) {
    // The child owns private copies of the supervisor's registry and
    // injector, and the job's mapper/reducer closures already point at
    // that registry copy, so user code reports into the task registry.
    WorkerOptions options;
    options.ordinal = slot;
    options.heartbeat_ms = heartbeat_ms;
    options.data_socket_path = data_paths[slot];
    options.faults = faults;
    options.metrics = metrics;
    serve_worker_loop(transport, job, options);
  };
  ipc::WorkerSupervisor supervisor(std::move(launch));
  WorkerExchange exchange(supervisor, mp.metrics);

  DASC_LOG(kInfo) << conf.job_name << ": " << splits.size() << " map tasks, "
                  << conf.num_reducers << " reduce tasks on "
                  << supervisor.primaries() << "+"
                  << (supervisor.provisioned() - supervisor.primaries())
                  << " worker processes";

  // A committed attempt's metrics snapshot joins the job's registry, its
  // fault fires the job's injector. A failed or losing attempt's snapshot
  // is dropped with the attempt, so its fires, retries and work vanish
  // together and the accounting stays consistent.
  const auto absorb = [&](MetricsSnapshot& snapshot) {
    if (mp.faults != nullptr) mp.faults->absorb_remote_fires(snapshot);
    if (mp.metrics != nullptr) mp.metrics->merge(snapshot);
  };

  std::atomic<std::uint64_t> failed_attempts{0};
  std::atomic<std::uint64_t> speculative_launches{0};

  /// Injected worker.kill: SIGKILL the assigned worker after this task's
  /// assignment ships (recovery = the attempt's transport error + retry).
  const auto kill_fires = [&]() {
    return mp.faults != nullptr &&
           mp.faults->check("worker.kill") !=
               FaultInjector::Outcome::kNone;
  };

  // ---- Map phase ----
  std::atomic<std::uint64_t> map_in{0};
  std::atomic<std::uint64_t> map_out{0};
  std::atomic<std::uint64_t> combine_in{0};
  std::atomic<std::uint64_t> combine_out{0};
  std::vector<std::size_t> map_owner(splits.size(), kNoOwner);
  // Guards map_owner once the reduce phase starts: under worker-to-worker
  // shuffle, concurrent reduce tasks read the owner table while a
  // kPullFailed recovery rewrites the re-homed entry. (The map phase needs
  // no locking: commit-once arbitration makes each task's committing
  // attempt the entry's only writer, and the phases are separated by the
  // pool join.)
  std::mutex owner_mutex;
  PhaseSlots map_slots(exchange, result.map_task_workers);
  PhaseSlots reduce_slots(exchange, result.reduce_task_workers);

  // ---- Commit arbitration cleanup (DESIGN.md section 15) ----
  // A losing attempt's abandon closure only *queues* the cancel: at the
  // moment the loser observes `committed`, the winner's commit closure may
  // not have published its owner slot yet, and a retried primary can have
  // migrated onto the very worker the backup used — cancelling there would
  // drop the winning output. Flushing after the phase joins (all commits
  // visible, no attempt in flight) makes the winner check race-free.
  struct CancelRequest {
    std::uint64_t kind;  ///< 0 = map, 1 = reduce
    std::size_t task;
    std::size_t slot;
  };
  std::mutex cancel_mutex;
  std::vector<CancelRequest> pending_cancels;
  const auto queue_cancel = [&](std::uint64_t kind, std::size_t task,
                                std::size_t slot) {
    std::lock_guard lock(cancel_mutex);
    pending_cancels.push_back({kind, task, slot});
  };
  const auto flush_cancels = [&] {
    std::vector<CancelRequest> cancels;
    {
      std::lock_guard lock(cancel_mutex);
      cancels.swap(pending_cancels);
    }
    for (const CancelRequest& cancel : cancels) {
      if (cancel.kind == 0) {
        std::lock_guard lock(owner_mutex);
        // The committed output landed on the loser's slot after all (the
        // primary retried onto it, or a recovery re-homed the task there):
        // the retained output *is* the winner's — leave it alone.
        if (map_owner[cancel.task] == cancel.slot) continue;
      }
      if (!supervisor.alive(cancel.slot)) continue;
      WireWriter writer;
      writer.u64(cancel.kind);
      writer.u64(static_cast<std::uint64_t>(cancel.task));
      writer.bytes(conf.spill_dir);
      try {
        const Message reply = exchange.call(
            cancel.slot, {MessageType::kTaskCancel, writer.take()});
        DASC_ENSURE(reply.type == MessageType::kTaskCancelled,
                    "ipc: unexpected reply to kTaskCancel");
        WireReader reader(reply.payload);
        DASC_ENSURE(reader.u64() == cancel.task,
                    "ipc: kTaskCancelled task mismatch");
        const std::uint64_t dropped = reader.u64();
        const std::uint64_t swept = reader.u64();
        if (mp.metrics != nullptr) {
          mp.metrics->gauge("worker.task_cancels").add(1);
          if (dropped > 0) {
            mp.metrics->gauge("worker.outputs_cancelled")
                .add(static_cast<std::int64_t>(dropped));
          }
          if (swept > 0) {
            mp.metrics->gauge("worker.spool_files_swept")
                .add(static_cast<std::int64_t>(swept));
          }
        }
      } catch (const IoError&) {
        // Best effort: a loser slot that died since takes its retained
        // state with it.
      }
    }
  };

  detail::run_task_phase(
      mp, splits.size(), "map.task", "retry.map_attempts", failed_attempts,
      speculative_launches, result.map_task_seconds,
      [&](std::size_t task, bool backup) -> detail::TaskAttempt {
        const std::size_t slot = map_slots.pick(task, backup);
        WireWriter writer;
        writer.u64(task);
        append_records(writer, splits[task]);
        Message reply;
        try {
          reply = exchange.call(slot, {MessageType::kMapAssign, writer.take()},
                                kill_fires());
        } catch (const IoError&) {
          map_slots.shift(task);
          throw;
        }
        if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
        DASC_ENSURE(reply.type == MessageType::kMapDone,
                    "ipc: unexpected reply to kMapAssign");
        WireReader reader(reply.payload);
        DASC_ENSURE(reader.u64() == task, "ipc: kMapDone task mismatch");
        const std::uint64_t emitted = reader.u64();
        const std::uint64_t combined = reader.u64();
        reader.u64();  // output count
        return {[&, task, slot, emitted, combined,
                 snapshot = read_metrics(reader)]() mutable {
                  map_in.fetch_add(splits[task].size(),
                                   std::memory_order_relaxed);
                  map_out.fetch_add(emitted, std::memory_order_relaxed);
                  if (use_combiner) {
                    combine_in.fetch_add(emitted, std::memory_order_relaxed);
                    combine_out.fetch_add(combined,
                                          std::memory_order_relaxed);
                  }
                  absorb(snapshot);
                  map_owner[task] = slot;
                },
                [&queue_cancel, task, slot] {
                  queue_cancel(/*kind=*/0, task, slot);
                }};
      });
  // Losing map attempts' retained outputs are dropped before any reducer
  // can see a partition map.
  flush_cancels();

  result.counters.map_input_records = map_in.load();
  result.counters.map_output_records = map_out.load();
  result.counters.combine_input_records = combine_in.load();
  result.counters.combine_output_records = combine_out.load();

  // ---- Reduce phase ----
  result.reduce_task_seconds.assign(conf.num_reducers, 0.0);
  std::vector<std::vector<Record>> reduce_outputs(conf.num_reducers);
  std::atomic<std::uint64_t> reduce_groups{0};
  std::atomic<std::uint64_t> reduce_in{0};
  std::atomic<std::uint64_t> reduce_out{0};
  std::atomic<std::uint64_t> pulled_shuffle_bytes{0};

  // Worker-to-worker recovery (DESIGN.md section 14): a reducer reported
  // a dead map-output owner mid-pull. Retire the owner for real (it is
  // unreachable from the data plane even if its control socket lingers),
  // re-execute the map task inline on the reporting reducer over its own
  // conversation — no second exchange, so this cannot deadlock even at
  // one worker — and hand the pull back with the output re-homed.
  const auto handle_pull_failed = [&](std::size_t reducer_slot,
                                      const Message& frame) {
    WireReader reader(frame.payload);
    const std::uint64_t reduce_task = reader.u64();
    const std::uint64_t map_task = reader.u64();
    DASC_ENSURE(map_task < splits.size(),
                "ipc: kPullFailed map task out of range");
    std::size_t owner = kNoOwner;
    {
      std::lock_guard lock(owner_mutex);
      owner = map_owner[map_task];
    }
    if (owner != kNoOwner && owner != reducer_slot) {
      supervisor.kill_worker(owner);
    }
    DASC_LOG(kWarn) << conf.job_name << ": re-executing map task "
                    << map_task << " on reducer worker " << reducer_slot
                    << " (owner unreachable during pull for reduce task "
                    << reduce_task << ")";
    if (mp.metrics != nullptr) {
      mp.metrics->gauge("worker.map_reexecutions").add(1);
    }
    WireWriter writer;
    writer.u64(map_task);
    append_records(writer, splits[map_task]);
    // The worker reports the re-execution's failure as the reduce task's
    // one kTaskError; the attempt fails and retries cleanly.
    const Message done = exchange.converse_locked(
        reducer_slot, {MessageType::kMapAssign, writer.take()},
        /*kill_after_send=*/false, [](const Message&) { return true; });
    if (done.type == MessageType::kTaskError) rethrow_task_error(done);
    DASC_ENSURE(done.type == MessageType::kMapDone,
                "ipc: unexpected reply to kMapAssign (pull recovery)");
    // The re-execution ran inside the reduce task, so its metrics ride in
    // the reduce task's report; this reply's snapshot is not merged.
    WireReader done_reader(done.payload);
    DASC_ENSURE(done_reader.u64() == map_task,
                "ipc: kMapDone task mismatch (pull recovery)");
    {
      std::lock_guard lock(owner_mutex);
      map_owner[map_task] = reducer_slot;
    }
    WireWriter resume;
    resume.u64(map_task);
    exchange.send_locked(reducer_slot,
                         {MessageType::kPullResume, resume.take()});
  };

  // Ship the partition map, let the reducer pull and spool its own
  // partition, then absorb its report.
  const detail::TaskBody reduce_pull_body =
      [&](std::size_t task, bool backup) -> detail::TaskAttempt {
    const std::size_t slot = reduce_slots.pick(task, backup);
    WireWriter writer;
    writer.u64(task);
    writer.u64(conf.num_reducers);
    writer.u64(splits.size());
    writer.u64(conf.spill_budget_bytes);
    writer.bytes(conf.spill_dir);
    writer.u64(conf.max_fetch_attempts);
    {
      std::lock_guard lock(owner_mutex);
      for (std::size_t m = 0; m < splits.size(); ++m) {
        const std::size_t owner = map_owner[m];
        writer.u64(static_cast<std::uint64_t>(owner));
        writer.bytes(owner != kNoOwner ? data_paths[owner] : std::string());
      }
    }
    Message reply;
    try {
      reply = exchange.converse(
          slot, {MessageType::kReducePull, writer.take()}, kill_fires(),
          [&](const Message& frame) {
            if (frame.type == MessageType::kPullFailed) {
              handle_pull_failed(slot, frame);
              return false;  // keep the conversation open
            }
            return true;
          });
    } catch (const IoError&) {
      reduce_slots.shift(task);
      throw;
    }
    if (reply.type == MessageType::kTaskError) rethrow_task_error(reply);
    DASC_ENSURE(reply.type == MessageType::kReducePullDone,
                "ipc: unexpected reply to kReducePull");
    WireReader reader(reply.payload);
    DASC_ENSURE(reader.u64() == task, "ipc: kReducePullDone task mismatch");
    const std::uint64_t num_groups = reader.u64();
    const std::uint64_t in_records = reader.u64();
    const std::uint64_t out_count = reader.u64();
    const std::uint64_t record_bytes = reader.u64();
    MetricsSnapshot snapshot = read_metrics(reader);
    std::vector<Record> out = read_records(reader);
    DASC_ENSURE(out.size() == out_count,
                "ipc: kReducePullDone record count mismatch");
    return {[&, task, num_groups, in_records, record_bytes,
             snapshot = std::move(snapshot),
             out = std::move(out)]() mutable {
      reduce_groups.fetch_add(num_groups, std::memory_order_relaxed);
      reduce_in.fetch_add(in_records, std::memory_order_relaxed);
      reduce_out.fetch_add(out.size(), std::memory_order_relaxed);
      pulled_shuffle_bytes.fetch_add(record_bytes,
                                     std::memory_order_relaxed);
      reduce_outputs[task] = std::move(out);
      absorb(snapshot);
    },
            [&queue_cancel, task, slot] {
              queue_cancel(/*kind=*/1, task, slot);
            }};
  };

  detail::run_task_phase(mp, conf.num_reducers, "reduce.task",
                         "retry.reduce_attempts", failed_attempts,
                         speculative_launches, result.reduce_task_seconds,
                         reduce_pull_body);
  // Losing reduce attempts have no retained output (their reports were
  // discarded with the attempt), but their spool files still get swept.
  flush_cancels();

  // The reducers moved the shuffle bytes; the supervisor only tallies
  // them. Same key+value+2 convention as the in-process shuffle, so the
  // counter is execution-mode- and worker-count-invariant.
  result.counters.shuffle_bytes = pulled_shuffle_bytes.load();

  result.counters.reduce_input_groups = reduce_groups.load();
  result.counters.reduce_input_records = reduce_in.load();
  result.counters.reduce_output_records = reduce_out.load();
  result.counters.failed_task_attempts = failed_attempts.load();

  for (auto& part : reduce_outputs) {
    result.output.insert(result.output.end(),
                         std::make_move_iterator(part.begin()),
                         std::make_move_iterator(part.end()));
  }

  supervisor.shutdown();
  // Workers unlink their data sockets with their Listeners, but a
  // SIGKILLed worker cannot; sweep the paths so shared spill_dirs stay
  // clean.
  for (const auto& path : data_paths) ::unlink(path.c_str());

  result.real_seconds = total_clock.seconds();
  detail::finalize_job_result(mp, speculative_launches.load(), result);
  return result;
}

}  // namespace dasc::mapreduce
