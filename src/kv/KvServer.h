//===- kv/KvServer.h - Networked KV front end ------------------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KV service front end: a loopback TCP server speaking the
/// kv/KvProtocol.h line protocol over a KvStore, served by a fixed set of
/// worker threads that each own their connections outright.
///
/// Threading model:
///
///  - Worker threads, at most one per shard and capped at the machine's
///    core count (KvServerConfig::Workers overrides). Each worker owns
///    its slice of the network: its own epoll loop, its own connections,
///    its own buffers. Worker 0 additionally owns the listening socket
///    and hands accepted fds to workers round-robin -- the handoff at
///    accept time is the only moment a connection ever crosses threads.
///    The cap matters on small machines: more workers than cores just
///    converts group-commit batching into context switches.
///
///  - A worker executes all of its connections' requests, on whichever
///    shards they touch. Workers share shards through per-worker
///    transaction contexts: worker W uses Tid W on every shard (hence the
///    store must be built with ThreadsPerShard >= the worker count), and
///    concurrent workers on one shard are ordered by the HTM, as any
///    Crafty threads are. No data request crosses a thread: no dispatch
///    queue, no completion queue, no wakeup syscalls on the request path.
///
///  - Group commit per worker, at the transaction level too: requests
///    are not executed as they parse. Each one *stages* its operations
///    onto the per-cycle list of the shard each key routes to (a
///    multi-key MGET/MSET stages one operation per key), and the cycle's
///    commit point runs one chunked transaction batch per shard
///    (KvShard::runCycle) -- the whole cycle costs a handful of
///    transactions instead of one per request. Then ONE persist barrier
///    per touched shard runs in two phases (begin all, then end all), so
///    the shards' fixed drain latencies overlap instead of serializing,
///    and only then are the cycle's responses released (writes are never
///    acknowledged before they are durable).
///
///  - Ordering is per-connection and exact: one worker executes every
///    request of a connection. Staged operations run in arrival order
///    within each shard, so a pipelined GET always sees the pipelined
///    SET or MSET of its key before it. The worker appends one response
///    slot per request to the connection's pending deque in parse order
///    and transmits ready slots strictly from the front (batched with
///    writev).
///
///  - STATS is the only cross-worker request: it is posted to every
///    worker, each of which reports counters only it writes (its request
///    timing breakdown, its per-shard op counts, its transaction
///    contexts' HTM statistics), so the document is assembled without
///    cross-thread reads of hot state. Its slot holds the line until the
///    last contribution arrives.
///
/// Shutdown is graceful: stop() wakes every worker; each drains its
/// inbox until no STATS request is in flight anywhere, flushes every
/// connection's pending output, then exits.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_KV_KVSERVER_H
#define CRAFTY_KV_KVSERVER_H

#include "kv/KvProtocol.h"
#include "kv/KvStore.h"
#include "support/Mutex.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

namespace crafty {
namespace kv {

struct KvServerConfig {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t Port = 0;
  int ListenBacklog = 128;
  /// Read-buffer bytes above which a connection is dropped as abusive.
  size_t MaxBufferedBytes = 4 << 20;
  /// Worker threads; 0 means autoWorkerCount(). More workers than shards
  /// never helps and is clamped down. Any count serves every shard (tests
  /// set it explicitly to run several workers on the same shards
  /// regardless of the machine).
  unsigned Workers = 0;
};

class KvServer {
public:
  /// The worker count a zero KvServerConfig::Workers resolves to:
  /// min(\p Shards, hardware cores). Exposed so load generators can size
  /// the store's ThreadsPerShard to match.
  static unsigned autoWorkerCount(unsigned Shards);

  /// \p Store must be built with ThreadsPerShard >= the worker count
  /// (each worker uses its own Tid on every shard) and outlive the
  /// server.
  KvServer(KvStore &Store, const KvServerConfig &Cfg);
  ~KvServer();
  KvServer(const KvServer &) = delete;
  KvServer &operator=(const KvServer &) = delete;

  /// Binds, listens and launches the worker threads.
  void start();
  /// Graceful shutdown: stop accepting, drain in-flight STATS requests,
  /// flush and close every connection, join all threads. Idempotent.
  void stop();

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }

private:
  /// Counters a worker updates as it serves requests. Written only by
  /// the owning worker; other threads see them only through a STATS
  /// request, where the owner itself copies them out.
  struct WorkerStats {
    uint64_t Requests = 0;     ///< Requests whose response this worker built.
    uint64_t QueueWaitNs = 0;  ///< Arrival to execution start.
    uint64_t ExecuteNs = 0;    ///< Inside store transactions.
    uint64_t CommitWaitNs = 0; ///< Execution end to response release.
    uint64_t Barriers = 0;     ///< persistAck calls issued.
    uint64_t BarrierNs = 0;    ///< Time inside persistAck.
    uint64_t ConnsAccepted = 0;
    std::vector<uint64_t> OpsPerShard; ///< Executions against each shard.
  };

  /// One STATS request in flight: every worker deposits its contribution
  /// at its own index, the last decrement routes the document back.
  struct StatsRequest {
    unsigned OwnerWorker = 0;
    uint64_t ConnId = 0;
    uint64_t SlotSeq = 0;
    std::vector<WorkerStats> PerWorker;
    /// [Worker][Shard] HTM statistics of that worker's context.
    std::vector<std::vector<HtmStats>> Htm;
    std::atomic<unsigned> Remaining{0};
  };

  /// One queued response: slots join a connection's Pending deque in
  /// request order and leave from the front once Ready. A Staged slot
  /// owns its request's payload bytes and result destinations; the
  /// staged per-shard KvCycleOps point into them until the cycle's
  /// commit point executes the batch and renders the response.
  struct Slot {
    enum State : uint8_t {
      Staged,       ///< Ops staged; executed + released at the commit point.
      WaitingStats, ///< Awaiting every worker's STATS contribution.
      Ready         ///< Transmittable.
    };
    State St = Staged;
    bool CloseAfter = false; ///< QUIT / protocol error: close once sent.
    KvOp Op = KvOp::Ping;    ///< Renders a Staged slot's response.
    uint64_t SlotSeq = 0;
    uint64_t ArrivalNs = 0; ///< For queue-wait accounting.
    uint64_t ExecEndNs = 0; ///< For commit-wait accounting (0 = not run).
    std::string Resp;
    std::string Val;    ///< SET value / CAS desired (staged view target).
    std::string Expect; ///< CAS expected value.
    std::vector<std::pair<uint64_t, std::string>> Pairs; ///< MSET payload.
    std::vector<KvResult> Results;  ///< GET/MGET destinations.
    std::vector<KvStatus> Statuses; ///< SET/DEL/CAS/MSET destinations.
    std::shared_ptr<StatsRequest> Stats;
  };

  struct Conn {
    int Fd = -1;
    uint64_t Id = 0;
    std::string In;     ///< Unparsed request bytes.
    std::string OutBuf; ///< Partially transmitted bytes (writev carry).
    std::deque<Slot> Pending;
    uint64_t NextSlotSeq = 0;
    bool Draining = false;  ///< Stop parsing (fatal protocol error seen).
    bool WantWrite = false; ///< EPOLLOUT currently armed.
  };

  /// Cross-worker message. NewConn carries a just-accepted fd; StatsPiece
  /// asks a worker for its STATS contribution and StatsDone hands the
  /// completed request back to the worker owning its connection.
  struct InboxMsg {
    enum Kind : uint8_t { NewConn, StatsPiece, StatsDone };
    Kind K = Kind::NewConn;
    int Fd = -1;
    std::shared_ptr<StatsRequest> Stats;
  };

  struct Worker {
    unsigned Idx = 0;
    int EpollFd = -1;
    int WakeFd = -1;
    Mutex InboxMu;
    std::vector<InboxMsg> Inbox CRAFTY_GUARDED_BY(InboxMu);
    /// Connections owned by this worker, keyed by worker-local id (the
    /// epoll payload; ids are never reused, unlike fds).
    std::map<uint64_t, std::unique_ptr<Conn>> Conns;
    uint64_t NextConnId = 0;
    /// Shards written during the current cycle (group-commit set).
    std::vector<uint8_t> Touched;
    /// Per-shard operations staged during the current cycle, executed as
    /// one chunked transaction batch per shard at the commit point -- the
    /// cycle costs a handful of transactions instead of one per request.
    std::vector<std::vector<KvCycleOp>> StagedOps;
    /// Connections whose Pending deque changed this cycle.
    std::vector<uint64_t> DirtyConns;
    /// Connections closed mid-cycle: staged operations hold pointers
    /// into their slots, so destruction waits for the commit point.
    std::vector<std::unique_ptr<Conn>> Doomed;
    WorkerStats S;
    std::thread Thread;
  };

  void workerLoop(unsigned W);
  void acceptReady(Worker &Wk);
  void adoptConn(Worker &Wk, int Fd);
  void readReady(Worker &Wk, Conn &C);
  /// Appends the request's response slot and stages its operations on
  /// the shards its keys route to.
  void dispatchRequest(Worker &Wk, Conn &C, KvRequest &&Req,
                       uint64_t NowNs);
  /// Executes every staged per-shard batch (one runCycle per shard),
  /// marks the shards that took writes and stamps the covered slots'
  /// timing. Called once per cycle, at the commit point.
  void executeStaged(Worker &Wk);
  /// Renders a Staged slot's response from its executed destinations.
  void renderSlotResponse(Slot &S);
  void startStats(Worker &Wk, Conn &C, Slot &S);
  void fillStatsContribution(Worker &Wk,
                             const std::shared_ptr<StatsRequest> &St);
  void finishStats(Worker &Wk, const std::shared_ptr<StatsRequest> &St);
  std::string formatStatsJson(const StatsRequest &St);
  void processInbox(Worker &Wk);
  void commitCycle(Worker &Wk);
  void flushConn(Worker &Wk, Conn &C);
  void markDirty(Worker &Wk, Conn &C);
  void updateWriteInterest(Worker &Wk, Conn &C);
  void closeConn(Worker &Wk, Conn &C);
  void postMsg(unsigned W, InboxMsg &&Msg);
  Slot &appendSlot(Worker &Wk, Conn &C);

  KvStore &Store;
  KvServerConfig Cfg;
  unsigned NumWorkers = 0;
  uint16_t BoundPort = 0;

  int ListenFd = -1;
  /// Round-robin accept cursor (worker 0 only).
  unsigned NextAcceptWorker = 0;

  std::atomic<bool> Stopping{false};
  std::atomic<bool> Started{false};
  std::atomic<uint64_t> Served{0};
  /// STATS requests not yet completed (the only cross-worker requests);
  /// workers may not exit while any remain.
  std::atomic<uint64_t> CrossInFlight{0};

  std::vector<std::unique_ptr<Worker>> Workers;
};

} // namespace kv
} // namespace crafty

#endif // CRAFTY_KV_KVSERVER_H
