//===- kv/KvServer.cpp - Networked KV front end --------------------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "kv/KvServer.h"

#include "core/Crafty.h"
#include "support/Clock.h"
#include "support/Compiler.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

using namespace crafty;
using namespace crafty::kv;

namespace {

/// epoll payload tags below FirstConnId address the worker's own fds.
constexpr uint64_t WakeTag = 0;
constexpr uint64_t ListenTag = 1;
constexpr uint64_t FirstConnId = 2;

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

void appendJsonU64(std::string &Out, const char *Key, uint64_t V,
                   bool Comma = true) {
  Out += '"';
  Out += Key;
  Out += "\":";
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", (unsigned long long)V);
  Out += Buf;
  if (Comma)
    Out += ',';
}

} // namespace

unsigned KvServer::autoWorkerCount(unsigned Shards) {
  unsigned Cores = std::thread::hardware_concurrency();
  if (Cores == 0)
    Cores = 1;
  return std::min(Shards, Cores);
}

KvServer::KvServer(KvStore &Store, const KvServerConfig &Cfg)
    : Store(Store), Cfg(Cfg),
      NumWorkers(Cfg.Workers ? std::min(Cfg.Workers, Store.numShards())
                             : autoWorkerCount(Store.numShards())) {
  if (Store.config().ThreadsPerShard < NumWorkers)
    fatalError("KvServer: the store needs ThreadsPerShard >= the worker "
               "count so each worker owns a Tid on every shard");
}

KvServer::~KvServer() { stop(); }

void KvServer::start() {
  if (Started.exchange(true))
    return;

  ListenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    fatalError("KvServer: socket() failed");
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Cfg.Port);
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0)
    fatalError("KvServer: bind() failed");
  socklen_t AddrLen = sizeof(Addr);
  ::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &AddrLen);
  BoundPort = ntohs(Addr.sin_port);
  if (::listen(ListenFd, Cfg.ListenBacklog) < 0)
    fatalError("KvServer: listen() failed");
  setNonBlocking(ListenFd);

  // Populate Workers fully before spawning any thread: workerLoop and
  // postMsg index the vector, and a later push_back would reallocate it
  // under a running worker.
  for (unsigned W = 0; W != NumWorkers; ++W) {
    auto Wk = std::make_unique<Worker>();
    Wk->Idx = W;
    Wk->EpollFd = ::epoll_create1(EPOLL_CLOEXEC);
    Wk->WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (Wk->EpollFd < 0 || Wk->WakeFd < 0)
      fatalError("KvServer: epoll/eventfd setup failed");
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.u64 = WakeTag;
    ::epoll_ctl(Wk->EpollFd, EPOLL_CTL_ADD, Wk->WakeFd, &Ev);
    Wk->NextConnId = FirstConnId;
    Wk->Touched.assign(Store.numShards(), 0);
    Wk->StagedOps.assign(Store.numShards(), {});
    Wk->S.OpsPerShard.assign(Store.numShards(), 0);
    Workers.push_back(std::move(Wk));
  }
  // Worker 0 owns the listener; accepted fds are handed round-robin.
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.u64 = ListenTag;
  ::epoll_ctl(Workers[0]->EpollFd, EPOLL_CTL_ADD, ListenFd, &Ev);

  for (unsigned W = 0; W != NumWorkers; ++W)
    Workers[W]->Thread = std::thread([this, W] { workerLoop(W); });
}

void KvServer::stop() {
  if (!Started.load() || Stopping.exchange(true))
    return;
  for (auto &Wk : Workers) {
    uint64_t One = 1;
    (void)!::write(Wk->WakeFd, &One, sizeof(One));
  }
  for (auto &Wk : Workers)
    if (Wk->Thread.joinable())
      Wk->Thread.join();
  for (auto &Wk : Workers) {
    if (Wk->EpollFd >= 0)
      ::close(Wk->EpollFd);
    if (Wk->WakeFd >= 0)
      ::close(Wk->WakeFd);
    Wk->EpollFd = Wk->WakeFd = -1;
  }
  if (ListenFd >= 0)
    ::close(ListenFd);
  ListenFd = -1;
}

//===----------------------------------------------------------------------===//
// Worker event loop
//===----------------------------------------------------------------------===//

void KvServer::workerLoop(unsigned W) {
  Worker &Wk = *Workers[W];
  std::vector<epoll_event> Events(128);
  bool ListenerArmed = (W == 0);
  while (true) {
    bool Stop = Stopping.load(std::memory_order_acquire);
    if (Stop && ListenerArmed) {
      ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_DEL, ListenFd, nullptr);
      ListenerArmed = false;
    }
    int N = ::epoll_wait(Wk.EpollFd, Events.data(), (int)Events.size(),
                         Stop ? 5 : -1);
    if (N < 0 && errno != EINTR)
      break;
    for (int I = 0; I < N; ++I) {
      uint64_t Tag = Events[I].data.u64;
      uint32_t Mask = Events[I].events;
      if (Tag == WakeTag) {
        uint64_t Junk;
        while (::read(Wk.WakeFd, &Junk, sizeof(Junk)) > 0)
          ;
        continue;
      }
      if (Tag == ListenTag) {
        if (!Stop)
          acceptReady(Wk);
        continue;
      }
      auto It = Wk.Conns.find(Tag);
      if (It == Wk.Conns.end())
        continue;
      if (Mask & (EPOLLHUP | EPOLLERR)) {
        closeConn(Wk, *It->second);
        continue;
      }
      if ((Mask & EPOLLIN) && !Stop) {
        readReady(Wk, *It->second);
        It = Wk.Conns.find(Tag); // readReady may close the connection.
        if (It == Wk.Conns.end())
          continue;
      }
      if (Mask & EPOLLOUT)
        flushConn(Wk, *It->second);
    }
    processInbox(Wk);
    commitCycle(Wk);
    if (Stop) {
      // Exit only once no cross-worker work can still land in the inbox:
      // STATS pieces and their completions are all counted.
      MutexLock Lk(Wk.InboxMu);
      if (Wk.Inbox.empty() &&
          CrossInFlight.load(std::memory_order_acquire) == 0)
        break;
    }
  }
  // Final flush: every releasable response was marked Ready by the last
  // commitCycle; push the bytes out (bounded) and close. flushConn can
  // closeConn (QUIT slots), which erases the entry -- advance first.
  for (auto It = Wk.Conns.begin(); It != Wk.Conns.end();) {
    Conn &C = *It->second;
    ++It;
    for (int Spin = 0; Spin != 100; ++Spin) {
      flushConn(Wk, C);
      if (C.Fd < 0 || (C.OutBuf.empty() &&
                       (C.Pending.empty() ||
                        C.Pending.front().St != Slot::Ready)))
        break;
      pollfd P{C.Fd, POLLOUT, 0};
      ::poll(&P, 1, 50);
    }
    if (C.Fd >= 0) {
      ::close(C.Fd);
      C.Fd = -1;
    }
  }
  Wk.Conns.clear();
  Wk.Doomed.clear();
}

void KvServer::acceptReady(Worker &Wk) {
  while (true) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0)
      return;
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    unsigned Target = NextAcceptWorker;
    NextAcceptWorker = (NextAcceptWorker + 1) % NumWorkers;
    if (Target == Wk.Idx) {
      adoptConn(Wk, Fd);
    } else {
      InboxMsg Msg;
      Msg.K = InboxMsg::NewConn;
      Msg.Fd = Fd;
      postMsg(Target, std::move(Msg));
    }
  }
}

void KvServer::adoptConn(Worker &Wk, int Fd) {
  auto C = std::make_unique<Conn>();
  C->Fd = Fd;
  C->Id = Wk.NextConnId++;
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.u64 = C->Id;
  ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_ADD, Fd, &Ev);
  ++Wk.S.ConnsAccepted;
  Wk.Conns.emplace(C->Id, std::move(C));
}

void KvServer::closeConn(Worker &Wk, Conn &C) {
  ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_DEL, C.Fd, nullptr);
  ::close(C.Fd);
  C.Fd = -1;
  // An outstanding STATS request keeps its StatsRequest alive via
  // shared_ptr; its completion will find no connection and drop.
  // The Conn object itself must outlive the cycle: staged operations may
  // hold destinations inside its slots, so it moves to the graveyard and
  // dies at the commit point.
  auto It = Wk.Conns.find(C.Id);
  if (It != Wk.Conns.end()) {
    Wk.Doomed.push_back(std::move(It->second));
    Wk.Conns.erase(It);
  }
}

void KvServer::markDirty(Worker &Wk, Conn &C) {
  if (std::find(Wk.DirtyConns.begin(), Wk.DirtyConns.end(), C.Id) ==
      Wk.DirtyConns.end())
    Wk.DirtyConns.push_back(C.Id);
}

KvServer::Slot &KvServer::appendSlot(Worker &Wk, Conn &C) {
  C.Pending.emplace_back();
  Slot &S = C.Pending.back();
  S.SlotSeq = C.NextSlotSeq++;
  markDirty(Wk, C);
  return S;
}

//===----------------------------------------------------------------------===//
// Request path (single worker, no handoffs)
//===----------------------------------------------------------------------===//

void KvServer::readReady(Worker &Wk, Conn &C) {
  char Buf[16384];
  while (true) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      C.In.append(Buf, (size_t)N);
      if (C.In.size() > Cfg.MaxBufferedBytes)
        return closeConn(Wk, C);
      continue;
    }
    if (N == 0)
      return closeConn(Wk, C);
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    if (errno == EINTR)
      continue;
    return closeConn(Wk, C);
  }
  if (C.Draining) {
    C.In.clear();
    return;
  }
  uint64_t ArrivalNs = monotonicNanos();
  size_t Off = 0;
  while (Off < C.In.size()) {
    KvRequest Req;
    ParseResult R =
        parseRequest(std::string_view(C.In).substr(Off), Req);
    if (R.St == ParseResult::NeedMore)
      break;
    if (R.St == ParseResult::Malformed) {
      Slot &S = appendSlot(Wk, C);
      appendProtocolError(S.Resp);
      S.St = Slot::Ready;
      S.CloseAfter = true;
      C.Draining = true;
      C.In.clear();
      return;
    }
    Off += R.Consumed;
    dispatchRequest(Wk, C, std::move(Req), ArrivalNs);
  }
  C.In.erase(0, Off);
}

void KvServer::dispatchRequest(Worker &Wk, Conn &C, KvRequest &&Req,
                               uint64_t NowNs) {
  Slot &S = appendSlot(Wk, C);
  ++Wk.S.Requests;
  S.Op = Req.Op;
  S.ArrivalNs = NowNs;
  // A data request stages one operation per key on the shard the key
  // routes to -- any shard, since workers share shards through their
  // own Tids; the commit point executes it inside the shard's cycle
  // batch. The slot owns the payload the views target and the result
  // destinations. Per-shard lists keep arrival order, so every operation
  // observes the connection's earlier ones.
  auto Stage = [&](const KvCycleOp &Op) {
    unsigned Shard = Store.shardOf(Op.Key);
    Wk.StagedOps[Shard].push_back(Op);
    ++Wk.S.OpsPerShard[Shard];
  };
  switch (Req.Op) {
  case KvOp::Stats:
    startStats(Wk, C, S); // Counted as served once every worker reports.
    return;
  case KvOp::Ping:
    appendPong(S.Resp);
    S.St = Slot::Ready;
    break;
  case KvOp::Quit:
    appendStatus(S.Resp, KvStatus::Ok);
    S.St = Slot::Ready;
    S.CloseAfter = true;
    break;
  case KvOp::Get:
  case KvOp::Set:
  case KvOp::Del:
  case KvOp::Cas: {
    if (Req.ValTooLarge) {
      // The parser skimmed an oversize payload: answer `ERR toobig`
      // immediately without staging anything. The connection stays
      // healthy -- the request framed cleanly, it was just too big.
      appendStatus(S.Resp, KvStatus::TooBig);
      S.St = Slot::Ready;
      break;
    }
    S.Val = std::move(Req.Val);
    S.Expect = std::move(Req.Expect);
    KvCycleOp Op;
    Op.Key = Req.Key;
    if (Req.Op == KvOp::Get) {
      Op.K = KvCycleOp::Get;
      S.Results.resize(1);
      Op.Result = &S.Results[0];
    } else {
      Op.K = Req.Op == KvOp::Set   ? KvCycleOp::Set
             : Req.Op == KvOp::Del ? KvCycleOp::Del
                                   : KvCycleOp::Cas;
      Op.Val = S.Val;
      Op.Expect = S.Expect;
      S.Statuses.assign(1, KvStatus::Err);
      Op.Status = &S.Statuses[0];
    }
    Stage(Op);
    break;
  }
  case KvOp::Mget:
    S.Results.resize(Req.Keys.size());
    for (size_t I = 0; I != Req.Keys.size(); ++I) {
      KvCycleOp Op;
      Op.K = KvCycleOp::Get;
      Op.Key = Req.Keys[I];
      Op.Result = &S.Results[I];
      Stage(Op);
    }
    break;
  case KvOp::Mset:
    S.Pairs = std::move(Req.Pairs);
    S.Statuses.assign(S.Pairs.size(), KvStatus::Err);
    for (size_t I = 0; I != S.Pairs.size(); ++I) {
      // A skimmed pair is answered `ERR toobig` in place and never
      // staged (the parser discarded its payload).
      if (I < Req.PairTooLarge.size() && Req.PairTooLarge[I]) {
        S.Statuses[I] = KvStatus::TooBig;
        continue;
      }
      KvCycleOp Op;
      Op.K = KvCycleOp::Set;
      Op.Key = S.Pairs[I].first;
      Op.Val = S.Pairs[I].second;
      Op.Status = &S.Statuses[I];
      Stage(Op);
    }
    break;
  }
  Served.fetch_add(1, std::memory_order_relaxed);
}

void KvServer::executeStaged(Worker &Wk) {
  bool Any = false;
  for (const auto &Ops : Wk.StagedOps)
    if (!Ops.empty()) {
      Any = true;
      break;
    }
  if (!Any)
    return;
  uint64_t T1 = monotonicNanos();
  for (unsigned S = 0; S != (unsigned)Wk.StagedOps.size(); ++S) {
    std::vector<KvCycleOp> &Ops = Wk.StagedOps[S];
    if (Ops.empty())
      continue;
    if (Store.shard(S).runCycle(Wk.Idx, Ops.data(), Ops.size()))
      Wk.Touched[S] = 1;
    Ops.clear();
  }
  uint64_t T2 = monotonicNanos();
  Wk.S.ExecuteNs += T2 - T1;
  // Stamp the slots this execution covered: queue wait is arrival to
  // execution, and ExecEndNs anchors commit-wait at release.
  for (uint64_t Id : Wk.DirtyConns) {
    auto It = Wk.Conns.find(Id);
    if (It == Wk.Conns.end())
      continue;
    for (Slot &S : It->second->Pending) {
      if (S.St != Slot::Staged)
        continue;
      S.ExecEndNs = T2;
      Wk.S.QueueWaitNs += T1 - std::min(S.ArrivalNs, T1);
    }
  }
}

void KvServer::renderSlotResponse(Slot &S) {
  switch (S.Op) {
  case KvOp::Get: {
    const KvResult &R = S.Results[0];
    if (R.Status == KvStatus::Ok)
      appendValue(S.Resp, R.Value);
    else
      appendStatus(S.Resp, R.Status);
    break;
  }
  case KvOp::Set:
  case KvOp::Del:
  case KvOp::Cas:
    appendStatus(S.Resp, S.Statuses[0]);
    break;
  case KvOp::Mget:
    appendValuesHeader(S.Resp, S.Results.size());
    for (const KvResult &R : S.Results) {
      if (R.Status == KvStatus::Ok)
        appendValue(S.Resp, R.Value);
      else
        appendNotFound(S.Resp);
    }
    break;
  case KvOp::Mset:
    appendStatusesHeader(S.Resp, S.Statuses.size());
    for (KvStatus St : S.Statuses)
      appendStatus(S.Resp, St);
    break;
  default:
    appendProtocolError(S.Resp);
    break;
  }
  // Drop the staged payload; the rendered bytes are all that's left.
  S.Val.clear();
  S.Expect.clear();
  S.Pairs.clear();
  S.Results.clear();
  S.Statuses.clear();
}

//===----------------------------------------------------------------------===//
// STATS (the only cross-worker request)
//===----------------------------------------------------------------------===//

void KvServer::startStats(Worker &Wk, Conn &C, Slot &S) {
  auto St = std::make_shared<StatsRequest>();
  St->OwnerWorker = Wk.Idx;
  St->ConnId = C.Id;
  St->SlotSeq = S.SlotSeq;
  St->PerWorker.resize(NumWorkers);
  St->Htm.assign(NumWorkers,
                 std::vector<HtmStats>(Store.numShards()));
  St->Remaining.store(NumWorkers, std::memory_order_relaxed);
  S.St = Slot::WaitingStats;
  S.Stats = St;
  CrossInFlight.fetch_add(1, std::memory_order_acq_rel);
  for (unsigned W = 0; W != NumWorkers; ++W) {
    if (W == Wk.Idx)
      continue;
    InboxMsg Msg;
    Msg.K = InboxMsg::StatsPiece;
    Msg.Stats = St;
    postMsg(W, std::move(Msg));
  }
  fillStatsContribution(Wk, St);
}

void KvServer::fillStatsContribution(
    Worker &Wk, const std::shared_ptr<StatsRequest> &St) {
  St->PerWorker[Wk.Idx] = Wk.S;
  for (unsigned S = 0; S != Store.numShards(); ++S)
    St->Htm[Wk.Idx][S] = Store.shard(S).htmStatsFor(Wk.Idx);
  if (St->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (St->OwnerWorker == Wk.Idx) {
      finishStats(Wk, St);
    } else {
      InboxMsg Msg;
      Msg.K = InboxMsg::StatsDone;
      Msg.Stats = St;
      postMsg(St->OwnerWorker, std::move(Msg));
    }
  }
}

std::string KvServer::formatStatsJson(const StatsRequest &St) {
  std::string J = "{\"version\":\"crafty-kv-stats-v1\",\"workers\":[";
  for (unsigned W = 0; W != NumWorkers; ++W) {
    const WorkerStats &S = St.PerWorker[W];
    if (W)
      J += ',';
    J += '{';
    appendJsonU64(J, "worker", W);
    appendJsonU64(J, "requests", S.Requests);
    appendJsonU64(J, "conns_accepted", S.ConnsAccepted);
    appendJsonU64(J, "queue_wait_ns", S.QueueWaitNs);
    appendJsonU64(J, "execute_ns", S.ExecuteNs);
    appendJsonU64(J, "commit_wait_ns", S.CommitWaitNs);
    appendJsonU64(J, "barriers", S.Barriers);
    appendJsonU64(J, "barrier_ns", S.BarrierNs);
    J += "\"ops_per_shard\":[";
    for (unsigned Sh = 0; Sh != Store.numShards(); ++Sh) {
      if (Sh)
        J += ',';
      char Buf[24];
      std::snprintf(Buf, sizeof(Buf), "%llu",
                    (unsigned long long)S.OpsPerShard[Sh]);
      J += Buf;
    }
    J += "]}";
  }
  J += "],\"shards\":[";
  for (unsigned Sh = 0; Sh != Store.numShards(); ++Sh) {
    uint64_t Ops = 0;
    HtmStats H;
    for (unsigned W = 0; W != NumWorkers; ++W) {
      Ops += St.PerWorker[W].OpsPerShard[Sh];
      H += St.Htm[W][Sh];
    }
    PMemStats P = Store.shard(Sh).pool().stats();
    if (Sh)
      J += ',';
    J += '{';
    appendJsonU64(J, "shard", Sh);
    appendJsonU64(J, "ops", Ops);
    appendJsonU64(J, "htm_commits", H.Commits);
    appendJsonU64(J, "htm_aborts", H.aborts());
    appendJsonU64(J, "htm_abort_capacity", H.AbortCapacity);
    appendJsonU64(J, "clwb_calls", P.ClwbCalls);
    appendJsonU64(J, "lines_scheduled", P.LinesScheduled);
    appendJsonU64(J, "drains", P.Drains);
    appendJsonU64(J, "empty_drains", P.EmptyDrains);
    appendJsonU64(J, "evicted_lines", P.EvictedLines, /*Comma=*/false);
    J += '}';
  }
  J += "]}";
  return J;
}

void KvServer::finishStats(Worker &Wk,
                           const std::shared_ptr<StatsRequest> &St) {
  CrossInFlight.fetch_sub(1, std::memory_order_acq_rel);
  auto It = Wk.Conns.find(St->ConnId);
  if (It == Wk.Conns.end())
    return;
  Conn &C = *It->second;
  for (Slot &S : C.Pending) {
    if (S.SlotSeq != St->SlotSeq)
      continue;
    appendStatsPayload(S.Resp, formatStatsJson(*St));
    S.St = Slot::Ready;
    S.Stats.reset();
    Served.fetch_add(1, std::memory_order_relaxed);
    markDirty(Wk, C);
    return;
  }
}

//===----------------------------------------------------------------------===//
// Inbox, group commit and response flushing
//===----------------------------------------------------------------------===//

void KvServer::postMsg(unsigned W, InboxMsg &&Msg) {
  Worker &Wk = *Workers[W];
  {
    MutexLock Lk(Wk.InboxMu);
    Wk.Inbox.push_back(std::move(Msg));
  }
  uint64_t One = 1;
  (void)!::write(Wk.WakeFd, &One, sizeof(One));
}

void KvServer::processInbox(Worker &Wk) {
  std::vector<InboxMsg> Batch;
  {
    MutexLock Lk(Wk.InboxMu);
    Batch.swap(Wk.Inbox);
  }
  for (InboxMsg &Msg : Batch) {
    switch (Msg.K) {
    case InboxMsg::NewConn:
      adoptConn(Wk, Msg.Fd);
      break;
    case InboxMsg::StatsPiece:
      fillStatsContribution(Wk, Msg.Stats);
      break;
    case InboxMsg::StatsDone:
      finishStats(Wk, Msg.Stats);
      break;
    }
  }
}

void KvServer::commitCycle(Worker &Wk) {
  // 1. Execute the cycle's staged batches (one runCycle per shard).
  executeStaged(Wk);
  // 2. Group commit, two-phase: begin the barrier on every shard this
  //    cycle wrote (cache write-back + forced commits), then end them
  //    all -- the per-shard fixed drain latencies overlap in the end
  //    pass instead of serializing.
  uint64_t T0 = monotonicNanos();
  std::vector<std::pair<unsigned, PersistBarrierTicket>> Open;
  for (unsigned S = 0; S != (unsigned)Wk.Touched.size(); ++S) {
    if (!Wk.Touched[S])
      continue;
    Wk.Touched[S] = 0;
    Open.emplace_back(S, PersistBarrierTicket{});
    Store.shard(S).persistAckBegin(Wk.Idx, Open.back().second);
  }
  for (auto &[S, T] : Open)
    Store.shard(S).persistAckEnd(Wk.Idx, T);
  if (!Open.empty()) {
    Wk.S.Barriers += Open.size();
    Wk.S.BarrierNs += monotonicNanos() - T0;
  }
  // 3. Release every response staged this cycle (ack follows
  //    durability): render it from its executed destinations, then
  //    transmit ready runs with writev.
  if (!Wk.DirtyConns.empty()) {
    uint64_t CommitNs = monotonicNanos();
    std::vector<uint64_t> Dirty;
    Dirty.swap(Wk.DirtyConns);
    for (uint64_t Id : Dirty) {
      auto It = Wk.Conns.find(Id);
      if (It == Wk.Conns.end())
        continue;
      Conn &C = *It->second;
      for (Slot &S : C.Pending) {
        if (S.St != Slot::Staged)
          continue;
        renderSlotResponse(S);
        S.St = Slot::Ready;
        if (S.ExecEndNs)
          Wk.S.CommitWaitNs += CommitNs - std::min(S.ExecEndNs, CommitNs);
      }
      flushConn(Wk, C);
    }
  }
  // 4. Closed connections can die now: no staged operation can still
  //    point into their slots.
  Wk.Doomed.clear();
}

void KvServer::updateWriteInterest(Worker &Wk, Conn &C) {
  bool Want = !C.OutBuf.empty() ||
              (!C.Pending.empty() && C.Pending.front().St == Slot::Ready);
  if (Want == C.WantWrite)
    return;
  C.WantWrite = Want;
  epoll_event Ev{};
  Ev.events = EPOLLIN | (Want ? (uint32_t)EPOLLOUT : 0u);
  Ev.data.u64 = C.Id;
  ::epoll_ctl(Wk.EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
}

void KvServer::flushConn(Worker &Wk, Conn &C) {
  if (C.Fd < 0)
    return;
  constexpr int MaxIov = 64;
  while (true) {
    iovec Iov[MaxIov];
    int N = 0;
    if (!C.OutBuf.empty()) {
      Iov[N].iov_base = C.OutBuf.data();
      Iov[N].iov_len = C.OutBuf.size();
      ++N;
    }
    for (Slot &S : C.Pending) {
      if (S.St != Slot::Ready || N == MaxIov)
        break;
      Iov[N].iov_base = S.Resp.data();
      Iov[N].iov_len = S.Resp.size();
      ++N;
    }
    if (N == 0)
      break;
    ssize_t Sent = ::writev(C.Fd, Iov, N);
    if (Sent < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      return closeConn(Wk, C);
    }
    size_t Rem = (size_t)Sent;
    if (!C.OutBuf.empty()) {
      size_t Take = std::min(Rem, C.OutBuf.size());
      C.OutBuf.erase(0, Take);
      Rem -= Take;
    }
    while (!C.Pending.empty() && C.Pending.front().St == Slot::Ready) {
      Slot &S = C.Pending.front();
      if (Rem >= S.Resp.size()) {
        Rem -= S.Resp.size();
        bool Close = S.CloseAfter;
        C.Pending.pop_front();
        if (Close)
          return closeConn(Wk, C);
      } else {
        S.Resp.erase(0, Rem);
        Rem = 0;
        break;
      }
    }
  }
  updateWriteInterest(Wk, C);
}
