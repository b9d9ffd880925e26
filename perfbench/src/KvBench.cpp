//===- perfbench/src/KvBench.cpp - The KV service workloads ---------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// kv-write, kv-read and kv-large: an in-process KvServer on an ephemeral
// loopback port over a file-backed 2-shard KvStore (Crafty backend,
// Tracked pools, 300 ns drain, one persist barrier per server cycle),
// driven by one client thread that speaks the wire protocol.
//
// One run:
//   1. set-up, repeated: create the store in a fresh directory, preload
//      every key, start the server and connect the clients (timed; the
//      last set-up is kept);
//   2. warm-up, then the timed phase: a closed loop, with the CPUs kept
//      from halting (see Host.h);
//   3. an exact audit of every key in memory, with the heap audit;
//   4. traced runs only: the same seeded op stream replayed in-process
//      through KvStore with spans around each call;
//   5. on a second store, set up the same way but never served, a
//      simulated power failure and a reopen of the store over its image
//      files (timed), repeated; before each crash comes a burst of
//      acknowledged writes from one thread, then a tail of unacknowledged
//      ones (and, with the heap, staged extents that are never published),
//      so recovery has work to undo and reclaim. After every reopen each
//      key must hold exactly its last acknowledged value, or a later
//      unacknowledged one, and the heap audit must be consistent.
//
// Each connection owns a disjoint slice of the keys and keeps a ledger of
// the version it last wrote to each; values describe themselves (see
// Values.h), so every GET is checked against the ledger.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Host.h"
#include "Layers.h"
#include "Values.h"
#include "Wire.h"

#include "core/Crafty.h"
#include "kv/KvClient.h"
#include "kv/KvServer.h"
#include "support/Clock.h"
#include "support/Rng.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_map>

using namespace perfbench;
using namespace crafty;
using namespace crafty::kv;

namespace {

constexpr unsigned Shards = 2;
constexpr unsigned Workers = 2;
constexpr unsigned MaxPairs = 8;

/// The make-up of one KV workload (the README explains the choices).
struct KvSpec {
  const char *Name;
  unsigned Conns;
  /// Requests kept in flight per connection (closed loop).
  unsigned Window;
  unsigned MsetPct;
  unsigned SetPct; ///< The rest are GETs.
  unsigned MsetPairs;
  /// Keys owned by each connection (a power of two); all are preloaded.
  uint64_t KeysPerConn;
  /// Zipf(0.99) key popularity instead of uniform.
  bool Zipf;
  size_t MinValue;
  size_t MaxValue;
  size_t SlotsPerShard;
  bool Heap;
  /// Set-ups and crash/reopen rounds per run; their medians are
  /// reported (kv-read's preload and reopen are long, so it runs fewer).
  unsigned SetupRounds;
  unsigned RecoveryRounds;
  /// In-process writes per connection between two simulated crashes:
  /// acknowledged (persistAck), then a tail left unacknowledged.
  unsigned BurstWrites;
  unsigned TailWrites;
  /// Requests replayed in-process by a traced run.
  unsigned ReplayRequests;
};

const KvSpec Specs[] = {
    {"kv-write", 4, 16, 50, 40, 8, 1 << 14, false, 64, 64, 1 << 16, false, 15,
     25, 256, 16, 20000},
    {"kv-read", 4, 16, 0, 5, 0, 1 << 17, true, 64, 64, 1 << 19, false, 5, 7,
     256, 16, 20000},
    {"kv-large", 4, 8, 0, 50, 0, 1 << 8, false, 1024, 32768, 1 << 10, true, 15,
     25, 64, 8, 2000},
};

/// kv-large: heap extents per shard staged and left unpublished before
/// each further crash; recovery must reclaim them from the heap WAL.
constexpr unsigned StagedExtentsPerShard = 2;

const KvSpec *findSpec(const std::string &Name) {
  for (const KvSpec &S : Specs)
    if (Name == S.Name)
      return &S;
  return nullptr;
}

KvConfig storeConfig(const KvSpec &S, const std::string &Dir) {
  KvConfig C;
  C.NumShards = Shards;
  C.SlotsPerShard = S.SlotsPerShard;
  C.Backend = SystemKind::Crafty;
  C.ThreadsPerShard = Workers;
  C.Mode = PMemMode::Tracked;
  C.DrainLatencyNs = 300;
  C.DataDir = Dir;
  if (S.Heap) {
    // Every key live at its largest size, plus one overwrite generation
    // (a displaced extent is freed in the publish transaction) and
    // staging slack.
    size_t PagesPer = (S.MaxValue + heap::DurableHeap::PageBytes - 1) /
                      heap::DurableHeap::PageBytes;
    size_t KeysPerShard = S.Conns * S.KeysPerConn / Shards + 1;
    C.HeapPages = 2 * PagesPer * KeysPerShard + 256;
  }
  return C;
}

/// One request: what was sent and what its response must say.
struct Request {
  ReqKind K = ReqKind::Get;
  unsigned N = 1; ///< Keys (MsetPairs for MSET).
  uint64_t Keys[MaxPairs] = {};
  uint64_t Versions[MaxPairs] = {}; ///< Written (SET/MSET) or expected (GET).
  uint64_t Prev[MaxPairs] = {};     ///< The ledger's version before a write.
  size_t Lens[MaxPairs] = {};
  uint64_t UserBytes = 0;
  uint64_t StartNs = 0; ///< When the request was sent.
};

/// One connection's seeded op stream and its ledger. The generator runs
/// on across warm-up, the timed phase, the crash bursts and the replay,
/// so the seed fixes every request of the run.
class ConnModel {
public:
  ConnModel(const KvSpec &S, unsigned Idx, uint64_t Seed, const Zipf *Z)
      : S(S), Idx(Idx), Z(Z), R(mix64(Seed * 7919 + Idx)),
        Ver(S.KeysPerConn, 0), Len(S.KeysPerConn) {
    // Preloaded value sizes come from their own stream so they do not
    // shift the request stream.
    Rng P(mix64(Seed * 104729 + Idx));
    for (size_t &L : Len)
      L = drawLen(P);
  }

  uint64_t key(uint64_t Local) const {
    return Idx + (uint64_t)S.Conns * Local;
  }
  uint64_t keys() const { return S.KeysPerConn; }
  uint64_t version(uint64_t Local) const { return Ver[Local]; }
  size_t preloadLen(uint64_t Local) const { return Len[Local]; }

  /// Notes that \p Q's writes were not acknowledged before a crash: each
  /// of its keys may then hold its last acknowledged version or any
  /// unacknowledged one written since.
  void markUnacked(const Request &Q) {
    for (unsigned I = 0; I != Q.N; ++I) {
      std::vector<uint64_t> &Allowed = Unacked[(Q.Keys[I] - Idx) / S.Conns];
      if (Allowed.empty())
        Allowed.push_back(Q.Prev[I]);
      Allowed.push_back(Q.Versions[I]);
    }
  }
  /// The versions \p Local may hold after a crash when its last writes
  /// were unacknowledged, or null when it must hold exactly version().
  const std::vector<uint64_t> *unacked(uint64_t Local) const {
    auto It = Unacked.find(Local);
    return It == Unacked.end() ? nullptr : &It->second;
  }
  /// After a reopen: the ledger takes the version recovery kept for
  /// unacknowledged keys, and every key is acknowledged again.
  void settle(uint64_t Local, uint64_t Version) { Ver[Local] = Version; }
  void clearUnacked() { Unacked.clear(); }

  /// Draws the next request; a write takes the next version of each key
  /// at issue time, which is the order the server applies it in.
  void next(Request &Q) {
    unsigned Dice = (unsigned)R.nextBounded(100);
    if (Dice < S.MsetPct) {
      Q.K = ReqKind::Mset;
      Q.N = S.MsetPairs;
    } else {
      Q.K = Dice < S.MsetPct + S.SetPct ? ReqKind::Set : ReqKind::Get;
      Q.N = 1;
    }
    uint64_t Local[MaxPairs];
    for (unsigned I = 0; I != Q.N; ++I) {
      bool Dup;
      do {
        Local[I] = drawLocal();
        Dup = false;
        for (unsigned J = 0; J != I; ++J)
          Dup |= Local[J] == Local[I];
      } while (Dup);
    }
    Q.UserBytes = 0;
    for (unsigned I = 0; I != Q.N; ++I) {
      Q.Keys[I] = key(Local[I]);
      if (Q.K == ReqKind::Get) {
        Q.Versions[I] = Ver[Local[I]];
        continue;
      }
      Q.Prev[I] = Ver[Local[I]];
      Q.Versions[I] = Ver[Local[I]] = NextVersion++;
      Q.Lens[I] = drawLen(R);
      Q.UserBytes += Q.Lens[I];
    }
  }

private:
  uint64_t drawLocal() {
    if (!Z)
      return R.nextBounded(S.KeysPerConn);
    // Scatter popularity ranks over the key slice (odd multiplier: a
    // bijection modulo the power-of-two slice size).
    uint64_t Rank = Z->rank(R.nextDouble());
    return (Rank * 0x9e3779b97f4a7c15ull) & (S.KeysPerConn - 1);
  }
  size_t drawLen(Rng &G) const {
    return S.MinValue + (size_t)G.nextBounded(S.MaxValue - S.MinValue + 1);
  }

  const KvSpec &S;
  unsigned Idx;
  const Zipf *Z;
  Rng R;
  std::vector<uint64_t> Ver;
  std::vector<size_t> Len;
  std::unordered_map<uint64_t, std::vector<uint64_t>> Unacked;
  uint64_t NextVersion = 1;
};

/// Checks a GET result against the ledger; returns an empty string or why
/// it is wrong.
std::string checkGet(uint64_t Key, uint64_t Expect, KvStatus St,
                     const std::string &Val) {
  if (St != KvStatus::Ok)
    return std::string("GET key=") + std::to_string(Key) + " answered " +
           kvStatusName(St);
  DecodedValue D = decodeValue(Val);
  if (!D.Ok)
    return "GET key=" + std::to_string(Key) + " returned a torn value (" +
           std::to_string(Val.size()) + " bytes)";
  if (D.Key != Key || D.Version != Expect)
    return "GET key=" + std::to_string(Key) + " returned key " +
           std::to_string(D.Key) + " version " + std::to_string(D.Version) +
           ", ledger says version " + std::to_string(Expect);
  return std::string();
}

/// What one client thread saw in one phase.
struct ClientOut {
  uint64_t Done = 0;
  uint64_t UserBytes = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< The first few, for stderr.
  /// The timed phase (runClients with Record).
  Phase Timed;
  double CpuS = 0;     ///< This client thread's CPU time.
  double PollCpuS = 0; ///< The idle pollers' CPU time (see Host.h).

  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(std::move(Why));
  }
};

/// Formats \p Q onto \p C's output buffer.
void encode(const Request &Q, WireConn &C, std::string &Scratch,
            std::vector<std::pair<uint64_t, std::string>> &Pairs) {
  switch (Q.K) {
  case ReqKind::Get:
    appendGet(C.out(), Q.Keys[0]);
    break;
  case ReqKind::Set:
    makeValue(Q.Keys[0], Q.Versions[0], Q.Lens[0], Scratch);
    appendSet(C.out(), Q.Keys[0], Scratch);
    break;
  case ReqKind::Mset:
    Pairs.resize(Q.N);
    for (unsigned I = 0; I != Q.N; ++I) {
      Pairs[I].first = Q.Keys[I];
      makeValue(Q.Keys[I], Q.Versions[I], Q.Lens[I], Pairs[I].second);
    }
    appendMset(C.out(), Pairs);
    break;
  }
}

/// Checks one response; true when the request succeeded.
bool checkResponse(const Request &Q, const WireResponse &Resp,
                   ClientOut &Out) {
  switch (Q.K) {
  case ReqKind::Get: {
    std::string Why = checkGet(Q.Keys[0], Q.Versions[0], Resp.Status,
                               Resp.Value);
    if (!Why.empty()) {
      Out.fail(std::move(Why));
      return false;
    }
    return true;
  }
  case ReqKind::Set:
    if (Resp.Status != KvStatus::Ok) {
      Out.fail("SET key=" + std::to_string(Q.Keys[0]) + " answered " +
               kvStatusName(Resp.Status));
      return false;
    }
    return true;
  case ReqKind::Mset:
    for (unsigned I = 0; I != Q.N; ++I)
      if (I >= Resp.Statuses.size() || Resp.Statuses[I] != KvStatus::Ok) {
        Out.fail("MSET key=" + std::to_string(Q.Keys[I]) + " answered " +
                 (I < Resp.Statuses.size() ? kvStatusName(Resp.Statuses[I])
                                           : "nothing"));
        return false;
      }
    return true;
  }
  return false;
}

/// One connection as the client thread drives it.
struct ConnState {
  ConnModel *M;
  WireConn *C;
  std::deque<Request> Pending;
};

/// One client thread drives every connection in a closed loop: it keeps
/// Window requests in flight per connection until \p EndNs, timing each
/// from its send, and then collects every outstanding response.
void clientLoop(const KvSpec &S, std::vector<ConnState> &Ds,
                uint64_t StartNs, uint64_t EndNs, bool Record,
                ClientOut &Out) {
  const uint64_t GiveUpNs = EndNs + 30000000000ull;
  std::vector<WireConn *> Conns;
  for (ConnState &D : Ds)
    Conns.push_back(D.C);
  std::string Scratch;
  std::vector<std::pair<uint64_t, std::string>> Pairs;
  WireResponse Resp;

  while (monotonicNanos() < StartNs)
    ;
  for (;;) {
    uint64_t Now = monotonicNanos();
    bool Sending = Now < EndNs;
    size_t Outstanding = 0;
    for (ConnState &D : Ds) {
      while (Sending && D.Pending.size() < S.Window) {
        D.Pending.emplace_back();
        Request &Q = D.Pending.back();
        D.M->next(Q);
        Q.StartNs = Now;
        encode(Q, *D.C, Scratch, Pairs);
      }
      if (!D.C->send()) {
        Out.fail(std::string(S.Name) + ": connection send failed");
        return;
      }
      Outstanding += D.Pending.size();
    }
    if (!Outstanding)
      return;
    if (Now > GiveUpNs) {
      Out.fail(std::string(S.Name) + ": " + std::to_string(Outstanding) +
               " requests never answered");
      return;
    }
    if (!WireConn::poll(Conns, 1000000000)) {
      Out.fail(std::string(S.Name) + ": connection closed by the server");
      return;
    }
    uint64_t Got = monotonicNanos();
    for (ConnState &D : Ds)
      while (!D.Pending.empty()) {
        const Request &Q = D.Pending.front();
        WireConn::Parse P = D.C->next(Q.K, Q.N, Resp);
        if (P == WireConn::Parse::NeedMore)
          break;
        if (P == WireConn::Parse::Malformed) {
          Out.fail(std::string(S.Name) + ": malformed response to key " +
                   std::to_string(Q.Keys[0]));
          return;
        }
        if (checkResponse(Q, Resp, Out) && Q.K != ReqKind::Get)
          Out.UserBytes += Q.UserBytes;
        ++Out.Done;
        if (Record)
          Out.Timed.LatencyUs.push_back((float)(Got - Q.StartNs) / 1000.0f);
        D.Pending.pop_front();
      }
  }
}

/// One set-up of the store, the server and the client connections.
struct KvInstance {
  std::string Dir;
  KvConfig Cfg;
  std::unique_ptr<KvStore> Store;
  std::unique_ptr<KvServer> Server;
  std::vector<std::unique_ptr<ConnModel>> Models;
  std::vector<std::unique_ptr<WireConn>> Conns;

  ~KvInstance() {
    Conns.clear();
    if (Server)
      Server->stop();
    Server.reset();
    Store.reset();
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
};

/// Creates the store, preloads every key at version 0 and, when \p Serve
/// is set, starts the server and connects the clients. Null (with a
/// message) if anything fails.
std::unique_ptr<KvInstance> setUp(const KvSpec &S, const RunOptions &Opt,
                                  unsigned Round, const Zipf *Z, bool Serve) {
  auto I = std::make_unique<KvInstance>();
  I->Dir = Opt.DataDir + "/" + S.Name + "-" + std::to_string(Round);
  std::error_code Ec;
  std::filesystem::remove_all(I->Dir, Ec);
  if (!std::filesystem::create_directories(I->Dir, Ec)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", I->Dir.c_str());
    return nullptr;
  }
  I->Cfg = storeConfig(S, I->Dir);
  for (unsigned C = 0; C != S.Conns; ++C)
    I->Models.push_back(std::make_unique<ConnModel>(S, C, Opt.Seed, Z));
  I->Store = std::make_unique<KvStore>(I->Cfg);

  std::vector<std::string> Vals(256);
  std::vector<KvBatchItem> Items;
  for (unsigned C = 0; C != S.Conns; ++C) {
    const ConnModel &M = *I->Models[C];
    for (uint64_t L = 0; L < M.keys(); L += Vals.size()) {
      Items.clear();
      for (uint64_t J = 0; J != Vals.size() && L + J < M.keys(); ++J) {
        makeValue(M.key(L + J), 0, M.preloadLen(L + J), Vals[J]);
        Items.push_back({M.key(L + J), Vals[J], KvStatus::Err});
      }
      I->Store->msetBatch(0, Items, /*Durable=*/true);
      for (const KvBatchItem &It : Items)
        if (It.Status != KvStatus::Ok) {
          std::fprintf(stderr, "perfbench: preload of key %llu answered %s\n",
                       (unsigned long long)It.Key, kvStatusName(It.Status));
          return nullptr;
        }
    }
  }
  if (!Serve)
    return I;

  KvServerConfig SC;
  SC.Workers = Workers;
  I->Server = std::make_unique<KvServer>(*I->Store, SC);
  // Each worker gets a CPU of its own among the first Workers CPUs,
  // disjoint from the client thread's (see runClients).
  std::vector<int> Cpus = allowedCpus();
  std::vector<pid_t> Before = threadIds();
  I->Server->start();
  std::vector<pid_t> New;
  for (pid_t T : threadIds())
    if (std::find(Before.begin(), Before.end(), T) == Before.end())
      New.push_back(T);
  for (size_t W = 0; W != New.size(); ++W)
    pinTask(New[W], Cpus[W % Workers]);
  for (unsigned C = 0; C != S.Conns; ++C) {
    I->Conns.push_back(std::make_unique<WireConn>());
    if (!I->Conns.back()->connect(I->Server->port())) {
      std::fprintf(stderr, "perfbench: cannot connect to the server\n");
      return nullptr;
    }
  }
  return I;
}

LayerCounters storeCounters(KvStore &St) {
  LayerCounters C;
  for (unsigned I = 0; I != St.numShards(); ++I) {
    KvShard &Sh = St.shard(I);
    CraftyRuntime *Rt = Sh.crafty();
    C.add(Sh.backend(), Sh.pool(), Rt ? Rt->htm().nonTxClockBumps() : 0);
  }
  return C;
}

bool fetchServerTotals(KvServer &Server, ServerTotals &T) {
  KvClient C;
  std::string Json;
  if (!C.connect(Server.port()) || !C.stats(Json))
    return false;
  C.quit();
  T = ServerTotals::fromStats(Json);
  return true;
}

/// Runs the client thread for \p Seconds; with \p Record, times the
/// phase from the first send to the last response.
void runClients(const KvSpec &S, KvInstance &I, double Seconds, bool Record,
                ClientOut &Out) {
  // A short lead so the thread is running before the first send.
  uint64_t Start = monotonicNanos() + 2000000;
  uint64_t End = Start + (uint64_t)(Seconds * 1e9);
  Out = ClientOut();
  if (Record)
    Out.Timed.LatencyUs.reserve((size_t)(Seconds * 600000));
  std::vector<ConnState> Ds;
  for (unsigned C = 0; C != S.Conns; ++C)
    Ds.push_back({I.Models[C].get(), I.Conns[C].get(), {}});
  std::vector<int> Cpus = allowedCpus();
  // The server's CPUs and the client's: kept from halting (see Host.h).
  IdlePollers Pollers(
      std::vector<int>(Cpus.begin(), Cpus.begin() + Workers + 1));
  std::thread T([&] {
    pinThread({Cpus[Workers]});
    double Cpu0 = threadCpuSeconds();
    clientLoop(S, Ds, Start, End, Record, Out);
    Out.Timed.Seconds = (double)(monotonicNanos() - Start) * 1e-9;
    Out.CpuS = threadCpuSeconds() - Cpu0;
  });
  T.join();
  Out.PollCpuS = Pollers.stop();
}

/// Every key must hold exactly the value of its last acknowledged write,
/// or one of the unacknowledged writes since (see ConnModel::markUnacked),
/// and the heap must own exactly the pages of live values. \p When names
/// the check in failure messages.
void audit(const KvSpec &S, KvInstance &I, const char *When, RunResult &R,
           KvHeapAudit &Heap) {
  std::string Val;
  for (const auto &M : I.Models) {
    R.attempt(M->keys());
    for (uint64_t L = 0; L != M->keys(); ++L) {
      uint64_t Key = M->key(L);
      bool Found = I.Store->shard(I.Store->shardOf(Key)).peek(Key, Val);
      if (const std::vector<uint64_t> *Allowed = M->unacked(L)) {
        DecodedValue D = decodeValue(Val);
        if (Found && D.Ok && D.Key == Key &&
            std::find(Allowed->begin(), Allowed->end(), D.Version) !=
                Allowed->end())
          M->settle(L, D.Version);
        else
          R.fail(std::string(S.Name) + " " + When + ": key=" +
                 std::to_string(Key) +
                 " holds neither its last acknowledged version " +
                 std::to_string(Allowed->front()) +
                 " nor a later unacknowledged one");
        continue;
      }
      std::string Why = checkGet(Key, M->version(L),
                                 Found ? KvStatus::Ok : KvStatus::NotFound,
                                 Val);
      if (!Why.empty())
        R.fail(std::string(S.Name) + " " + When + ": " + Why);
    }
    M->clearUnacked();
  }
  R.attempt();
  Heap = I.Store->auditHeap();
  if (!Heap.consistent())
    R.invariantBroken(
        std::string(S.Name) + " " + When + ": heap audit found " +
        std::to_string(Heap.BitmapPages) + " allocated pages, " +
        std::to_string(Heap.LivePages) + " owned by live values, " +
        std::to_string(Heap.StagedWal) + " staged WAL records");
}

/// Issues in-process writes of the connections' streams: \p Writes
/// requests per connection (a request's GETs are skipped), each key one
/// KvStore::set. The caller acknowledges them or leaves them unacked.
void writeRequests(const KvSpec &S, KvInstance &I, unsigned Writes,
                   bool Acked, RunResult &R) {
  Request Q;
  std::string Val;
  for (const auto &M : I.Models)
    for (unsigned W = 0; W != Writes;) {
      M->next(Q);
      if (Q.K == ReqKind::Get)
        continue;
      for (unsigned K = 0; K != Q.N; ++K) {
        makeValue(Q.Keys[K], Q.Versions[K], Q.Lens[K], Val);
        R.attempt();
        KvStatus St = I.Store->set(0, Q.Keys[K], Val);
        if (St != KvStatus::Ok)
          R.fail(std::string(S.Name) + " burst SET key=" +
                 std::to_string(Q.Keys[K]) + " answered " + kvStatusName(St));
      }
      if (!Acked)
        M->markUnacked(Q);
      ++W;
    }
}

/// The work before a further simulated crash: a burst of acknowledged
/// writes; with the heap, extents staged and never published (after the
/// burst's persistAck, which makes the pages its overwrites freed
/// allocatable again, and made durable by another, so recovery finds
/// them in the heap WAL); then a tail of writes that are never
/// acknowledged.
void writeBurst(const KvSpec &S, KvInstance &I, RunResult &R) {
  writeRequests(S, I, S.BurstWrites, true, R);
  I.Store->persistAck(0);
  if (S.Heap) {
    std::string Bytes(S.MaxValue, 'x');
    for (unsigned Sh = 0; Sh != Shards; ++Sh)
      for (unsigned E = 0; E != StagedExtentsPerShard; ++E) {
        KvShard &Shard = I.Store->shard(Sh);
        R.attempt();
        if (!Shard.heap()->allocAndStage(Shard.backend(), 0, Bytes))
          R.fail(std::string(S.Name) + ": staging a heap extent on shard " +
                 std::to_string(Sh) + " failed");
      }
    I.Store->persistAck(0);
  }
  writeRequests(S, I, S.TailWrites, false, R);
}

/// Replays the connections' op streams in-process through KvStore, with
/// a span around every call into it.
void replay(const KvSpec &S, KvInstance &I, RunResult &R, LayerInputs &L) {
  Tracer T;
  KvStore &St = *I.Store;
  LayerCounters Before = storeCounters(St);
  Request Q;
  std::string Val;
  std::vector<std::string> Vals(MaxPairs);
  std::vector<KvBatchItem> Items;
  size_t HeapAbove = I.Cfg.heapThreshold();
  for (unsigned N = 0; N != S.ReplayRequests; ++N) {
    ConnModel &M = *I.Models[N % S.Conns];
    M.next(Q);
    R.attempt();
    std::string Why;
    uint64_t T0 = monotonicNanos();
    switch (Q.K) {
    case ReqKind::Get: {
      KvStatus Got = St.get(0, Q.Keys[0], Val);
      T.record(SpanName::StoreGet, T0, monotonicNanos());
      Why = checkGet(Q.Keys[0], Q.Versions[0], Got, Val);
      break;
    }
    case ReqKind::Set: {
      makeValue(Q.Keys[0], Q.Versions[0], Q.Lens[0], Val);
      T0 = monotonicNanos();
      KvStatus Got = St.set(0, Q.Keys[0], Val);
      T.record(S.Heap && Val.size() > HeapAbove ? SpanName::HeapSet
                                                : SpanName::StoreSet,
               T0, monotonicNanos());
      if (Got != KvStatus::Ok)
        Why = "SET key=" + std::to_string(Q.Keys[0]) + " answered " +
              kvStatusName(Got);
      break;
    }
    case ReqKind::Mset: {
      Items.clear();
      for (unsigned K = 0; K != Q.N; ++K) {
        makeValue(Q.Keys[K], Q.Versions[K], Q.Lens[K], Vals[K]);
        Items.push_back({Q.Keys[K], Vals[K], KvStatus::Err});
      }
      T0 = monotonicNanos();
      St.msetBatch(0, Items, /*Durable=*/false);
      T.record(SpanName::StoreMset, T0, monotonicNanos());
      L.ReplayMsetKeys += Q.N;
      for (const KvBatchItem &It : Items)
        if (It.Status != KvStatus::Ok && Why.empty())
          Why = "MSET key=" + std::to_string(It.Key) + " answered " +
                kvStatusName(It.Status);
      break;
    }
    }
    if (Q.K != ReqKind::Get) {
      uint64_t A0 = monotonicNanos();
      St.persistAck(0);
      T.record(SpanName::PersistAck, A0, monotonicNanos());
    }
    if (!Why.empty())
      R.fail(std::string(S.Name) + " replay: " + Why);
  }
  L.Replay = T;
  L.ReplayRequests = S.ReplayRequests;
  L.ReplayTxns = storeCounters(St).since(Before).Ptm.transactions();
}

} // namespace

unsigned perfbench::workloadThreads(const std::string &Name) {
  if (Name == "txn-bank")
    return 2;
  const KvSpec *S = findSpec(Name);
  return S ? Workers + 1 : 0;
}

int perfbench::runKv(const RunOptions &Opt, RunResult &R) {
  const KvSpec *SP = findSpec(Opt.Workload);
  if (!SP)
    return 2;
  const KvSpec &S = *SP;
  std::unique_ptr<Zipf> Z;
  if (S.Zipf)
    Z = std::make_unique<Zipf>(S.KeysPerConn, 0.99);

  // 1. Set-up, repeated; the last instance is the one measured.
  std::vector<double> SetupS;
  std::unique_ptr<KvInstance> I;
  for (unsigned Round = 0; Round != S.SetupRounds; ++Round) {
    I.reset();
    double T0 = nowSeconds();
    I = setUp(S, Opt, Round, Z.get(), /*Serve=*/true);
    if (!I)
      return 1;
    SetupS.push_back(nowSeconds() - T0);
  }

  // 2. Warm-up, then the timed phase between two quiescent snapshots.
  ClientOut Out;
  runClients(S, *I, (double)warmupNanos(Opt) * 1e-9, false, Out);
  for (const std::string &F : Out.Failures)
    R.fail(F + " (warm-up)");
  ServerTotals ServerBefore, ServerAfter;
  if (Opt.Trace && !fetchServerTotals(*I->Server, ServerBefore)) {
    std::fprintf(stderr, "perfbench: STATS failed\n");
    return 1;
  }
  LayerCounters Before = storeCounters(*I->Store);
  double Cpu0 = processCpuSeconds();
  uint64_t Steal0 = stealTicks();
  runClients(S, *I, Opt.Seconds, true, Out);
  double Cpu = processCpuSeconds() - Cpu0;
  Out.Timed.StealShare = stealShareSince(Steal0, Out.Timed.Seconds);
  LayerCounters Timed = storeCounters(*I->Store).since(Before);
  if (Opt.Trace && !fetchServerTotals(*I->Server, ServerAfter)) {
    std::fprintf(stderr, "perfbench: STATS failed\n");
    return 1;
  }

  uint64_t Done = Out.Done;
  for (const std::string &F : Out.Failures)
    R.fail(F);
  for (uint64_t K = Out.Failures.size(); K < Out.Failed; ++K)
    R.fail(std::string(S.Name) + ": further failed request");
  R.attempt(Done);
  I->Conns.clear();
  I->Server->stop();
  I->Server.reset();

  // 3. The server phase's results, checked exactly in memory.
  KvHeapAudit Heap;
  audit(S, *I, "after the server phase", R, Heap);
  LayerInputs L;
  if (S.Heap)
    L.HeapPagesPerValue =
        ratio((double)Heap.LivePages, (double)(S.Conns * S.KeysPerConn));

  // 4. Traced runs: the in-process replay on the served store.
  if (Opt.Trace)
    replay(S, *I, R, L);
  I.reset();

  // 5. Simulated power failures and timed reopens over the image files,
  // on a second store that the server never served, written by one
  // thread. A crash after the server phase, whose two workers write and
  // write back concurrently, now and then lost an acknowledged write (a
  // fault of the program, FOUND in CHANGES.md), and a failure that shows
  // only some of the time cannot be counted the same way in every run.
  I = setUp(S, Opt, S.SetupRounds, Z.get(), /*Serve=*/false);
  if (!I)
    return 1;
  std::vector<double> RecoveryS;
  for (unsigned Round = 0; Round != S.RecoveryRounds; ++Round) {
    writeBurst(S, *I, R);
    I->Store->simulateCrash();
    I->Store.reset();
    double T0 = nowSeconds();
    I->Store = std::make_unique<KvStore>(I->Cfg);
    RecoveryS.push_back(nowSeconds() - T0);
    R.attempt();
    if (!I->Store->recoveredOnOpen())
      R.invariantBroken(std::string(S.Name) +
                        ": reopened store did not recover from its images");
    ++L.Reopens;
    for (unsigned Sh = 0; Sh != Shards; ++Sh) {
      KvShard &Shard = I->Store->shard(Sh);
      L.addRecovery(Shard.lastRecovery());
      L.HeapExtentsReclaimed += Shard.heapExtentsReclaimed();
      if (!Round)
        L.ImageBytes += Shard.pool().size();
    }
    KvHeapAudit After;
    audit(S, *I, "after crash", R, After);
  }

  reportPhase(S.Name, Opt.Trace, Out.Timed);

  if (!Opt.Trace) {
    R.metric("throughput_ops_s", Out.Timed.throughput(), "1/s");
    R.metric("latency_p50_us", Out.Timed.percentileUs(0.50), "us");
    R.metric("latency_p90_us", Out.Timed.percentileUs(0.90), "us");
    R.metric("cpu_us_per_op",
             ratio((Cpu - Out.CpuS - Out.PollCpuS) * 1e6, (double)Done), "us");
    R.metric("setup_s", median(SetupS), "s");
    R.metric("recovery_s", median(RecoveryS), "s");
    R.metric("pm_write_bytes_per_user_byte",
             ratio((double)Timed.Pm.LinesScheduled * 64, (double)Out.UserBytes),
             "B/B");
    return 0;
  }

  // Per-layer metrics.
  L.Ops = Done;
  L.Timed = Timed;
  L.Server = ServerAfter.since(ServerBefore);
  L.TxnUs = ratio((double)L.Server.ExecuteNs / 1e3,
                  (double)Timed.Ptm.transactions());
  emitLayerMetrics(R, L);
  return 0;
}
