//===- perfbench/src/Wire.h - Pipelined loopback client --------*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A non-blocking client connection for the load generator. Requests are
/// formatted with the program's own kv/KvProtocol.h encoders and appended
/// to an output buffer; responses are parsed incrementally in arrival
/// order. Unlike kv::KvClient it never blocks on one response, so one
/// thread can keep a window of requests in flight on several connections.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_PERFBENCH_WIRE_H
#define CRAFTY_PERFBENCH_WIRE_H

#include "kv/KvProtocol.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The request kinds the workloads issue (and so the response shapes).
enum class ReqKind : uint8_t { Get, Set, Mset };

struct WireResponse {
  crafty::kv::KvStatus Status = crafty::kv::KvStatus::Err;
  std::string Value;                          ///< Get with Status Ok.
  std::vector<crafty::kv::KvStatus> Statuses; ///< Mset, one per pair.
};

class WireConn {
public:
  WireConn() = default;
  ~WireConn() { close(); }
  WireConn(const WireConn &) = delete;
  WireConn &operator=(const WireConn &) = delete;

  /// Connects to 127.0.0.1:\p Port; false on failure.
  bool connect(uint16_t Port);
  void close();

  /// Bytes queued for sending (append requests with kv::append*).
  std::string &out() { return Out; }
  bool hasOutput() const { return OutPos < Out.size(); }

  /// Sends as much queued output as the socket accepts now. False on a
  /// transport error.
  bool send();

  /// Waits up to \p TimeoutNs (0: just look) until any of \p Conns (at
  /// most 8) has input, or send room while it has output queued, then
  /// reads and sends what it can on each. False on EOF or a transport
  /// error.
  static bool poll(const std::vector<WireConn *> &Conns, int64_t TimeoutNs);

  enum class Parse : uint8_t { Done, NeedMore, Malformed };
  /// Parses the next response, which answers a request of kind \p K.
  Parse next(ReqKind K, size_t Pairs, WireResponse &R);

private:
  bool readAvailable();
  /// The next '\n'-terminated line at \p From, or false if incomplete.
  bool line(size_t From, std::string_view &L, size_t &Next) const;

  int Fd = -1;
  std::string Out;
  size_t OutPos = 0;
  std::string In;
  size_t InPos = 0;
};

} // namespace perfbench

#endif // CRAFTY_PERFBENCH_WIRE_H
