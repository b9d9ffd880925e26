//===- perfbench/src/Wire.cpp - Pipelined loopback client -----------------===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Wire.h"

#include <cerrno>
#include <charconv>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace perfbench;
using namespace crafty::kv;

bool WireConn::connect(uint16_t Port) {
  close();
  Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return false;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    close();
    return false;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL) | O_NONBLOCK);
  return true;
}

void WireConn::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Out.clear();
  OutPos = 0;
  In.clear();
  InPos = 0;
}

bool WireConn::send() {
  while (OutPos < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + OutPos, Out.size() - OutPos,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    OutPos += (size_t)N;
  }
  Out.clear();
  OutPos = 0;
  return true;
}

bool WireConn::readAvailable() {
  if (InPos == In.size()) {
    In.clear();
    InPos = 0;
  } else if (InPos > (1 << 16)) {
    In.erase(0, InPos);
    InPos = 0;
  }
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      In.append(Buf, (size_t)N);
      if ((size_t)N < sizeof(Buf))
        return true;
      continue;
    }
    if (N == 0)
      return false;
    if (errno == EINTR)
      continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool WireConn::poll(const std::vector<WireConn *> &Conns, int64_t TimeoutNs) {
  pollfd P[8];
  size_t N = Conns.size() < 8 ? Conns.size() : 8;
  for (size_t I = 0; I != N; ++I) {
    if (Conns[I]->Fd < 0)
      return false;
    P[I] = pollfd{};
    P[I].fd = Conns[I]->Fd;
    P[I].events = (short)(POLLIN | (Conns[I]->hasOutput() ? POLLOUT : 0));
  }
  timespec Ts{};
  if (TimeoutNs > 0) {
    Ts.tv_sec = TimeoutNs / 1000000000;
    Ts.tv_nsec = TimeoutNs % 1000000000;
  }
  if (::ppoll(P, N, &Ts, nullptr) < 0)
    return errno == EINTR;
  for (size_t I = 0; I != N; ++I) {
    WireConn &C = *Conns[I];
    if (P[I].revents & (POLLERR | POLLNVAL))
      return false;
    if ((P[I].revents & POLLOUT) && !C.send())
      return false;
    if ((P[I].revents & (POLLIN | POLLHUP)) && !C.readAvailable())
      return false;
  }
  return true;
}

bool WireConn::line(size_t From, std::string_view &L, size_t &Next) const {
  size_t Nl = In.find('\n', From);
  if (Nl == std::string::npos)
    return false;
  L = std::string_view(In).substr(From, Nl - From);
  Next = Nl + 1;
  return true;
}

static bool tailNumber(std::string_view L, std::string_view Prefix,
                       uint64_t &N) {
  if (L.substr(0, Prefix.size()) != Prefix)
    return false;
  L.remove_prefix(Prefix.size());
  auto [P, Ec] = std::from_chars(L.data(), L.data() + L.size(), N);
  return Ec == std::errc() && P == L.data() + L.size();
}

WireConn::Parse WireConn::next(ReqKind K, size_t Pairs, WireResponse &R) {
  std::string_view L;
  size_t Pos = InPos;
  if (!line(Pos, L, Pos))
    return Parse::NeedMore;
  switch (K) {
  case ReqKind::Get: {
    uint64_t Len = 0;
    if (tailNumber(L, "VALUE ", Len)) {
      if (In.size() - Pos < Len + 1)
        return Parse::NeedMore;
      if (In[Pos + Len] != '\n')
        return Parse::Malformed;
      R.Status = KvStatus::Ok;
      R.Value.assign(In, Pos, Len);
      Pos += Len + 1;
    } else if (L == "NOTFOUND") {
      R.Status = KvStatus::NotFound;
    } else {
      R.Status = parseStatusLine(L);
    }
    break;
  }
  case ReqKind::Set:
    R.Status = parseStatusLine(L);
    break;
  case ReqKind::Mset: {
    uint64_t N = 0;
    if (!tailNumber(L, "STATUSES ", N)) {
      // A whole-request error (e.g. a protocol error) answers in one line.
      R.Status = parseStatusLine(L);
      R.Statuses.assign(Pairs, R.Status);
      break;
    }
    if (N != Pairs)
      return Parse::Malformed;
    R.Statuses.clear();
    for (uint64_t I = 0; I != N; ++I) {
      if (!line(Pos, L, Pos))
        return Parse::NeedMore;
      R.Statuses.push_back(parseStatusLine(L));
    }
    R.Status = KvStatus::Ok;
    break;
  }
  }
  InPos = Pos;
  return Parse::Done;
}
