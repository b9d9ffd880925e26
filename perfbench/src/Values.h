//===- perfbench/src/Values.h - Self-describing values and keys -*- C++ -*-===//
//
// Part of the Crafty reproduction project.
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Input generation for the KV workloads. Every value the benchmark writes
/// describes itself, so a read can be checked without a copy of any
/// earlier output:
///
///   [0, 8)    key the value was written under
///   [8, 16)   version (a per-connection write counter)
///   [16, 24)  checksum over the length, key, version and filler
///   [24, n)   filler derived from (key, version)
///
/// A torn value fails the checksum; a value that landed under the wrong
/// key or is stale decodes to the wrong key or version.
///
//===----------------------------------------------------------------------===//

#ifndef CRAFTY_PERFBENCH_VALUES_H
#define CRAFTY_PERFBENCH_VALUES_H

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace perfbench {

inline constexpr size_t ValueHeaderBytes = 24;

inline uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// Checksum of a value with the checksum field itself skipped. Word-wise
/// so that 32 KiB values cost microseconds, not tens of them.
inline uint64_t valueChecksum(std::string_view V) {
  uint64_t H = mix64(V.size());
  for (size_t I = 0; I + 8 <= V.size(); I += 8) {
    if (I == 16)
      continue;
    uint64_t W;
    std::memcpy(&W, V.data() + I, 8);
    H = (H ^ W) * 0x100000001b3ull;
    H ^= H >> 29;
  }
  for (size_t I = V.size() & ~(size_t)7; I < V.size(); ++I)
    H = (H ^ (uint8_t)V[I]) * 0x100000001b3ull;
  return mix64(H);
}

/// Writes the value for (\p Key, \p Version) of \p Len bytes (at least
/// ValueHeaderBytes) into \p Out.
inline void makeValue(uint64_t Key, uint64_t Version, size_t Len,
                      std::string &Out) {
  Out.resize(Len);
  char *P = Out.data();
  std::memcpy(P, &Key, 8);
  std::memcpy(P + 8, &Version, 8);
  uint64_t X = mix64(Key * 0x2545f4914f6cdd1dull ^ Version) | 1;
  size_t I = ValueHeaderBytes;
  for (; I + 8 <= Len; I += 8) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    std::memcpy(P + I, &X, 8);
  }
  for (; I < Len; ++I)
    P[I] = (char)(X >> (8 * (I & 7)));
  uint64_t Sum = valueChecksum(Out);
  std::memcpy(P + 16, &Sum, 8);
}

struct DecodedValue {
  bool Ok = false;
  uint64_t Key = 0;
  uint64_t Version = 0;
};

/// Decodes a value; Ok is false for short or torn values.
inline DecodedValue decodeValue(std::string_view V) {
  DecodedValue D;
  if (V.size() < ValueHeaderBytes)
    return D;
  uint64_t Sum;
  std::memcpy(&D.Key, V.data(), 8);
  std::memcpy(&D.Version, V.data() + 8, 8);
  std::memcpy(&Sum, V.data() + 16, 8);
  D.Ok = Sum == valueChecksum(V);
  return D;
}

/// Zipf(theta) ranks over [0, N) by the Gray et al. method (the YCSB
/// generator): rank 0 is the most popular. Set-up is O(N).
class Zipf {
public:
  Zipf(uint64_t N, double Theta) : N(N) {
    for (uint64_t I = 1; I <= N; ++I)
      ZetaN += std::pow((double)I, -Theta);
    Zeta2 = 1 + std::pow(0.5, Theta);
    Alpha = 1 / (1 - Theta);
    Eta = (1 - std::pow(2.0 / (double)N, 1 - Theta)) / (1 - Zeta2 / ZetaN);
  }

  /// Maps a uniform \p U in [0, 1) to a rank.
  uint64_t rank(double U) const {
    double UZ = U * ZetaN;
    if (UZ < 1)
      return 0;
    if (UZ < Zeta2)
      return 1;
    uint64_t R = (uint64_t)((double)N * std::pow(Eta * U - Eta + 1, Alpha));
    return R < N ? R : N - 1;
  }

private:
  uint64_t N;
  double ZetaN = 0;
  double Zeta2 = 0; ///< 1 + 2^-theta: ranks 0 and 1 take [0, Zeta2).
  double Alpha = 0;
  double Eta = 0;
};

} // namespace perfbench

#endif // CRAFTY_PERFBENCH_VALUES_H
