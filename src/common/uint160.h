// Uint160: unsigned 160-bit integer with modular (ring) arithmetic, the
// identifier type of the Chord 2^160 identifier circle.

#ifndef CONTJOIN_COMMON_UINT160_H_
#define CONTJOIN_COMMON_UINT160_H_

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/sha1.h"

namespace contjoin {

/// 160-bit unsigned integer. All arithmetic is modulo 2^160, which makes the
/// type directly usable as a position on the Chord identifier circle.
///
/// Stored as five 32-bit words, most-significant first, matching the SHA-1
/// digest byte order.
class Uint160 {
 public:
  static constexpr int kBits = 160;

  /// Zero.
  constexpr Uint160() : words_{} {}

  /// Value-extends a 64-bit integer.
  static Uint160 FromUint64(uint64_t v);

  /// Interprets a 20-byte digest as a big-endian 160-bit integer.
  static Uint160 FromDigest(const Sha1Digest& digest);

  /// Parses up to 40 hex characters (shorter strings are value-extended).
  /// Returns zero on malformed input paired with `ok=false` when provided.
  static Uint160 FromHex(std::string_view hex, bool* ok = nullptr);

  /// 2^exp for 0 <= exp < 160.
  static Uint160 PowerOfTwo(int exp);

  /// Maximum representable value (2^160 - 1).
  static Uint160 Max();

  /// Addition modulo 2^160.
  Uint160 operator+(const Uint160& other) const;
  /// Subtraction modulo 2^160. Inline (with the interval predicates and the
  /// comparison) because routing evaluates it for every finger it scans.
  Uint160 operator-(const Uint160& other) const;

  Uint160& operator+=(const Uint160& other) { return *this = *this + other; }
  Uint160& operator-=(const Uint160& other) { return *this = *this - other; }

  bool operator==(const Uint160& other) const = default;
  // contjoin-check: hot
  std::strong_ordering operator<=>(const Uint160& other) const {
    for (size_t i = 0; i < 5; ++i) {
      if (words_[i] != other.words_[i]) {
        return words_[i] < other.words_[i] ? std::strong_ordering::less
                                           : std::strong_ordering::greater;
      }
    }
    return std::strong_ordering::equal;
  }

  /// Clockwise ring distance from `from` to *this (how far one travels
  /// clockwise starting at `from` to reach *this); equals *this - from
  /// mod 2^160.
  Uint160 ClockwiseDistanceFrom(const Uint160& from) const {
    return *this - from;
  }

  /// True iff *this lies in the ring interval (a, b] travelling clockwise.
  /// By Chord convention, (a, a] is the full ring: every identifier except
  /// none — i.e., always true (travelling the whole circle).
  bool InOpenClosed(const Uint160& a, const Uint160& b) const;

  /// True iff *this lies in the ring interval (a, b) travelling clockwise.
  /// (a, a) is the full ring minus a itself.
  bool InOpenOpen(const Uint160& a, const Uint160& b) const;

  /// 40 lowercase hex characters.
  std::string ToHex() const;

  /// Short human-readable form (first 10 hex chars).
  std::string ToShortString() const;

  /// Low 64 bits (used by tests and hashing).
  uint64_t Low64() const {
    return (static_cast<uint64_t>(words_[3]) << 32) | words_[4];
  }

  /// Word accessor, index 0 = most significant.
  uint32_t word(int i) const { return words_[static_cast<size_t>(i)]; }

  /// Non-cryptographic hash for container use.
  size_t HashValue() const;

 private:
  bool IsZero() const {
    return (words_[0] | words_[1] | words_[2] | words_[3] | words_[4]) == 0;
  }

  std::array<uint32_t, 5> words_;
};

// contjoin-check: hot
inline Uint160 Uint160::operator-(const Uint160& other) const {
  Uint160 out;
  uint64_t borrow = 0;
  for (size_t i = 5; i-- > 0;) {
    // A negative difference wraps to >= 2^63, so its top bit is the borrow.
    const uint64_t diff =
        static_cast<uint64_t>(words_[i]) - other.words_[i] - borrow;
    out.words_[i] = static_cast<uint32_t>(diff);
    borrow = diff >> 63;
  }
  return out;  // Borrow out of the top word wraps (mod 2^160).
}

// contjoin-check: hot
inline bool Uint160::InOpenClosed(const Uint160& a, const Uint160& b) const {
  if (a == b) return true;  // Full circle.
  // Clockwise distances from a: x is in (a, b] iff 0 < dist(a,x) <=
  // dist(a,b).
  const Uint160 dx = *this - a;
  return !dx.IsZero() && dx <= b - a;
}

// contjoin-check: hot
inline bool Uint160::InOpenOpen(const Uint160& a, const Uint160& b) const {
  if (a == b) return *this != a;  // Full circle minus the endpoint.
  const Uint160 dx = *this - a;
  return !dx.IsZero() && dx < b - a;
}

/// Hashes an application key string onto the identifier circle with SHA-1
/// (paper §2.2: id(i) = Hash(Key(i))).
Uint160 HashKey(std::string_view key);

}  // namespace contjoin

namespace std {
template <>
struct hash<contjoin::Uint160> {
  size_t operator()(const contjoin::Uint160& v) const { return v.HashValue(); }
};
}  // namespace std

#endif  // CONTJOIN_COMMON_UINT160_H_
