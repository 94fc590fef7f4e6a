#include "common/uint160.h"

#include <cctype>
#include <functional>
#include <string>
#include <vector>

namespace contjoin {

Uint160 Uint160::FromUint64(uint64_t v) {
  Uint160 out;
  out.words_[4] = static_cast<uint32_t>(v);
  out.words_[3] = static_cast<uint32_t>(v >> 32);
  return out;
}

Uint160 Uint160::FromDigest(const Sha1Digest& digest) {
  Uint160 out;
  for (int i = 0; i < 5; ++i) {
    out.words_[i] = (static_cast<uint32_t>(digest[i * 4]) << 24) |
                    (static_cast<uint32_t>(digest[i * 4 + 1]) << 16) |
                    (static_cast<uint32_t>(digest[i * 4 + 2]) << 8) |
                    static_cast<uint32_t>(digest[i * 4 + 3]);
  }
  return out;
}

Uint160 Uint160::FromHex(std::string_view hex, bool* ok) {
  if (ok != nullptr) *ok = true;
  Uint160 out;
  if (hex.size() > 40) {
    if (ok != nullptr) *ok = false;
    return out;
  }
  // Process from the least-significant end.
  int nibble_index = 0;  // 0 = least significant nibble.
  for (auto it = hex.rbegin(); it != hex.rend(); ++it, ++nibble_index) {
    char c = *it;
    uint32_t v;
    if (c >= '0' && c <= '9') {
      v = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      v = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      if (ok != nullptr) *ok = false;
      return Uint160();
    }
    int word = 4 - nibble_index / 8;
    int shift = (nibble_index % 8) * 4;
    out.words_[static_cast<size_t>(word)] |= v << shift;
  }
  return out;
}

Uint160 Uint160::PowerOfTwo(int exp) {
  Uint160 out;
  if (exp < 0 || exp >= kBits) return out;
  int word = 4 - exp / 32;
  out.words_[static_cast<size_t>(word)] = 1u << (exp % 32);
  return out;
}

Uint160 Uint160::Max() {
  Uint160 out;
  out.words_.fill(0xFFFFFFFFu);
  return out;
}

Uint160 Uint160::operator+(const Uint160& other) const {
  Uint160 out;
  uint64_t carry = 0;
  for (int i = 4; i >= 0; --i) {
    uint64_t sum = static_cast<uint64_t>(words_[static_cast<size_t>(i)]) +
                   other.words_[static_cast<size_t>(i)] + carry;
    out.words_[static_cast<size_t>(i)] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  return out;  // Carry out of the top word wraps (mod 2^160).
}

std::string Uint160::ToHex() const {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(40);
  for (uint32_t w : words_) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kHex[(w >> shift) & 0xF]);
    }
  }
  return out;
}

std::string Uint160::ToShortString() const { return ToHex().substr(0, 10); }

size_t Uint160::HashValue() const {
  // Mix the words with the splitmix64 finalizer.
  uint64_t h = 0x9E3779B97F4A7C15ull;
  for (uint32_t w : words_) {
    h ^= w;
    h *= 0xBF58476D1CE4E5B9ull;
    h ^= h >> 27;
  }
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return static_cast<size_t>(h);
}

Uint160 HashKey(std::string_view key) {
  // Attribute and value keys repeat across tuples, so each thread keeps a
  // direct-mapped memo of recently hashed keys. SHA-1 is a pure function:
  // a hit returns exactly what hashing would, whatever the thread's
  // history, and a per-thread table needs no lock.
  struct Slot {
    std::string key;
    Uint160 id;
    bool used = false;
  };
  static constexpr size_t kSlots = 4096;  // Power of two: index by mask.
  thread_local std::vector<Slot> memo(kSlots);
  Slot& slot = memo[std::hash<std::string_view>{}(key) & (kSlots - 1)];
  if (slot.used && slot.key == key) return slot.id;
  slot.key.assign(key);
  slot.id = Uint160::FromDigest(Sha1::Hash(key));
  slot.used = true;
  return slot.id;
}

}  // namespace contjoin
