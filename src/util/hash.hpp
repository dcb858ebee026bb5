#pragma once
// 128-bit streaming hash for cache keys (flow/session.hpp).
//
// Two independently-seeded 64-bit lanes, each advanced with a
// splitmix64-style finalizer per ingested word. The two lanes make
// accidental collisions across the session caches (where a collision would
// silently serve a wrong synthesis result) astronomically unlikely, at twice
// the mixing cost of a single 64-bit state — negligible next to the
// synthesis work the hash guards.
//
// This is NOT a cryptographic hash: a client can construct colliding
// inputs. The session keys digest in-process network structures; the serve
// layer's prepared-network memo digests raw request bytes, so it confirms
// every hit by comparing the stored bytes (serve/server.cpp).

#include <cstdint>
#include <cstring>
#include <string_view>
#include <tuple>

namespace minpower {

/// splitmix64 finalizer: full-avalanche 64-bit mixing.
inline constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Hash128 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  friend bool operator==(const Hash128&, const Hash128&) = default;
  friend auto operator<=>(const Hash128& x, const Hash128& y) {
    return std::tie(x.a, x.b) <=> std::tie(y.a, y.b);
  }

  /// Collapse to one word (for unordered_map bucketing; the full 128 bits
  /// still back the equality check).
  std::uint64_t fold() const { return mix64(a ^ mix64(b)); }
};

struct Hash128Fold {
  std::size_t operator()(const Hash128& h) const {
    return static_cast<std::size_t>(h.fold());
  }
};

class StreamHash {
 public:
  StreamHash() = default;

  void u64(std::uint64_t v) {
    a_ = mix64(a_ ^ mix64(v + 0x2545f4914f6cdd1dULL));
    b_ = mix64(b_ ^ mix64(v + 0x9e6c63d0876a9a47ULL));
  }

  /// Bit pattern of a double (0.0 and -0.0 collapse so option fingerprints
  /// do not split on the sign of zero).
  void f64(double v) {
    std::uint64_t bits = 0;
    if (v != 0.0) std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }

  /// Length-prefixed, so "ab","c" never collides with "a","bc".
  void str(std::string_view s) {
    u64(s.size());
    std::uint64_t word = 0;
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      std::memcpy(&word, s.data() + i, 8);
      u64(word);
    }
    if (i < s.size()) {
      word = 0;
      std::memcpy(&word, s.data() + i, s.size() - i);
      u64(word);
    }
  }

  void h128(const Hash128& h) {
    u64(h.a);
    u64(h.b);
  }

  Hash128 digest() const { return Hash128{mix64(a_), mix64(b_)}; }

 private:
  std::uint64_t a_ = 0x6a09e667f3bcc908ULL;  // distinct lane seeds
  std::uint64_t b_ = 0xbb67ae8584caa73bULL;
};

}  // namespace minpower
