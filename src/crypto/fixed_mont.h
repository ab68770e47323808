// Fixed-width Montgomery arithmetic on stack limbs.
//
// Fe<K> is a K-limb little-endian residue held by value, and Mont<K> holds
// an odd modulus of exactly K limbs with its Montgomery constants. Every
// operation works on caller-owned arrays and never allocates: the generic
// MontCtx/Bignum path pays a heap-allocated limb vector and a result Bignum
// per multiply, which dominated the handshake's asymmetric ops. The width
// is a compile-time constant, so the compiler unrolls the 4- and 6-limb
// (P-256 / P-384 field) loops completely.
//
// Residues stay fully reduced (< n) between operations, so two residues are
// equal iff their limbs are. Like the generic code this is variable-time:
// the exponent and scalar bits drive branches (DESIGN.md §6).
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/bn.h"

namespace qtls::fixed {

using u128 = unsigned __int128;

template <size_t K>
struct Fe {
  uint64_t v[K] = {};

  bool is_zero() const {
    uint64_t acc = 0;
    for (size_t i = 0; i < K; ++i) acc |= v[i];
    return acc == 0;
  }
  friend bool operator==(const Fe& a, const Fe& b) {
    uint64_t acc = 0;
    for (size_t i = 0; i < K; ++i) acc |= a.v[i] ^ b.v[i];
    return acc == 0;
  }

  // Requires a.limb_count() <= K.
  static Fe from(const Bignum& a) {
    Fe out;
    for (size_t i = 0; i < K; ++i) out.v[i] = a.limb(i);
    return out;
  }
  Bignum to_bignum() const {
    Bignum out;
    out.limbs().assign(v, v + K);
    out.trim();
    return out;
  }
};

template <size_t K>
class Mont {
 public:
  using F = Fe<K>;

  // Requires ctx.limbs() == K.
  explicit Mont(const MontCtx& ctx)
      : n_(F::from(ctx.modulus())),
        n0inv_(ctx.n0inv()),
        rr_(F::from(ctx.rr())) {
    F unit;
    unit.v[0] = 1;
    mul(one_, rr_, unit);
  }

  // 1 in the Montgomery domain (R mod n).
  const F& one() const { return one_; }

  void to_mont(F& r, const F& a) const { mul(r, a, rr_); }
  void from_mont(F& r, const F& a) const {
    F unit;
    unit.v[0] = 1;
    mul(r, a, unit);
  }

  void add(F& r, const F& a, const F& b) const {
    uint64_t s[K];
    uint64_t carry = 0;
#pragma GCC unroll 8
    for (size_t i = 0; i < K; ++i) {
      const u128 t = static_cast<u128>(a.v[i]) + b.v[i] + carry;
      s[i] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
    reduce_once(r, s, carry);
  }

  void sub(F& r, const F& a, const F& b) const {
    uint64_t d[K];
    uint64_t borrow = 0;
#pragma GCC unroll 8
    for (size_t i = 0; i < K; ++i) {
      const u128 t = static_cast<u128>(a.v[i]) - b.v[i] - borrow;
      d[i] = static_cast<uint64_t>(t);
      borrow = static_cast<uint64_t>(t >> 64) & 1;
    }
    // On borrow add n back (masked, so no branch on the comparison).
    const uint64_t mask = 0 - borrow;
    uint64_t carry = 0;
#pragma GCC unroll 8
    for (size_t i = 0; i < K; ++i) {
      const u128 t = static_cast<u128>(d[i]) + (n_.v[i] & mask) + carry;
      r.v[i] = static_cast<uint64_t>(t);
      carry = static_cast<uint64_t>(t >> 64);
    }
  }

  // Montgomery multiplication r = a * b * R^-1 mod n in product-scanning
  // form (Koc et al.'s FIPS): column by column into a three-word
  // accumulator, so the partial product never round-trips through memory
  // as it does in CIOS (1.3-1.6x faster than a CIOS loop on a 2.1 GHz
  // x86-64 Xeon). r may alias a or b.
  void mul(F& r, const F& a, const F& b) const {
    uint64_t m[K];
    uint64_t t[K];
    Acc acc;
#pragma GCC unroll 8
    for (size_t i = 0; i < 2 * K - 1; ++i) {
      const size_t lo = i < K ? 0 : i - K + 1;
      const size_t hi = i < K ? i : K;
#pragma GCC unroll 8
      for (size_t j = lo; j < hi; ++j) {
        acc.mac(a.v[j], b.v[i - j]);
        acc.mac(m[j], n_.v[i - j]);
      }
      if (i < K) acc.mac(a.v[i], b.v[0]);
      column_end(acc, m, t, i);
    }
    finish(r, acc, t);
  }

  // Dedicated square: each cross product a_j a_{i-j} (j < i - j) of a
  // column is computed once and doubled, which saves K(K-1)/2 of the 2K^2
  // word multiplies. r may alias a.
  void sqr(F& r, const F& a) const {
    uint64_t m[K];
    uint64_t t[K];
    Acc acc;
#pragma GCC unroll 8
    for (size_t i = 0; i < 2 * K - 1; ++i) {
      const size_t lo = i < K ? 0 : i - K + 1;
      Acc cross;
#pragma GCC unroll 8
      for (size_t j = lo; 2 * j < i; ++j) cross.mac(a.v[j], a.v[i - j]);
      acc.add_twice(cross);
      if (i % 2 == 0) acc.mac(a.v[i / 2], a.v[i / 2]);
      column_tail(acc, m, t, i);
    }
    finish(r, acc, t);
  }

  // r = base^e in the Montgomery domain (base in the Montgomery domain;
  // e is e_limbs little-endian limbs). Fixed windows sized to the exponent,
  // so a short public exponent such as 65537 does not pay for a table.
  void exp(F& r, const F& base, const uint64_t* e, size_t e_limbs) const {
    size_t bits = 0;
    for (size_t i = e_limbs; i-- > 0;) {
      if (e[i] != 0) {
        bits = i * 64 + 64 - static_cast<size_t>(__builtin_clzll(e[i]));
        break;
      }
    }
    if (bits == 0) {
      r = one_;
      return;
    }
    const size_t w = bits <= 24 ? 1 : bits <= 80 ? 3 : bits <= 240 ? 4 : 5;
    F table[1u << 5];
    table[1] = base;
    for (size_t i = 2; i < (size_t{1} << w); ++i)
      mul(table[i], table[i - 1], base);

    const size_t windows = (bits + w - 1) / w;
    F acc;
    bool started = false;
    for (size_t win = windows; win-- > 0;) {
      if (started)
        for (size_t s = 0; s < w; ++s) sqr(acc, acc);
      const size_t idx = window_bits(e, e_limbs, win * w, w);
      if (idx == 0) continue;
      if (started) {
        mul(acc, acc, table[idx]);
      } else {
        acc = table[idx];
        started = true;
      }
    }
    r = acc;
  }

 private:
  // r = t mod n for t = top:t[0..K) < 2n.
  void reduce_once(F& r, const uint64_t* t, uint64_t top) const {
    uint64_t d[K];
    uint64_t borrow = 0;
#pragma GCC unroll 8
    for (size_t i = 0; i < K; ++i) {
      const u128 s = static_cast<u128>(t[i]) - n_.v[i] - borrow;
      d[i] = static_cast<uint64_t>(s);
      borrow = static_cast<uint64_t>(s >> 64) & 1;
    }
    // Keep t - n unless it went negative with no top limb to absorb it.
    const uint64_t keep_t = 0 - static_cast<uint64_t>(top == 0 && borrow);
#pragma GCC unroll 8
    for (size_t i = 0; i < K; ++i) r.v[i] = (t[i] & keep_t) | (d[i] & ~keep_t);
  }

  // Three-word column accumulator: lo + 2^128 * top.
  struct Acc {
    u128 lo = 0;
    uint64_t top = 0;

    void mac(uint64_t x, uint64_t y) {
      top += __builtin_add_overflow(lo, static_cast<u128>(x) * y, &lo);
    }
    void add_twice(const Acc& c) {
      top += (c.top << 1) | static_cast<uint64_t>(c.lo >> 127);
      top += __builtin_add_overflow(lo, c.lo << 1, &lo);
    }
    // Emit the low word and shift the accumulator down one word.
    uint64_t shift() {
      const uint64_t out = static_cast<uint64_t>(lo);
      lo = (lo >> 64) | (static_cast<u128>(top) << 64);
      top = 0;
      return out;
    }
  };

  // The reduction half of column i, shared by mul and sqr: add the m_j n_{i-j}
  // terms; in the low K columns pick m_i so the column's low word cancels,
  // in the high ones emit the word into t.
  void column_tail(Acc& acc, uint64_t* m, uint64_t* t, size_t i) const {
    const size_t lo = i < K ? 0 : i - K + 1;
    const size_t hi = i < K ? i : K;
#pragma GCC unroll 8
    for (size_t j = lo; j < hi; ++j) acc.mac(m[j], n_.v[i - j]);
    column_end(acc, m, t, i);
  }

  void column_end(Acc& acc, uint64_t* m, uint64_t* t, size_t i) const {
    if (i < K) {
      m[i] = static_cast<uint64_t>(acc.lo) * n0inv_;
      acc.mac(m[i], n_.v[0]);
      acc.shift();  // zero by construction
    } else {
      t[i - K] = acc.shift();
    }
  }

  // t[0..K-1) plus the accumulator is (a b + m n) / R < 2n; reduce once.
  void finish(F& r, Acc& acc, uint64_t* t) const {
    t[K - 1] = acc.shift();
    reduce_once(r, t, acc.shift());
  }

  // Bits [pos, pos + w) of e (w <= 5), zero beyond the top limb.
  static size_t window_bits(const uint64_t* e, size_t e_limbs, size_t pos,
                            size_t w) {
    const size_t limb = pos / 64;
    const size_t shift = pos % 64;
    uint64_t x = limb < e_limbs ? e[limb] >> shift : 0;
    if (shift + w > 64 && limb + 1 < e_limbs) x |= e[limb + 1] << (64 - shift);
    return static_cast<size_t>(x & ((uint64_t{1} << w) - 1));
  }

  F n_;
  uint64_t n0inv_;
  F rr_;  // R^2 mod n, R = 2^(64K)
  F one_;
};

}  // namespace qtls::fixed
