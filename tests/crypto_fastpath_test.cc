// Differential tests of the fixed-width fast paths against the generic
// Bignum/MontCtx code they replace on the hot path (the oracles): P-256 and
// P-384 scalar multiplication, MontCtx::exp at every fixed width, and RSA
// PKCS#1 signing on the keystore keys. Seeded, so a mismatch reproduces.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "crypto/fixed_mont.h"
#include "crypto/keystore.h"
#include "crypto/primes.h"
#include "crypto/rsa.h"

namespace qtls {
namespace {

// Expects equality of two points, labelled with the scalar for reproduction.
void expect_same_point(const EcPoint& fast, const EcPoint& oracle,
                       const Bignum& k, const char* what) {
  EXPECT_EQ(fast.infinity, oracle.infinity) << what << " k=" << k.to_hex();
  if (fast.infinity || oracle.infinity) return;
  EXPECT_EQ(fast.x, oracle.x) << what << " k=" << k.to_hex();
  EXPECT_EQ(fast.y, oracle.y) << what << " k=" << k.to_hex();
}

// Uniform-enough small integer in [0, bound) for picking sizes.
size_t small_below(HmacDrbg& rng, size_t bound) {
  const Bytes b = rng.generate(4);
  const size_t v = (size_t{b[0]} << 24) | (size_t{b[1]} << 16) |
                   (size_t{b[2]} << 8) | b[3];
  return v % bound;
}

Bignum random_scalar(const EcCurve& curve, HmacDrbg& rng) {
  for (;;) {
    Bignum k = random_below(curve.order(), rng);
    if (!k.is_zero()) return k;
  }
}

// A random point of the prime-order group (never infinity).
EcPoint random_point(const EcCurve& curve, HmacDrbg& rng) {
  return curve.mul_base(random_scalar(curve, rng));
}

// Random K-limb odd modulus; every fourth has a small top limb so the
// reduction bounds are exercised away from R as well as near it.
Bignum random_odd_modulus(size_t limbs, HmacDrbg& rng, size_t i) {
  Bignum m = random_bits(64 * limbs, rng);
  if (i % 4 == 3) m.limbs().back() = 1 + (m.limbs().back() >> 60);
  if (!m.is_odd()) m = Bignum::add(m, Bignum(1));
  return m;
}

// ------------------------------------------------------ curve mul ----

class FastCurveTest : public ::testing::TestWithParam<int> {
 protected:
  const EcCurve& curve() const {
    return GetParam() == 256 ? curve_p256() : curve_p384();
  }
};

INSTANTIATE_TEST_SUITE_P(Curves, FastCurveTest, ::testing::Values(256, 384),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

TEST_P(FastCurveTest, MulMatchesGenericOnRandomInputs) {
  const EcCurve& c = curve();
  HmacDrbg rng = make_test_drbg(15000 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 1000; ++i) {
    const EcPoint pt = random_point(c, rng);
    const Bignum k = random_scalar(c, rng);
    expect_same_point(c.mul(k, pt), c.mul_generic(k, pt), k, "mul");
    if (HasFailure()) return;
  }
}

TEST_P(FastCurveTest, MulBaseMatchesGenericOnRandomInputs) {
  const EcCurve& c = curve();
  HmacDrbg rng = make_test_drbg(15100 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 1000; ++i) {
    const Bignum k = random_scalar(c, rng);
    expect_same_point(c.mul_base(k), c.mul_base_generic(k), k, "mul_base");
    if (HasFailure()) return;
  }
}

TEST_P(FastCurveTest, EdgeScalarsMatchGeneric) {
  const EcCurve& c = curve();
  const Bignum& n = c.order();
  HmacDrbg rng = make_test_drbg(15200 + static_cast<uint64_t>(GetParam()));
  std::vector<Bignum> scalars = {
      Bignum(),
      Bignum(1),
      Bignum(2),
      Bignum(3),
      Bignum(15),
      Bignum(16),
      Bignum::sub(n, Bignum(1)),
      Bignum::sub(n, Bignum(2)),
      n,
      Bignum::add(n, Bignum(1)),
      Bignum::add(n, n),
      Bignum::add(Bignum::add(n, n), Bignum(5)),
      Bignum::sub(Bignum::shl(Bignum(1), n.bit_length()), Bignum(1)),
      Bignum::shl(Bignum(1), n.bit_length() - 1),
      Bignum::sub(Bignum::shl(Bignum(1), 64 * c.field().limbs()), Bignum(1)),
  };
  // Scalars whose top windows (and top comb columns) are zero.
  for (size_t bits : {5, 17, 63, 64, 65, 100, 128, 200}) {
    scalars.push_back(random_bits(bits, rng));
  }
  // Values above n: n + r and r * 2^64 (wider than the order).
  for (int i = 0; i < 4; ++i) {
    const Bignum r = random_scalar(c, rng);
    scalars.push_back(Bignum::add(n, r));
    scalars.push_back(Bignum::shl(r, 64));
  }
  const EcPoint g = c.generator();
  const EcPoint pt = random_point(c, rng);
  for (const Bignum& k : scalars) {
    expect_same_point(c.mul_base(k), c.mul_base_generic(k), k, "mul_base");
    expect_same_point(c.mul(k, g), c.mul_generic(k, g), k, "mul(G)");
    expect_same_point(c.mul(k, pt), c.mul_generic(k, pt), k, "mul(P)");
  }
  // Infinity in, infinity out; k * P + (n - k) * P closes the group.
  EXPECT_TRUE(c.mul(Bignum(7), EcPoint::at_infinity()).infinity);
  const Bignum k = random_scalar(c, rng);
  const EcPoint sum =
      c.add(c.mul(k, pt), c.mul(Bignum::sub(n, k), pt));
  EXPECT_TRUE(sum.infinity);
}

// The comb table is built on first use; concurrent first users of a fresh
// curve object must all see the finished table.
TEST_P(FastCurveTest, ConcurrentFirstMulBaseAgrees) {
  const EcCurve& shared = curve();
  const EcPoint g = shared.generator();
  const EcCurve c(shared.name(), shared.p().to_hex(), shared.a().to_hex(),
                  shared.b().to_hex(), g.x.to_hex(), g.y.to_hex(),
                  shared.order().to_hex());
  const Bignum k = Bignum::from_hex("0123456789abcdef0123456789abcdef");
  const EcPoint expected = c.mul_base_generic(k);
  std::vector<std::thread> threads;
  std::vector<EcPoint> got(4);
  for (size_t t = 0; t < got.size(); ++t)
    threads.emplace_back([&, t] { got[t] = c.mul_base(k); });
  for (auto& th : threads) th.join();
  for (const EcPoint& p : got) expect_same_point(p, expected, k, "threaded");
}

TEST_P(FastCurveTest, EcdhAgreesWithGenericOracle) {
  const EcCurve& c = curve();
  HmacDrbg rng = make_test_drbg(15300 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const EcKeyPair a = ec_generate_key(c, rng);
    const EcKeyPair b = ec_generate_key(c, rng);
    ASSERT_TRUE(c.on_curve(a.pub));
    auto ab = ecdh_shared_secret(c, a.priv, b.pub);
    auto ba = ecdh_shared_secret(c, b.priv, a.pub);
    ASSERT_TRUE(ab.is_ok());
    ASSERT_TRUE(ba.is_ok());
    EXPECT_EQ(ab.value(), ba.value());
    const EcPoint oracle = c.mul_generic(a.priv, c.mul_base_generic(b.priv));
    EXPECT_EQ(ab.value(), oracle.x.to_bytes_be(c.field_bytes()));
  }
}

TEST_P(FastCurveTest, EcdsaRoundTripsAndVerifiesWithGenericOracle) {
  const EcCurve& c = curve();
  const Bignum& n = c.order();
  HmacDrbg rng = make_test_drbg(15400 + static_cast<uint64_t>(GetParam()));
  for (int i = 0; i < 50; ++i) {
    const EcKeyPair key = ec_generate_key(c, rng);
    const Bytes digest = sha256(rng.generate(32));
    const EcdsaSignature sig = ecdsa_sign(c, key.priv, digest, rng);
    EXPECT_TRUE(ecdsa_verify(c, key.pub, digest, sig).is_ok());
    Bytes wrong = digest;
    wrong[0] ^= 1;
    EXPECT_FALSE(ecdsa_verify(c, key.pub, wrong, sig).is_ok());

    // Verify again with generic scalar multiplication only: r == x(u1 G +
    // u2 Q) mod n, u1 = z / s, u2 = r / s.
    Bignum z = Bignum::from_bytes_be(digest);
    if (digest.size() * 8 > n.bit_length())
      z = Bignum::shr(z, digest.size() * 8 - n.bit_length());
    const Bignum sinv = Bignum::mod_inverse(sig.s, n);
    const Bignum u1 = Bignum::mod_mul(Bignum::mod(z, n), sinv, n);
    const Bignum u2 = Bignum::mod_mul(sig.r, sinv, n);
    const EcPoint sum =
        c.add(c.mul_base_generic(u1), c.mul_generic(u2, key.pub));
    ASSERT_FALSE(sum.infinity);
    EXPECT_EQ(Bignum::mod(sum.x, n), sig.r);
  }
}

TEST_P(FastCurveTest, OrderArithmeticMatchesGenericOracle) {
  const EcCurve& c = curve();
  const Bignum& n = c.order();
  HmacDrbg rng = make_test_drbg(15500 + static_cast<uint64_t>(GetParam()));
  std::vector<Bignum> values = {Bignum(1), Bignum(2),
                                Bignum::sub(n, Bignum(1)),
                                Bignum::sub(n, Bignum(2)),
                                Bignum::shl(Bignum(1), n.bit_length() - 1)};
  for (size_t bits : {1, 63, 64, 65, 128, 200}) {
    const Bignum v = random_bits(bits, rng);
    if (!v.is_zero()) values.push_back(v);
  }
  for (int i = 0; i < 500; ++i) values.push_back(random_scalar(c, rng));

  size_t mismatches = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    const Bignum& a = values[i];
    const Bignum& b = values[(i * 7 + 3) % values.size()];
    if (c.order_mul(a, b) != c.order_mul_generic(a, b)) {
      ++mismatches;
      ADD_FAILURE() << "order_mul a=" << a.to_hex() << " b=" << b.to_hex();
    }
    const Bignum inv = c.order_inverse(a);
    if (inv != c.order_inverse_generic(a)) {
      ++mismatches;
      ADD_FAILURE() << "order_inverse a=" << a.to_hex();
    }
    EXPECT_EQ(c.order_mul(a, inv), Bignum(1)) << a.to_hex();
  }
  EXPECT_TRUE(c.order_mul(Bignum(0), values.back()).is_zero());
  EXPECT_EQ(mismatches, 0u);
}

// ECDSA signing replayed on the generic path: the same DRBG stream gives
// the same nonce k, so r and s must match bit for bit.
TEST_P(FastCurveTest, EcdsaSignMatchesGenericOracle) {
  const EcCurve& c = curve();
  const Bignum& n = c.order();
  HmacDrbg rng = make_test_drbg(15600 + static_cast<uint64_t>(GetParam()));
  size_t mismatches = 0;
  for (int i = 0; i < 100; ++i) {
    const EcKeyPair key = ec_generate_key(c, rng);
    const Bytes message = rng.generate(1 + small_below(rng, 200));
    // Digests shorter than, equal to and longer than the order.
    const Bytes digest = i % 3 == 0   ? sha256(message)
                         : i % 3 == 1 ? sha384(message)
                                      : sha512(message);
    const uint64_t nonce_seed = 15700 + static_cast<uint64_t>(i);
    HmacDrbg fast_rng = make_test_drbg(nonce_seed);
    const EcdsaSignature sig = ecdsa_sign(c, key.priv, digest, fast_rng);

    HmacDrbg oracle_rng = make_test_drbg(nonce_seed);
    Bignum z = Bignum::from_bytes_be(digest);
    if (digest.size() * 8 > n.bit_length())
      z = Bignum::shr(z, digest.size() * 8 - n.bit_length());
    z = Bignum::mod(z, n);
    Bignum r, s;
    do {
      Bignum k;
      do {
        k = random_below(n, oracle_rng);
      } while (k.is_zero());
      r = Bignum::mod(c.mul_base_generic(k).x, n);
      if (r.is_zero()) continue;
      s = Bignum::mod_add(c.order_mul_generic(r, key.priv), z, n);
      s = c.order_mul_generic(c.order_inverse_generic(k), s);
    } while (r.is_zero() || s.is_zero());

    if (sig.r != r || sig.s != s) {
      ++mismatches;
      ADD_FAILURE() << "ecdsa_sign i=" << i << " d=" << key.priv.to_hex();
    }
    EXPECT_TRUE(ecdsa_verify(c, key.pub, digest, sig).is_ok());
    EcdsaSignature tampered = sig;
    tampered.s = Bignum::mod_add(tampered.s, Bignum(1), n);
    EXPECT_FALSE(ecdsa_verify(c, key.pub, digest, tampered).is_ok());
  }
  EXPECT_EQ(mismatches, 0u);
}

// --------------------------------------------------- field primitives ----

template <size_t K>
void check_field_ops(uint64_t seed) {
  HmacDrbg rng = make_test_drbg(seed);
  for (size_t i = 0; i < 1000; ++i) {
    const Bignum m = random_odd_modulus(K, rng, i);
    const MontCtx ctx(m);
    const fixed::Mont<K> f(ctx);
    Bignum a = random_below(m, rng);
    Bignum b = random_below(m, rng);
    if (i % 10 == 0) a = Bignum::sub(m, Bignum(1));
    if (i % 10 == 1) b = Bignum();
    using F = fixed::Fe<K>;
    F fa = F::from(a), fb = F::from(b), r;
    f.add(r, fa, fb);
    ASSERT_EQ(r.to_bignum(), Bignum::mod_add(a, b, m)) << "K=" << K;
    f.sub(r, fa, fb);
    ASSERT_EQ(r.to_bignum(), Bignum::mod_sub(a, b, m)) << "K=" << K;
    f.mul(r, fa, fb);
    ASSERT_EQ(r.to_bignum(), ctx.mul(a, b)) << "K=" << K;
    F s;
    f.sqr(s, fa);
    f.mul(r, fa, fa);
    ASSERT_EQ(s, r) << "K=" << K << " a=" << a.to_hex();
  }
}

TEST(FixedMont, FieldOpsMatchGenericAtEveryWidth) {
  check_field_ops<4>(15500);
  check_field_ops<6>(15501);
  check_field_ops<16>(15502);
  check_field_ops<32>(15503);
}

// ------------------------------------------------------ MontCtx::exp ----

void check_exp(size_t limbs, uint64_t seed, size_t cases) {
  HmacDrbg rng = make_test_drbg(seed);
  for (size_t i = 0; i < cases; ++i) {
    const Bignum m = random_odd_modulus(limbs, rng, i);
    const MontCtx ctx(m);
    ASSERT_EQ(ctx.limbs(), limbs);
    // Bases: below m, above m (two moduli wide), and the edges.
    Bignum a = i % 3 == 0 ? Bignum::from_bytes_be(rng.generate(16 * limbs))
                          : random_below(m, rng);
    if (i % 50 == 1) a = Bignum();
    if (i % 50 == 2) a = Bignum(1);
    if (i % 50 == 3) a = Bignum::sub(m, Bignum(1));
    // Exponents: mostly short enough to keep the oracle quick while
    // covering every window size (1, 3, 4, 5 bits); every 50th full width.
    Bignum e;
    const size_t ebits = i % 50 == 4 ? 64 * limbs : small_below(rng, 321);
    if (ebits > 0) e = random_bits(ebits, rng);
    if (i % 50 == 5) e = Bignum(65537);
    if (i % 50 == 6) e = Bignum(1);
    ASSERT_EQ(ctx.exp(a, e), ctx.exp_generic(a, e))
        << "limbs=" << limbs << " m=" << m.to_hex() << " a=" << a.to_hex()
        << " e=" << e.to_hex();
  }
}

TEST(MontExpFastPath, MatchesGenericAtFourLimbs) { check_exp(4, 15600, 1000); }
TEST(MontExpFastPath, MatchesGenericAtSixLimbs) { check_exp(6, 15601, 1000); }
TEST(MontExpFastPath, MatchesGenericAtSixteenLimbs) {
  check_exp(16, 15602, 1000);
}
TEST(MontExpFastPath, MatchesGenericAtThirtyTwoLimbs) {
  check_exp(32, 15603, 1000);
}

// Eight limbs has no fixed-width instance: exp() must take the generic path
// and still agree with plain square-and-multiply.
TEST(MontExpFastPath, GenericWidthAgreesWithSquareAndMultiply) {
  HmacDrbg rng = make_test_drbg(15604);
  for (size_t i = 0; i < 50; ++i) {
    const Bignum m = random_odd_modulus(8, rng, i);
    const MontCtx ctx(m);
    const Bignum a = random_below(m, rng);
    const Bignum e = random_bits(1 + i * 7, rng);
    Bignum naive(1);
    for (size_t b = e.bit_length(); b-- > 0;) {
      naive = Bignum::mod_mul(naive, naive, m);
      if (e.bit(b)) naive = Bignum::mod_mul(naive, a, m);
    }
    ASSERT_EQ(ctx.exp(a, e), naive) << "i=" << i;
    ASSERT_EQ(ctx.exp(a, e), ctx.exp_generic(a, e)) << "i=" << i;
  }
}

// ------------------------------------------------------------- RSA ----

// The CRT private op computed with the generic exponentiation only.
Bignum rsa_private_op_generic(const RsaPrivateKey& key, const Bignum& c) {
  const Bignum m1 = MontCtx(key.p).exp_generic(c, key.dp);
  const Bignum m2 = MontCtx(key.q).exp_generic(c, key.dq);
  const Bignum h =
      Bignum::mod_mul(key.qinv, Bignum::mod_sub(m1, m2, key.p), key.p);
  return Bignum::add(m2, Bignum::mul(h, key.q));
}

void check_rsa(const RsaPrivateKey& key, uint64_t seed) {
  HmacDrbg rng = make_test_drbg(seed);
  const size_t k = key.modulus_bytes();
  for (int i = 0; i < 24; ++i) {
    const Bytes digest = sha256(rng.generate(40));
    const Bytes sig = rsa_sign_pkcs1(key, digest);
    // Oracle: the same EMSA-PKCS1-v1_5 block through the generic CRT.
    Bytes em(k, 0xff);
    em[0] = 0x00;
    em[1] = 0x01;
    em[k - digest.size() - 1] = 0x00;
    std::copy(digest.begin(), digest.end(),
              em.end() - static_cast<ptrdiff_t>(digest.size()));
    const Bignum oracle =
        rsa_private_op_generic(key, Bignum::from_bytes_be(em));
    EXPECT_EQ(sig, oracle.to_bytes_be(k)) << "i=" << i;
    EXPECT_TRUE(rsa_verify_pkcs1(key.pub, digest, sig).is_ok());
    // Public op against its oracle.
    const Bignum s = Bignum::from_bytes_be(sig);
    EXPECT_EQ(rsa_public_op(key.pub, s),
              MontCtx(key.pub.n).exp_generic(s, key.pub.e));
  }
}

TEST(RsaFastPath, Sign2048MatchesGenericOracle) { check_rsa(test_rsa2048(), 15700); }
TEST(RsaFastPath, Sign1024MatchesGenericOracle) { check_rsa(test_rsa1024(), 15701); }

}  // namespace
}  // namespace qtls
