// Prime-field elliptic curves (short Weierstrass y^2 = x^3 + ax + b) with
// Jacobian-coordinate arithmetic over Montgomery-domain field elements.
// Provides NIST P-256 and P-384 — the ECDHE groups and ECDSA curves of
// Figures 7b/7c/8.
//
// Scalar multiplication on a curve with a 4- or 6-limb field and a = -3
// (P-256, P-384) runs on fixed-width stack limbs (crypto/fixed_mont.h);
// every other curve, and the oracle the fast path is tested against, uses
// the generic Bignum/MontCtx code (mul_generic).
#pragma once

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/bn.h"

namespace qtls {

class HmacDrbg;
struct EcFixedPath;  // fixed-width P-256/P-384 scalar multiplication (ec.cc)

struct EcPoint {
  Bignum x;
  Bignum y;
  bool infinity = true;

  static EcPoint at_infinity() { return EcPoint{}; }
  static EcPoint affine(Bignum px, Bignum py) {
    return EcPoint{std::move(px), std::move(py), false};
  }
};

class EcCurve {
 public:
  EcCurve(std::string name, const std::string& p_hex, const std::string& a_hex,
          const std::string& b_hex, const std::string& gx_hex,
          const std::string& gy_hex, const std::string& n_hex);
  ~EcCurve();

  const std::string& name() const { return name_; }
  const Bignum& p() const { return p_; }
  const Bignum& a() const { return a_; }
  const Bignum& b() const { return b_; }
  const Bignum& order() const { return n_; }
  EcPoint generator() const { return EcPoint::affine(gx_, gy_); }
  size_t field_bytes() const { return p_.byte_length(); }

  bool on_curve(const EcPoint& pt) const;
  EcPoint add(const EcPoint& p1, const EcPoint& p2) const;
  EcPoint dbl(const EcPoint& pt) const;
  // Scalar multiplication k * pt (k reduced mod order internally).
  EcPoint mul(const Bignum& k, const EcPoint& pt) const;
  // k * G; on the fixed-width path this uses a comb table for G built on
  // first use.
  EcPoint mul_base(const Bignum& k) const;
  // The generic Bignum/MontCtx multiplication: the oracle for mul/mul_base.
  EcPoint mul_generic(const Bignum& k, const EcPoint& pt) const;
  EcPoint mul_base_generic(const Bignum& k) const {
    return mul_generic(k, generator());
  }

  // Arithmetic modulo the group order n (ECDSA's scalar side); operands in
  // [0, n), and a != 0 to invert. The fixed-width path multiplies on
  // stack limbs and inverts as a^(n-2) (n is prime); the _generic forms
  // (allocating Bignum code, extended Euclid) are its oracle.
  Bignum order_mul(const Bignum& a, const Bignum& b) const;
  Bignum order_inverse(const Bignum& a) const;
  Bignum order_mul_generic(const Bignum& a, const Bignum& b) const {
    return Bignum::mod_mul(a, b, n_);
  }
  Bignum order_inverse_generic(const Bignum& a) const {
    return Bignum::mod_inverse(a, n_);
  }

  // SEC1 uncompressed encoding: 0x04 || X || Y.
  Bytes encode_point(const EcPoint& pt) const;
  Result<EcPoint> decode_point(BytesView data) const;

  const MontCtx& field() const { return *mont_; }

 private:
  struct Jacobian;
  Jacobian to_jacobian(const EcPoint& pt) const;
  EcPoint to_affine(const Jacobian& pt) const;
  Jacobian jadd(const Jacobian& p1, const Jacobian& p2) const;
  Jacobian jdbl(const Jacobian& pt) const;

  std::string name_;
  Bignum p_, a_, b_, gx_, gy_, n_;
  std::unique_ptr<MontCtx> mont_;
  Bignum a_mont_, b_mont_;
  std::unique_ptr<const EcFixedPath> fixed_;  // null: generic path only
};

// Built-in curves (lazily constructed singletons).
const EcCurve& curve_p256();
const EcCurve& curve_p384();

enum class CurveId : uint8_t {
  kP256 = 23,  // TLS NamedCurve secp256r1
  kP384 = 24,  // secp384r1
  kB283 = 9,   // sect283r1 (binary; see ec2m.h)
  kB409 = 11,  // sect409r1
  kK283 = 10,  // sect283k1
  kK409 = 12,  // sect409k1
};
const char* curve_name(CurveId id);
bool curve_is_binary(CurveId id);

struct EcKeyPair {
  Bignum priv;   // scalar d in [1, n-1]
  EcPoint pub;   // d * G
};

EcKeyPair ec_generate_key(const EcCurve& curve, HmacDrbg& rng);
// ECDH: x-coordinate of d * peer, serialized to field size.
Result<Bytes> ecdh_shared_secret(const EcCurve& curve, const Bignum& priv,
                                 const EcPoint& peer);

struct EcdsaSignature {
  Bignum r;
  Bignum s;

  Bytes encode() const;  // r || s, each padded to order size
  static Result<EcdsaSignature> decode(BytesView data, const EcCurve& curve);
};

EcdsaSignature ecdsa_sign(const EcCurve& curve, const Bignum& priv,
                          BytesView digest, HmacDrbg& rng);
Status ecdsa_verify(const EcCurve& curve, const EcPoint& pub, BytesView digest,
                    const EcdsaSignature& sig);

}  // namespace qtls
