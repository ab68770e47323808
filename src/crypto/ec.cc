#include "crypto/ec.h"

#include <algorithm>
#include <mutex>
#include <vector>

#include "crypto/fixed_mont.h"
#include "crypto/kdf.h"
#include "crypto/primes.h"

namespace qtls {

// Scalar multiplication by a scalar already reduced into [1, n) of a point
// that is not at infinity.
struct EcFixedPath {
  EcFixedPath() = default;
  EcFixedPath(const EcFixedPath&) = delete;
  EcFixedPath& operator=(const EcFixedPath&) = delete;
  virtual ~EcFixedPath() = default;

  virtual EcPoint mul(const Bignum& k, const EcPoint& pt) const = 0;
  virtual EcPoint mul_base(const Bignum& k) const = 0;
  // Arithmetic modulo the group order n, operands in [0, n).
  virtual Bignum order_mul(const Bignum& a, const Bignum& b) const = 0;
  virtual Bignum order_inverse(const Bignum& a) const = 0;
};

namespace {

// P-256/P-384 on K-limb stack field elements: Jacobian formulas specialised
// to a = -3 (dbl-2001-b, add-2007-bl, madd-2007-bl), Fermat inversion
// (z^(p-2)) in to_affine, a 4-bit fixed window for variable points and an
// 8-tooth Lim-Lee comb for the generator. ECDSA's arithmetic modulo the
// (prime, K-limb) order n runs on a second Mont<K>, inverting as a^(n-2).
template <size_t K>
class FixedCurve final : public EcFixedPath {
 public:
  using F = fixed::Fe<K>;

  FixedCurve(const EcCurve& curve, const MontCtx& order)
      : f_(curve.field()),
        p_minus_2_(F::from(Bignum::sub(curve.p(), Bignum(2)))),
        g_(to_jacobian(curve.generator())),
        comb_cols_((curve.order().bit_length() + kTeeth - 1) / kTeeth),
        n_(order),
        n_minus_2_(F::from(Bignum::sub(curve.order(), Bignum(2)))) {}

  EcPoint mul(const Bignum& k, const EcPoint& pt) const override {
    Jac table[16];
    table[1] = to_jacobian(pt);
    dbl(table[2], table[1]);
    for (size_t i = 3; i < 16; ++i) add(table[i], table[i - 1], table[1]);

    const F s = F::from(k);
    Jac acc;
    for (size_t win = (k.bit_length() + 3) / 4; win-- > 0;) {
      for (int d = 0; d < 4; ++d) dbl(acc, acc);
      const size_t idx = (s.v[win / 16] >> (4 * (win % 16))) & 0xf;
      if (idx != 0) add(acc, acc, table[idx]);
    }
    return to_affine(acc);
  }

  EcPoint mul_base(const Bignum& k) const override {
    const std::vector<Aff>& comb = comb_table();
    const F s = F::from(k);
    Jac acc;
    for (size_t col = comb_cols_; col-- > 0;) {
      dbl(acc, acc);
      size_t mask = 0;
      for (size_t j = 0; j < kTeeth; ++j) {
        const size_t bit = j * comb_cols_ + col;
        if (bit / 64 < K) mask |= ((s.v[bit / 64] >> (bit % 64)) & 1) << j;
      }
      if (mask != 0) add_affine(acc, acc, comb[mask - 1]);
    }
    return to_affine(acc);
  }

  // a b mod n: a R * b / R, with one multiply to enter the domain.
  Bignum order_mul(const Bignum& a, const Bignum& b) const override {
    F r;
    n_.to_mont(r, F::from(a));
    n_.mul(r, r, F::from(b));
    return r.to_bignum();
  }

  Bignum order_inverse(const Bignum& a) const override {
    F r;
    n_.to_mont(r, F::from(a));
    n_.exp(r, r, n_minus_2_.v, K);
    n_.from_mont(r, r);
    return r.to_bignum();
  }

 private:
  static constexpr size_t kTeeth = 8;

  // Montgomery-domain coordinates; infinity iff z == 0 (the default).
  struct Jac {
    F x, y, z;
  };
  struct Aff {
    F x, y;
  };

  Jac to_jacobian(const EcPoint& pt) const {
    Jac out;
    f_.to_mont(out.x, F::from(pt.x));
    f_.to_mont(out.y, F::from(pt.y));
    out.z = f_.one();
    return out;
  }

  EcPoint to_affine(const Jac& p) const {
    if (p.z.is_zero()) return EcPoint::at_infinity();
    F zinv, x, y;
    invert(zinv, p.z);
    to_affine_coords(x, y, p, zinv);
    f_.from_mont(x, x);
    f_.from_mont(y, y);
    return EcPoint::affine(x.to_bignum(), y.to_bignum());
  }

  void invert(F& r, const F& a) const { f_.exp(r, a, p_minus_2_.v, K); }

  // x = X / Z^2, y = Y / Z^3 given zinv = 1 / Z (all Montgomery domain).
  void to_affine_coords(F& x, F& y, const Jac& p, const F& zinv) const {
    F zinv2;
    f_.sqr(zinv2, zinv);
    f_.mul(x, p.x, zinv2);
    f_.mul(zinv2, zinv2, zinv);
    f_.mul(y, p.y, zinv2);
  }

  // dbl-2001-b (a = -3). r may alias p.
  void dbl(Jac& r, const Jac& p) const {
    if (p.z.is_zero() || p.y.is_zero()) {
      r = Jac{};
      return;
    }
    F delta, gamma, beta, alpha, t;
    f_.sqr(delta, p.z);
    f_.sqr(gamma, p.y);
    f_.mul(beta, p.x, gamma);
    // alpha = 3 (X - delta)(X + delta)
    f_.sub(t, p.x, delta);
    f_.add(alpha, p.x, delta);
    f_.mul(t, t, alpha);
    f_.add(alpha, t, t);
    f_.add(alpha, alpha, t);
    // Z3 = 2 Y Z
    F z3;
    f_.mul(z3, p.y, p.z);
    f_.add(z3, z3, z3);
    // X3 = alpha^2 - 8 beta
    F beta4, x3;
    f_.add(beta4, beta, beta);
    f_.add(beta4, beta4, beta4);
    f_.sqr(x3, alpha);
    f_.sub(x3, x3, beta4);
    f_.sub(x3, x3, beta4);
    // Y3 = alpha (4 beta - X3) - 8 gamma^2
    F y3;
    f_.sub(y3, beta4, x3);
    f_.mul(y3, y3, alpha);
    f_.sqr(t, gamma);
    f_.add(t, t, t);
    f_.add(t, t, t);
    f_.add(t, t, t);
    f_.sub(y3, y3, t);
    r.x = x3;
    r.y = y3;
    r.z = z3;
  }

  // Shared tail of add/add_affine: given U1, S1 (the first point scaled to
  // the common denominator), H = U2 - U1, R = S2 - S1 and zh = Z1 Z2,
  // X3 = R'^2 - J - 2V, Y3 = R' (V - X3) - 2 S1 J and Z3 = 2 H zh, with
  // I = (2H)^2, J = H I, R' = 2R, V = U1 I. Every input is read before r
  // is written, so r may alias the point they came from.
  void finish_add(Jac& r, const F& u1, const F& s1, const F& h, const F& rr,
                  const F& zh) const {
    F i, j, v, r2, x3, y3, z3, t;
    f_.add(i, h, h);
    f_.sqr(i, i);
    f_.mul(j, h, i);
    f_.add(r2, rr, rr);
    f_.mul(v, u1, i);
    f_.sqr(x3, r2);
    f_.sub(x3, x3, j);
    f_.sub(x3, x3, v);
    f_.sub(x3, x3, v);
    f_.sub(y3, v, x3);
    f_.mul(y3, y3, r2);
    f_.mul(t, s1, j);
    f_.add(t, t, t);
    f_.sub(y3, y3, t);
    f_.mul(z3, zh, h);
    f_.add(z3, z3, z3);
    r.x = x3;
    r.y = y3;
    r.z = z3;
  }

  // add-2007-bl. r may alias p or q.
  void add(Jac& r, const Jac& p, const Jac& q) const {
    if (p.z.is_zero()) {
      r = q;
      return;
    }
    if (q.z.is_zero()) {
      r = p;
      return;
    }
    F z1z1, z2z2, u1, u2, s1, s2, h, rr;
    f_.sqr(z1z1, p.z);
    f_.sqr(z2z2, q.z);
    f_.mul(u1, p.x, z2z2);
    f_.mul(u2, q.x, z1z1);
    f_.mul(s1, p.y, q.z);
    f_.mul(s1, s1, z2z2);
    f_.mul(s2, q.y, p.z);
    f_.mul(s2, s2, z1z1);
    f_.sub(h, u2, u1);
    f_.sub(rr, s2, s1);
    if (h.is_zero()) {
      if (rr.is_zero()) {
        dbl(r, p);
      } else {
        r = Jac{};  // P + (-P)
      }
      return;
    }
    F zz;
    f_.mul(zz, p.z, q.z);
    finish_add(r, u1, s1, h, rr, zz);
  }

  // madd-2007-bl: q affine (Z2 = 1). r may alias p.
  void add_affine(Jac& r, const Jac& p, const Aff& q) const {
    if (p.z.is_zero()) {
      r.x = q.x;
      r.y = q.y;
      r.z = f_.one();
      return;
    }
    F z1z1, u2, s2, h, rr;
    f_.sqr(z1z1, p.z);
    f_.mul(u2, q.x, z1z1);
    f_.mul(s2, q.y, p.z);
    f_.mul(s2, s2, z1z1);
    f_.sub(h, u2, p.x);
    f_.sub(rr, s2, p.y);
    if (h.is_zero()) {
      if (rr.is_zero()) {
        dbl(r, p);
      } else {
        r = Jac{};
      }
      return;
    }
    finish_add(r, p.x, p.y, h, rr, p.z);
  }

  // comb[mask - 1] = sum over the set bits j of mask of 2^(j * cols) G, in
  // affine Montgomery form: 255 points, 16 KB for P-256 and 24 KB for P-384.
  // Built on first use; call_once makes concurrent first callers wait.
  const std::vector<Aff>& comb_table() const {
    std::call_once(comb_once_, [this] { build_comb(); });
    return comb_;
  }

  void build_comb() const {
    constexpr size_t kEntries = (size_t{1} << kTeeth) - 1;
    std::vector<Jac> pts(kEntries);
    Jac tooth = g_;
    for (size_t j = 0; j < kTeeth; ++j) {
      if (j > 0)
        for (size_t d = 0; d < comb_cols_; ++d) dbl(tooth, tooth);
      const size_t high = size_t{1} << j;
      pts[high - 1] = tooth;
      for (size_t mask = high + 1; mask < 2 * high; ++mask)
        add(pts[mask - 1], pts[mask - high - 1], tooth);
    }
    // One inversion for all 255 points (Montgomery's batch trick):
    // prefix[i] = z_0 ... z_{i-1}.
    std::vector<F> prefix(kEntries);
    F acc = f_.one();
    for (size_t i = 0; i < kEntries; ++i) {
      prefix[i] = acc;
      f_.mul(acc, acc, pts[i].z);
    }
    F inv;
    invert(inv, acc);  // 1 / (z_0 ... z_{n-1})
    comb_.resize(kEntries);
    for (size_t i = kEntries; i-- > 0;) {
      F zinv;
      f_.mul(zinv, inv, prefix[i]);
      f_.mul(inv, inv, pts[i].z);
      to_affine_coords(comb_[i].x, comb_[i].y, pts[i], zinv);
    }
  }

  const fixed::Mont<K> f_;
  const F p_minus_2_;
  const Jac g_;
  const size_t comb_cols_;  // ceil(order bits / kTeeth)
  mutable std::once_flag comb_once_;
  mutable std::vector<Aff> comb_;
  const fixed::Mont<K> n_;  // the group order
  const F n_minus_2_;
};

}  // namespace

// Jacobian point with coordinates in the Montgomery domain of the field.
struct EcCurve::Jacobian {
  Bignum x, y, z;  // infinity iff z == 0
  bool is_infinity() const { return z.is_zero(); }
};

EcCurve::EcCurve(std::string name, const std::string& p_hex,
                 const std::string& a_hex, const std::string& b_hex,
                 const std::string& gx_hex, const std::string& gy_hex,
                 const std::string& n_hex)
    : name_(std::move(name)),
      p_(Bignum::from_hex(p_hex)),
      a_(Bignum::from_hex(a_hex)),
      b_(Bignum::from_hex(b_hex)),
      gx_(Bignum::from_hex(gx_hex)),
      gy_(Bignum::from_hex(gy_hex)),
      n_(Bignum::from_hex(n_hex)),
      mont_(std::make_unique<MontCtx>(p_)) {
  a_mont_ = mont_->to_mont(a_);
  b_mont_ = mont_->to_mont(b_);
  // The fixed-width formulas assume a = -3, as on every NIST prime curve,
  // and an order as wide as the field.
  if (a_ == Bignum::sub(p_, Bignum(3)) && n_.is_odd()) {
    const MontCtx order(n_);
    if (mont_->limbs() == 4 && order.limbs() == 4)
      fixed_ = std::make_unique<FixedCurve<4>>(*this, order);
    if (mont_->limbs() == 6 && order.limbs() == 6)
      fixed_ = std::make_unique<FixedCurve<6>>(*this, order);
  }
}

EcCurve::~EcCurve() = default;

bool EcCurve::on_curve(const EcPoint& pt) const {
  if (pt.infinity) return true;
  if (Bignum::cmp(pt.x, p_) >= 0 || Bignum::cmp(pt.y, p_) >= 0) return false;
  // y^2 == x^3 + ax + b (mod p)
  const Bignum x = mont_->to_mont(pt.x);
  const Bignum y = mont_->to_mont(pt.y);
  const Bignum y2 = mont_->mul(y, y);
  const Bignum x2 = mont_->mul(x, x);
  const Bignum x3 = mont_->mul(x2, x);
  Bignum rhs = Bignum::mod_add(x3, mont_->mul(a_mont_, x), p_);
  rhs = Bignum::mod_add(rhs, b_mont_, p_);
  return Bignum::cmp(y2, rhs) == 0;
}

EcCurve::Jacobian EcCurve::to_jacobian(const EcPoint& pt) const {
  if (pt.infinity) return Jacobian{Bignum(), Bignum(), Bignum()};
  return Jacobian{mont_->to_mont(pt.x), mont_->to_mont(pt.y),
                  mont_->one_mont()};
}

EcPoint EcCurve::to_affine(const Jacobian& pt) const {
  if (pt.is_infinity()) return EcPoint::at_infinity();
  // x = X / Z^2, y = Y / Z^3
  const Bignum z_norm = mont_->from_mont(pt.z);
  const Bignum zinv = Bignum::mod_inverse(z_norm, p_);
  const Bignum zinv_m = mont_->to_mont(zinv);
  const Bignum zinv2 = mont_->mul(zinv_m, zinv_m);
  const Bignum zinv3 = mont_->mul(zinv2, zinv_m);
  return EcPoint::affine(mont_->from_mont(mont_->mul(pt.x, zinv2)),
                         mont_->from_mont(mont_->mul(pt.y, zinv3)));
}

// dbl-2007-bl style doubling (general a).
EcCurve::Jacobian EcCurve::jdbl(const Jacobian& pt) const {
  if (pt.is_infinity() || pt.y.is_zero())
    return Jacobian{Bignum(), Bignum(), Bignum()};
  const MontCtx& m = *mont_;
  const Bignum xx = m.mul(pt.x, pt.x);
  const Bignum yy = m.mul(pt.y, pt.y);
  const Bignum yyyy = m.mul(yy, yy);
  const Bignum zz = m.mul(pt.z, pt.z);
  // S = 2*((X+YY)^2 - XX - YYYY)
  Bignum t = Bignum::mod_add(pt.x, yy, p_);
  t = m.mul(t, t);
  t = Bignum::mod_sub(t, xx, p_);
  t = Bignum::mod_sub(t, yyyy, p_);
  const Bignum s = Bignum::mod_add(t, t, p_);
  // M = 3*XX + a*ZZ^2
  Bignum mm = Bignum::mod_add(xx, xx, p_);
  mm = Bignum::mod_add(mm, xx, p_);
  const Bignum zz2 = m.mul(zz, zz);
  mm = Bignum::mod_add(mm, m.mul(a_mont_, zz2), p_);
  // X3 = M^2 - 2S
  Bignum x3 = m.mul(mm, mm);
  x3 = Bignum::mod_sub(x3, Bignum::mod_add(s, s, p_), p_);
  // Y3 = M*(S - X3) - 8*YYYY
  Bignum y3 = m.mul(mm, Bignum::mod_sub(s, x3, p_));
  Bignum yyyy8 = Bignum::mod_add(yyyy, yyyy, p_);
  yyyy8 = Bignum::mod_add(yyyy8, yyyy8, p_);
  yyyy8 = Bignum::mod_add(yyyy8, yyyy8, p_);
  y3 = Bignum::mod_sub(y3, yyyy8, p_);
  // Z3 = (Y+Z)^2 - YY - ZZ = 2*Y*Z
  Bignum z3 = Bignum::mod_add(pt.y, pt.z, p_);
  z3 = m.mul(z3, z3);
  z3 = Bignum::mod_sub(z3, yy, p_);
  z3 = Bignum::mod_sub(z3, zz, p_);
  return Jacobian{x3, y3, z3};
}

// add-2007-bl general addition.
EcCurve::Jacobian EcCurve::jadd(const Jacobian& p1, const Jacobian& p2) const {
  if (p1.is_infinity()) return p2;
  if (p2.is_infinity()) return p1;
  const MontCtx& m = *mont_;
  const Bignum z1z1 = m.mul(p1.z, p1.z);
  const Bignum z2z2 = m.mul(p2.z, p2.z);
  const Bignum u1 = m.mul(p1.x, z2z2);
  const Bignum u2 = m.mul(p2.x, z1z1);
  const Bignum s1 = m.mul(m.mul(p1.y, p2.z), z2z2);
  const Bignum s2 = m.mul(m.mul(p2.y, p1.z), z1z1);
  if (Bignum::cmp(u1, u2) == 0) {
    if (Bignum::cmp(s1, s2) == 0) return jdbl(p1);
    return Jacobian{Bignum(), Bignum(), Bignum()};  // P + (-P) = O
  }
  const Bignum h = Bignum::mod_sub(u2, u1, p_);
  Bignum i = Bignum::mod_add(h, h, p_);
  i = m.mul(i, i);
  const Bignum j = m.mul(h, i);
  Bignum r = Bignum::mod_sub(s2, s1, p_);
  r = Bignum::mod_add(r, r, p_);
  const Bignum v = m.mul(u1, i);
  // X3 = r^2 - J - 2V
  Bignum x3 = m.mul(r, r);
  x3 = Bignum::mod_sub(x3, j, p_);
  x3 = Bignum::mod_sub(x3, Bignum::mod_add(v, v, p_), p_);
  // Y3 = r*(V - X3) - 2*S1*J
  Bignum y3 = m.mul(r, Bignum::mod_sub(v, x3, p_));
  Bignum s1j = m.mul(s1, j);
  y3 = Bignum::mod_sub(y3, Bignum::mod_add(s1j, s1j, p_), p_);
  // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
  Bignum z3 = Bignum::mod_add(p1.z, p2.z, p_);
  z3 = m.mul(z3, z3);
  z3 = Bignum::mod_sub(z3, z1z1, p_);
  z3 = Bignum::mod_sub(z3, z2z2, p_);
  z3 = m.mul(z3, h);
  return Jacobian{x3, y3, z3};
}

EcPoint EcCurve::add(const EcPoint& p1, const EcPoint& p2) const {
  return to_affine(jadd(to_jacobian(p1), to_jacobian(p2)));
}

EcPoint EcCurve::dbl(const EcPoint& pt) const {
  return to_affine(jdbl(to_jacobian(pt)));
}

EcPoint EcCurve::mul(const Bignum& k, const EcPoint& pt) const {
  if (!fixed_) return mul_generic(k, pt);
  if (pt.infinity) return EcPoint::at_infinity();
  const Bignum scalar = Bignum::cmp(k, n_) >= 0 ? Bignum::mod(k, n_) : k;
  if (scalar.is_zero()) return EcPoint::at_infinity();
  return fixed_->mul(scalar, pt);
}

EcPoint EcCurve::mul_base(const Bignum& k) const {
  if (!fixed_) return mul_base_generic(k);
  const Bignum scalar = Bignum::cmp(k, n_) >= 0 ? Bignum::mod(k, n_) : k;
  if (scalar.is_zero()) return EcPoint::at_infinity();
  return fixed_->mul_base(scalar);
}

Bignum EcCurve::order_mul(const Bignum& a, const Bignum& b) const {
  return fixed_ ? fixed_->order_mul(a, b) : order_mul_generic(a, b);
}

Bignum EcCurve::order_inverse(const Bignum& a) const {
  return fixed_ ? fixed_->order_inverse(a) : order_inverse_generic(a);
}

EcPoint EcCurve::mul_generic(const Bignum& k, const EcPoint& pt) const {
  Bignum scalar = Bignum::cmp(k, n_) >= 0 ? Bignum::mod(k, n_) : k;
  if (scalar.is_zero() || pt.infinity) return EcPoint::at_infinity();

  // 4-bit fixed window.
  constexpr size_t kWindow = 4;
  const Jacobian base = to_jacobian(pt);
  std::vector<Jacobian> table(1 << kWindow,
                              Jacobian{Bignum(), Bignum(), Bignum()});
  table[1] = base;
  for (size_t i = 2; i < table.size(); ++i) table[i] = jadd(table[i - 1], base);

  const size_t bits = scalar.bit_length();
  const size_t windows = (bits + kWindow - 1) / kWindow;
  Jacobian acc{Bignum(), Bignum(), Bignum()};
  for (size_t w = windows; w-- > 0;) {
    for (size_t s = 0; s < kWindow; ++s) acc = jdbl(acc);
    uint64_t idx = 0;
    for (size_t b = kWindow; b-- > 0;)
      idx = (idx << 1) | (scalar.bit(w * kWindow + b) ? 1 : 0);
    if (idx != 0) acc = jadd(acc, table[idx]);
  }
  return to_affine(acc);
}

Bytes EcCurve::encode_point(const EcPoint& pt) const {
  const size_t fb = field_bytes();
  Bytes out;
  out.reserve(1 + 2 * fb);
  if (pt.infinity) {
    out.push_back(0x00);
    return out;
  }
  out.push_back(0x04);
  append(out, pt.x.to_bytes_be(fb));
  append(out, pt.y.to_bytes_be(fb));
  return out;
}

Result<EcPoint> EcCurve::decode_point(BytesView data) const {
  const size_t fb = field_bytes();
  if (data.size() == 1 && data[0] == 0x00) return EcPoint::at_infinity();
  if (data.size() != 1 + 2 * fb || data[0] != 0x04)
    return err(Code::kInvalidArgument, "bad point encoding");
  EcPoint pt = EcPoint::affine(Bignum::from_bytes_be(data.subspan(1, fb)),
                               Bignum::from_bytes_be(data.subspan(1 + fb, fb)));
  if (!on_curve(pt)) return err(Code::kCryptoError, "point not on curve");
  return pt;
}

const EcCurve& curve_p256() {
  static const EcCurve curve(
      "P-256",
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff",
      "ffffffff00000001000000000000000000000000fffffffffffffffffffffffc",
      "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
      "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
      "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
  return curve;
}

const EcCurve& curve_p384() {
  static const EcCurve curve(
      "P-384",
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe"
      "ffffffff0000000000000000ffffffff",
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe"
      "ffffffff0000000000000000fffffffc",
      "b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875a"
      "c656398d8a2ed19d2a85c8edd3ec2aef",
      "aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a38"
      "5502f25dbf55296c3a545e3872760ab7",
      "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c0"
      "0a60b1ce1d7e819d7a431d7c90ea0e5f",
      "ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf"
      "581a0db248b0a77aecec196accc52973");
  return curve;
}

const char* curve_name(CurveId id) {
  switch (id) {
    case CurveId::kP256: return "P-256";
    case CurveId::kP384: return "P-384";
    case CurveId::kB283: return "B-283";
    case CurveId::kB409: return "B-409";
    case CurveId::kK283: return "K-283";
    case CurveId::kK409: return "K-409";
  }
  return "?";
}

bool curve_is_binary(CurveId id) {
  switch (id) {
    case CurveId::kB283:
    case CurveId::kB409:
    case CurveId::kK283:
    case CurveId::kK409:
      return true;
    default:
      return false;
  }
}

EcKeyPair ec_generate_key(const EcCurve& curve, HmacDrbg& rng) {
  for (;;) {
    Bignum d = random_below(curve.order(), rng);
    if (d.is_zero()) continue;
    return EcKeyPair{d, curve.mul_base(d)};
  }
}

Result<Bytes> ecdh_shared_secret(const EcCurve& curve, const Bignum& priv,
                                 const EcPoint& peer) {
  if (!curve.on_curve(peer) || peer.infinity)
    return err(Code::kCryptoError, "invalid peer point");
  const EcPoint shared = curve.mul(priv, peer);
  if (shared.infinity) return err(Code::kCryptoError, "degenerate ECDH result");
  return shared.x.to_bytes_be(curve.field_bytes());
}

Bytes EcdsaSignature::encode() const {
  // Fixed-width r || s keeps parsing trivial; width from r/s actual size is
  // ambiguous, so the caller supplies the curve on decode.
  const size_t w = std::max(r.byte_length(), s.byte_length());
  Bytes out;
  append(out, r.to_bytes_be(w));
  append(out, s.to_bytes_be(w));
  return out;
}

Result<EcdsaSignature> EcdsaSignature::decode(BytesView data,
                                              const EcCurve& curve) {
  (void)curve;
  if (data.size() % 2 != 0 || data.empty())
    return err(Code::kInvalidArgument, "bad signature encoding");
  const size_t half = data.size() / 2;
  return EcdsaSignature{Bignum::from_bytes_be(data.subspan(0, half)),
                        Bignum::from_bytes_be(data.subspan(half, half))};
}

namespace {
// Digest -> integer per FIPS 186-4: leftmost order-bits of the digest.
Bignum digest_to_scalar(const EcCurve& curve, BytesView digest) {
  Bignum z = Bignum::from_bytes_be(digest);
  const size_t order_bits = curve.order().bit_length();
  const size_t digest_bits = digest.size() * 8;
  if (digest_bits > order_bits) z = Bignum::shr(z, digest_bits - order_bits);
  return z;
}
}  // namespace

EcdsaSignature ecdsa_sign(const EcCurve& curve, const Bignum& priv,
                          BytesView digest, HmacDrbg& rng) {
  const Bignum& n = curve.order();
  const Bignum z = Bignum::mod(digest_to_scalar(curve, digest), n);
  const Bignum d = Bignum::cmp(priv, n) >= 0 ? Bignum::mod(priv, n) : priv;
  for (;;) {
    Bignum k = random_below(n, rng);
    if (k.is_zero()) continue;
    const EcPoint kg = curve.mul_base(k);
    const Bignum r = Bignum::mod(kg.x, n);
    if (r.is_zero()) continue;
    // s = k^-1 (z + r d) mod n
    Bignum s = curve.order_mul(r, d);
    s = Bignum::mod_add(s, z, n);
    s = curve.order_mul(curve.order_inverse(k), s);
    if (s.is_zero()) continue;
    return EcdsaSignature{r, s};
  }
}

Status ecdsa_verify(const EcCurve& curve, const EcPoint& pub, BytesView digest,
                    const EcdsaSignature& sig) {
  const Bignum& n = curve.order();
  if (sig.r.is_zero() || sig.s.is_zero() || Bignum::cmp(sig.r, n) >= 0 ||
      Bignum::cmp(sig.s, n) >= 0)
    return err(Code::kCryptoError, "signature out of range");
  if (!curve.on_curve(pub) || pub.infinity)
    return err(Code::kCryptoError, "invalid public key");
  const Bignum z = Bignum::mod(digest_to_scalar(curve, digest), n);
  const Bignum sinv = curve.order_inverse(sig.s);
  const Bignum u1 = curve.order_mul(z, sinv);
  const Bignum u2 = curve.order_mul(sig.r, sinv);
  const EcPoint p1 = curve.mul_base(u1);
  const EcPoint p2 = curve.mul(u2, pub);
  const EcPoint sum = curve.add(p1, p2);
  if (sum.infinity) return err(Code::kCryptoError, "verification failed");
  if (Bignum::cmp(Bignum::mod(sum.x, n), sig.r) != 0)
    return err(Code::kCryptoError, "signature mismatch");
  return Status::ok();
}

}  // namespace qtls
