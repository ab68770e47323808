#include "probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "crypto/aes.h"
#include "crypto/ec.h"
#include "crypto/gcm.h"
#include "crypto/kdf.h"
#include "crypto/keystore.h"
#include "crypto/rsa.h"

namespace perfbench {

namespace {

constexpr size_t kRecord = 16 * 1024;
// Every probe result feeds this, so no timed call can be dropped.
volatile size_t g_sink = 0;

// Median of `reps` timed calls of `fn`, in microseconds.
template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
  }
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

}  // namespace

CryptoProbes run_crypto_probes(const qtls::RsaPrivateKey& key, bool all,
                               int reps, uint64_t seed) {
  qtls::HmacDrbg rng = qtls::make_test_drbg(seed ^ 0x70726f6265ULL);
  CryptoProbes out;
  size_t sink = 0;

  const qtls::Bytes digest = rng.generate(32);
  out.rsa2048_sign_us = median_us(reps, [&](int) {
    sink += qtls::rsa_sign_pkcs1(key, digest).size();
  });
  if (!all) return out;

  const qtls::EcCurve& p256 = qtls::curve_p256();
  const qtls::EcKeyPair mine = qtls::ec_generate_key(p256, rng);
  const qtls::EcKeyPair peer = qtls::ec_generate_key(p256, rng);
  out.p256_ecdh_us = median_us(reps, [&](int) {
    auto secret = qtls::ecdh_shared_secret(p256, mine.priv, peer.pub);
    sink += secret.is_ok() ? secret.value().size() : 0;
  });

  const qtls::Bytes payload = rng.generate(kRecord);
  const qtls::Bytes aes_key = rng.generate(16);
  const qtls::Bytes nonce = rng.generate(qtls::kGcmNonceSize);
  const qtls::Bytes aad = rng.generate(13);
  out.gcm_seal_16k_us = median_us(reps, [&](int) {
    sink += qtls::gcm_seal(aes_key, nonce, aad, payload).size();
  });

  qtls::CbcHmacKeys cbc;
  cbc.enc_key = aes_key;
  cbc.mac_key = rng.generate(20);
  cbc.mac_alg = qtls::HashAlg::kSha1;
  const qtls::Bytes header = rng.generate(5);
  const qtls::Bytes iv = rng.generate(16);
  out.cbc_hmac_seal_16k_us = median_us(reps, [&](int i) {
    sink += qtls::cbc_hmac_seal(cbc, static_cast<uint64_t>(i), header, iv,
                                payload)
                .size();
  });

  // A TLS 1.2 key-block expansion for AES128-CBC-SHA: 2 x (20 + 16 + 16).
  const qtls::Bytes master = rng.generate(48);
  const qtls::Bytes randoms = rng.generate(64);
  out.prf_tls12_us = median_us(reps * 10, [&](int) {
    sink += qtls::tls12_prf(qtls::HashAlg::kSha256, master, "key expansion",
                            randoms, 104)
                .size();
  });

  g_sink = sink;
  return out;
}

}  // namespace perfbench
