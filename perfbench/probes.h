// Fixed-count, single-thread timings of the public crypto functions the
// server offloads (the `openssl speed` discipline: one algorithm at a time).
// Run before any server thread exists, they also record how fast the host
// was during a run.
#pragma once

#include <cstdint>

namespace qtls {
struct RsaPrivateKey;
}

namespace perfbench {

struct CryptoProbes {
  double rsa2048_sign_us = 0;
  double p256_ecdh_us = 0;
  double gcm_seal_16k_us = 0;
  double cbc_hmac_seal_16k_us = 0;
  double prf_tls12_us = 0;
};

// Median microseconds per call of `reps` calls. With `all` false only the
// RSA probe runs (the per-run host-speed diagnostic).
CryptoProbes run_crypto_probes(const qtls::RsaPrivateKey& key, bool all,
                               int reps, uint64_t seed);

}  // namespace perfbench
