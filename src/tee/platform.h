// Simulated TEE hardware platform.
//
// SUBSTITUTION (DESIGN.md §2): stands in for Intel SGX hardware. The platform
// owns the hardware root key used to key quotes (EPID-style: only the
// attestation verifier — IAS or an attested CAS — can check a quote, which
// is exactly the operational model of SGX remote attestation). Per-platform
// entropy seeds enclave DRBGs deterministically.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "crypto/hmac.h"

namespace recipe::tee {

class TeePlatform {
 public:
  explicit TeePlatform(std::uint64_t platform_seed);

  // The hardware root key (fused into the CPU). Only the platform itself and
  // the attestation verifier hold it; host/protocol code never sees it.
  const crypto::SymmetricKey& hardware_root_key() const { return root_key_; }

  std::uint64_t platform_id() const { return platform_id_; }

  // Deterministic per-enclave entropy.
  Bytes enclave_seed(std::uint64_t enclave_id) const;

  // Hardware monotonic rollback counter per enclave identity (models a TPM
  // NV counter / SGX platform-service counter): survives enclave restarts,
  // never decreases. This is the root of snapshot rollback protection — a
  // sealed snapshot is only accepted when its version equals the current
  // counter value, so re-feeding an older blob is detected. The counters are
  // hardware state behind a const handle, like hardware_root_key(), and are
  // safe to read from any thread (metrics scrapes read them).
  std::uint64_t rollback_counter(std::uint64_t enclave_id) const;
  std::uint64_t advance_rollback_counter(std::uint64_t enclave_id) const;

 private:
  std::uint64_t platform_id_;
  crypto::SymmetricKey root_key_;
  mutable std::mutex counters_mu_;
  mutable std::unordered_map<std::uint64_t, std::uint64_t> rollback_counters_;
};

// The verification capability shared with the attestation service: knows
// every platform's root key, can check quotes. Models Intel's provisioning
// database behind IAS.
class QuoteVerifier {
 public:
  void register_platform(const TeePlatform& platform);

  // Checks the quote MAC for `platform_id` over `quoted_data`.
  bool verify(std::uint64_t platform_id, BytesView quoted_data,
              BytesView quote_mac) const;

 private:
  std::unordered_map<std::uint64_t, crypto::SymmetricKey> keys_;
};

}  // namespace recipe::tee
