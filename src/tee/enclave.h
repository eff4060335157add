// Enclave simulator: the unit of trusted execution in Recipe.
//
// Contract (matches the paper's fault model, §3.1):
//  * the enclave has a measured code identity (SHA-256 of the loaded code);
//  * key material provisioned after attestation lives only inside the
//    enclave object — host code has no accessor for it;
//  * trusted monotonic counters never move backwards (the non-equivocation
//    root); SGX lacks hardware counters, so like the paper we keep them in
//    the shielded runtime;
//  * the enclave can only crash-fail: crash() makes every entry point return
//    kUnavailable, and a restarted enclave comes back EMPTY (no secrets, no
//    counters) — it must re-attest and rejoin as a fresh replica (§3.7).
//
// Threading: the shielding hot path — increment_counter(), peek_counter(),
// secret(), has_secret(), keyset_epoch(), crashed() — may be called from ANY
// thread (caller-thread crypto in the staged egress pipeline): counters and
// the secret store sit behind a mutex, crash/epoch state is atomic, and an
// allocated counter value is never handed to two callers. The attestation /
// provisioning / sealing entry points (attest, quotes, DH, random_bytes,
// snapshot versions) stay single-threaded — they run on the owner's loop
// thread during setup and recovery, never on the message hot path.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "crypto/dh.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "tee/platform.h"

namespace recipe::tee {

using Measurement = crypto::Sha256Digest;

// The local attestation report: what the enclave's hardware vouches for.
struct AttestationReport {
  Measurement measurement{};
  std::uint64_t platform_id{0};
  std::uint64_t enclave_id{0};
  Bytes report_data;  // challenger nonce + enclave DH public value

  Bytes serialize() const;
};

// A quote = report + MAC by the platform's hardware root key, verifiable
// only by the attestation service (QuoteVerifier).
struct Quote {
  AttestationReport report;
  crypto::Mac mac{};
};

class Enclave {
 public:
  // `code_identity` models the loaded binary; its SHA-256 is the measurement.
  Enclave(const TeePlatform& platform, std::string code_identity,
          std::uint64_t enclave_id);

  std::uint64_t enclave_id() const { return enclave_id_; }
  const Measurement& measurement() const { return measurement_; }
  std::uint64_t platform_id() const { return platform_.platform_id(); }

  // --- Attestation-side entry points (Alg. 2) ---------------------------

  // attest(): produce a report binding `nonce` and this enclave's DH public
  // value into report_data.
  Result<AttestationReport> attest(BytesView nonce);

  // generate_quote(): sign the report with the hardware key (EGETKEY).
  Result<Quote> generate_quote(const AttestationReport& report);

  // The enclave's ephemeral DH public value for secret provisioning.
  Result<std::uint64_t> dh_public();

  // Derives the provisioning channel key from the challenger's DH public
  // value (called inside the enclave when the encrypted secrets arrive).
  Result<crypto::SymmetricKey> dh_shared_key(std::uint64_t challenger_public,
                                             BytesView context);

  // --- Secret store ------------------------------------------------------

  // Installs a named secret (e.g., per-channel MAC key, value-encryption
  // key). Only callable through the provisioning path.
  Status install_secret(const std::string& name, crypto::SymmetricKey key);
  Result<crypto::SymmetricKey> secret(const std::string& name) const;
  bool has_secret(const std::string& name) const;

  // Monotonic generation of the secret store: bumped by install_secret() and
  // restart(). Anything caching material DERIVED from enclave secrets (e.g.
  // per-channel crypto contexts) keys its cache on this so re-attestation /
  // re-provisioning invalidates it.
  std::uint64_t keyset_epoch() const {
    return keyset_epoch_.load(std::memory_order_acquire);
  }

  // --- Trusted monotonic counters (non-equivocation root) ----------------

  // Returns the next value (starting at 1) for channel `cq`; never repeats,
  // never decreases.
  Result<Counter> increment_counter(ChannelId cq);
  Counter peek_counter(ChannelId cq) const;

  // Raises channel `cq`'s counter to at least `floor` without allocating a
  // value (liboscore Appendix B.1: on a warm restart every persisted counter
  // fast-forwards past its stride). Monotone up — a stale floor is a no-op,
  // so replaying old persisted state can never cause a nonce to repeat.
  Status restore_counter_floor(ChannelId cq, Counter floor);

  // --- Sealing (snapshot durability, paper §3.7) --------------------------

  // The sealing key is derived from the hardware root key, this enclave's
  // MEASUREMENT (SGX EGETKEY MRENCLAVE policy) and its identity (standing in
  // for per-machine CPU fuses): it survives restart() — a re-launched
  // instance of the same binary on the same node can unseal — but no other
  // code identity, no other replica, and no host can. Fails while crashed.
  Result<crypto::SymmetricKey> sealing_key() const;

  // Monotonic snapshot version, backed by the platform's hardware rollback
  // counter (survives restarts). advance_snapshot_version() reserves the
  // next version for a new snapshot; snapshot_version() reads the current
  // one, which is the ONLY version an unseal may accept (anything older is a
  // rollback attack).
  Result<std::uint64_t> advance_snapshot_version();
  Result<std::uint64_t> snapshot_version() const;
  // The same hardware counter, readable while the enclave is crashed (it is
  // platform state) and from any thread. It starts at 0 and every advance
  // adds one, so it also counts the counter's writes.
  std::uint64_t rollback_counter() const {
    return platform_.rollback_counter(enclave_id_);
  }

  // --- Sealed volatile state (clean shutdown -> warm restart) -------------
  //
  // A CLEAN shutdown may seal the enclave's volatile state — the secret
  // store and the exact per-channel send counters — under the sealing key,
  // bound to `version` (freshly reserved from the hardware rollback
  // counter). The blob rides inside the WAL's clean-shutdown marker on
  // untrusted storage; only a re-launched instance of the same measured
  // binary on the same platform can restore it, which is what lets a warm
  // restart skip the CAS attestation round-trip entirely (paper §3.7 is
  // still required after a crash: no marker, no sealed state).
  Result<Bytes> seal_state(std::uint64_t version) const;
  // Verifies + installs a sealed state blob after restart(). Rejects
  // tampering (kAuthFailed) and any version != `expected_version`
  // (kRollback). Secrets install wholesale (one keyset-epoch bump);
  // counters restore as floors (monotone up).
  Status restore_state(BytesView sealed, std::uint64_t expected_version);

  // --- Randomness ---------------------------------------------------------

  Result<Bytes> random_bytes(std::size_t n);

  // --- Fault injection -----------------------------------------------------

  // TEEs may only crash-fail (paper fault model). After crash(), every
  // operation fails; restart() models a re-launched enclave: identity is
  // preserved but ALL volatile state (secrets, counters, DH key) is wiped.
  void crash() { crashed_.store(true, std::memory_order_release); }
  void restart();
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

 private:
  Status check_alive() const {
    if (crashed()) return Status::error(ErrorCode::kUnavailable,
                                        "enclave crashed");
    return Status::ok();
  }

  const TeePlatform& platform_;
  std::string code_identity_;
  std::uint64_t enclave_id_;
  Measurement measurement_{};
  crypto::Drbg drbg_;
  std::optional<crypto::DhKeyPair> dh_keypair_;
  // Hot-path state: guarded by mu_ so concurrent caller-thread shielding
  // allocates each counter value exactly once (see class comment).
  mutable std::mutex mu_;
  std::unordered_map<std::string, crypto::SymmetricKey> secrets_;
  std::unordered_map<ChannelId, Counter> counters_;
  std::atomic<std::uint64_t> keyset_epoch_{0};
  std::atomic<bool> crashed_{false};
};

}  // namespace recipe::tee
