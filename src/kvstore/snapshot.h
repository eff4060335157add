// Sealed, versioned KV snapshots (paper §3.7 durability / crash recovery).
//
// A snapshot is the full (key, value, timestamp) state of a KvStore sealed
// for UNTRUSTED storage: the entry stream is ChaCha20-encrypted under the
// enclave SEALING key (nonce bound to the snapshot version) and the whole
// blob — a cleartext manifest {magic, version, entry count} plus the
// ciphertext — is HMAC'd under the same key. Only a re-launched instance of
// the same measured binary can open it.
//
// Rollback protection: the version is reserved from the platform's hardware
// monotonic counter (tee::Enclave::advance_snapshot_version). unseal only
// accepts a blob whose version EQUALS the counter's current value, so a host
// that re-feeds an older (validly sealed) snapshot is detected — the caller
// sees ErrorCode::kRollback and pins a stat.
//
// This layer is tee-agnostic on purpose: it takes the sealing key and the
// expected version as parameters so kvstore/ keeps no dependency on tee/.
// recipe::Durability::seal_snapshot()/restore_snapshot() bind the two
// together.
#pragma once

#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/hmac.h"
#include "kvstore/kvstore.h"

namespace recipe::kv {

// Cleartext snapshot manifest (covered by the blob MAC).
struct SnapshotManifest {
  std::uint64_t version{0};
  std::uint32_t entries{0};
};

// Reads a sealed blob's manifest WITHOUT authenticating it (the MAC check
// happens in unseal_snapshot). For logging/tests only — never trust it.
Result<SnapshotManifest> peek_snapshot_manifest(BytesView sealed);

// Serializes + seals the full store under `sealing_key` as snapshot
// `version`. The caller must have reserved `version` from the hardware
// rollback counter (Enclave::advance_snapshot_version) BEFORE sealing.
Bytes seal_snapshot(const KvStore& kv, const crypto::SymmetricKey& sealing_key,
                    std::uint64_t version);

struct SnapshotRestore {
  std::size_t installed{0};  // entries that moved local state forward
  std::uint64_t version{0};
};

// Verifies, decrypts and installs a sealed snapshot into `kv`.
//  * kAuthFailed      — truncated blob or MAC mismatch (tampering);
//  * kRollback        — version != `expected_version` (the current hardware
//                       counter): an old snapshot was re-fed;
//  * entries merge last-writer-wins by timestamp, so restoring over a
//    non-empty store never moves a key backwards.
Result<SnapshotRestore> unseal_snapshot(BytesView sealed,
                                        const crypto::SymmetricKey& sealing_key,
                                        std::uint64_t expected_version,
                                        KvStore& kv);

}  // namespace recipe::kv
