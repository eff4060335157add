// Secrets bundle provisioned to an attested enclave by the CAS.
//
// Contains everything a fresh replica needs to participate: its assigned
// node id, the cluster membership, per-channel MAC keys (one per peer,
// including client principals) and the cluster value-encryption key for
// confidentiality mode. The bundle is encrypted + MACed under the DH shared
// key so only the attested enclave can open it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/ids.h"
#include "common/result.h"
#include "crypto/hmac.h"
#include "tee/enclave.h"

namespace recipe::attest {

// Canonical secret name for the MAC key of the channel between principals
// `a` and `b` (direction-independent).
std::string channel_secret_name(NodeId a, NodeId b);

// Name of the cluster-wide value-encryption key (confidentiality mode).
inline const char* kValueKeyName = "cluster/value-key";
// Name under which full members store the cluster root key, from which any
// pairwise channel key can be derived inside the enclave.
inline const char* kClusterRootName = "cluster/root";

struct SecretsBundle {
  NodeId assigned_id{};
  std::vector<NodeId> membership;          // replica ids
  std::vector<std::pair<NodeId, crypto::SymmetricKey>> channel_keys;
  crypto::SymmetricKey value_key;          // empty when confidentiality off
  bool confidentiality{false};
  // Full members (replicas) receive the cluster root; clients do not.
  crypto::SymmetricKey root_key;           // empty for non-members

  Bytes serialize() const;
  static Result<SecretsBundle> parse(BytesView data);
};

// Encrypts + MACs a bundle under `key`. Output layout: [nonce-ctr u64]
// [ciphertext bytes][mac 32B].
Bytes seal_bundle(const SecretsBundle& bundle, const crypto::SymmetricKey& key,
                  std::uint64_t nonce_counter);

// "Enclave code": decrypts, verifies and installs the bundle into `enclave`.
// Installs each channel key and the value key as named secrets, and returns
// the non-secret part (assigned id + membership) for the host runtime.
struct ProvisionInfo {
  NodeId assigned_id{};
  std::vector<NodeId> membership;
  bool confidentiality{false};
};
Result<ProvisionInfo> open_and_install_bundle(tee::Enclave& enclave,
                                              std::uint64_t challenger_dh_pub,
                                              BytesView sealed,
                                              BytesView context);

// Pre-attested provisioning (a group builder holding the secrets stands in
// for the CAS): installs the cluster root, plus `value_key` when non-null.
Status install_group_secrets(tee::Enclave& enclave,
                             const crypto::SymmetricKey& root,
                             const crypto::SymmetricKey* value_key);

}  // namespace recipe::attest
