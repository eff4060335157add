#include "attest/bundle.h"

#include "common/serde.h"
#include "crypto/chacha20.h"

namespace recipe::attest {

std::string channel_secret_name(NodeId a, NodeId b) {
  const std::uint64_t lo = std::min(a.value, b.value);
  const std::uint64_t hi = std::max(a.value, b.value);
  return "chan/" + std::to_string(lo) + ":" + std::to_string(hi);
}

Bytes SecretsBundle::serialize() const {
  Writer w;
  w.id(assigned_id);
  w.u32(static_cast<std::uint32_t>(membership.size()));
  for (NodeId n : membership) w.id(n);
  w.u32(static_cast<std::uint32_t>(channel_keys.size()));
  for (const auto& [peer, key] : channel_keys) {
    w.id(peer);
    w.bytes(key.view());
  }
  w.boolean(confidentiality);
  w.bytes(value_key.view());
  w.bytes(root_key.view());
  return std::move(w).take();
}

Result<SecretsBundle> SecretsBundle::parse(BytesView data) {
  Reader r(data);
  SecretsBundle bundle;
  auto id = r.id<NodeId>();
  auto n_members = r.u32();
  if (!id || !n_members) {
    return Status::error(ErrorCode::kInvalidArgument, "truncated bundle");
  }
  bundle.assigned_id = *id;
  for (std::uint32_t i = 0; i < *n_members; ++i) {
    auto m = r.id<NodeId>();
    if (!m) return Status::error(ErrorCode::kInvalidArgument,
                                 "truncated bundle");
    bundle.membership.push_back(*m);
  }
  auto n_keys = r.u32();
  if (!n_keys) return Status::error(ErrorCode::kInvalidArgument,
                                    "truncated bundle");
  for (std::uint32_t i = 0; i < *n_keys; ++i) {
    auto peer = r.id<NodeId>();
    auto key = r.bytes();
    if (!peer || !key) {
      return Status::error(ErrorCode::kInvalidArgument, "truncated bundle");
    }
    bundle.channel_keys.emplace_back(*peer,
                                     crypto::SymmetricKey{std::move(*key)});
  }
  auto conf = r.boolean();
  auto vkey = r.bytes();
  auto rkey = r.bytes();
  if (!conf || !vkey || !rkey) {
    return Status::error(ErrorCode::kInvalidArgument, "truncated bundle");
  }
  bundle.confidentiality = *conf;
  bundle.value_key = crypto::SymmetricKey{std::move(*vkey)};
  bundle.root_key = crypto::SymmetricKey{std::move(*rkey)};
  return bundle;
}

Bytes seal_bundle(const SecretsBundle& bundle, const crypto::SymmetricKey& key,
                  std::uint64_t nonce_counter) {
  Bytes plaintext = bundle.serialize();
  const auto nonce = crypto::make_nonce(0x4341u /*"CA"*/, nonce_counter);
  crypto::chacha20_xor(key.view(), nonce, 0, plaintext);

  Writer w;
  w.u64(nonce_counter);
  w.bytes(as_view(plaintext));
  const crypto::Mac mac = crypto::hmac_sha256(key.view(), as_view(w.buffer()));
  w.raw(BytesView(mac.data(), mac.size()));
  return std::move(w).take();
}

Result<ProvisionInfo> open_and_install_bundle(tee::Enclave& enclave,
                                              std::uint64_t challenger_dh_pub,
                                              BytesView sealed,
                                              BytesView context) {
  auto key = enclave.dh_shared_key(challenger_dh_pub, context);
  if (!key) return key.status();

  if (sealed.size() < crypto::kMacSize) {
    return Status::error(ErrorCode::kInvalidArgument, "short sealed bundle");
  }
  const BytesView body = sealed.first(sealed.size() - crypto::kMacSize);
  const BytesView mac = sealed.last(crypto::kMacSize);
  if (!crypto::hmac_verify(key.value().view(), body, mac)) {
    return Status::error(ErrorCode::kAuthFailed, "bundle MAC mismatch");
  }

  Reader r(body);
  auto nonce_counter = r.u64();
  auto ciphertext = r.bytes();
  if (!nonce_counter || !ciphertext) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "truncated sealed bundle");
  }
  const auto nonce = crypto::make_nonce(0x4341u, *nonce_counter);
  crypto::chacha20_xor(key.value().view(), nonce, 0, *ciphertext);

  auto bundle = SecretsBundle::parse(as_view(*ciphertext));
  if (!bundle) return bundle.status();

  // Install secrets inside the enclave.
  for (auto& [peer, chan_key] : bundle.value().channel_keys) {
    const Status st = enclave.install_secret(
        channel_secret_name(bundle.value().assigned_id,
                            peer), std::move(chan_key));
    if (!st.is_ok()) return st;
  }
  if (bundle.value().confidentiality) {
    const Status st =
        enclave.install_secret(kValueKeyName,
                               std::move(bundle.value().value_key));
    if (!st.is_ok()) return st;
  }
  if (!bundle.value().root_key.empty()) {
    const Status st = enclave.install_secret(
        kClusterRootName, std::move(bundle.value().root_key));
    if (!st.is_ok()) return st;
  }

  ProvisionInfo info;
  info.assigned_id = bundle.value().assigned_id;
  info.membership = std::move(bundle.value().membership);
  info.confidentiality = bundle.value().confidentiality;
  return info;
}

Status install_group_secrets(tee::Enclave& enclave,
                             const crypto::SymmetricKey& root,
                             const crypto::SymmetricKey* value_key) {
  const Status st = enclave.install_secret(kClusterRootName, root);
  if (!st.is_ok() || value_key == nullptr) return st;
  return enclave.install_secret(kValueKeyName, *value_key);
}

}  // namespace recipe::attest
