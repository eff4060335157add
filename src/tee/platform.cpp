#include "tee/platform.h"

#include <unordered_map>

#include "common/serde.h"

namespace recipe::tee {

TeePlatform::TeePlatform(std::uint64_t platform_seed)
    : platform_id_(platform_seed) {
  Writer w;
  w.u64(platform_seed);
  w.str("recipe-platform-root-key");
  const Bytes salt = to_bytes("recipe-tee-platform-v1");
  root_key_ = crypto::SymmetricKey{crypto::hkdf_sha256(
      as_view(w.buffer()), as_view(salt), BytesView{},
      crypto::kSymmetricKeySize)};
}

std::uint64_t TeePlatform::rollback_counter(std::uint64_t enclave_id) const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  const auto it = rollback_counters_.find(enclave_id);
  return it == rollback_counters_.end() ? 0 : it->second;
}

std::uint64_t TeePlatform::advance_rollback_counter(
    std::uint64_t enclave_id) const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return ++rollback_counters_[enclave_id];
}

Bytes TeePlatform::enclave_seed(std::uint64_t enclave_id) const {
  Writer w;
  w.u64(platform_id_);
  w.u64(enclave_id);
  w.str("enclave-seed");
  return crypto::hkdf_sha256(root_key_.view(), BytesView{}, as_view(w.buffer()),
                             crypto::kSymmetricKeySize);
}

void QuoteVerifier::register_platform(const TeePlatform& platform) {
  keys_.emplace(platform.platform_id(), platform.hardware_root_key());
}

bool QuoteVerifier::verify(std::uint64_t platform_id, BytesView quoted_data,
                           BytesView quote_mac) const {
  const auto it = keys_.find(platform_id);
  if (it == keys_.end()) return false;
  return crypto::hmac_verify(it->second.view(), quoted_data, quote_mac);
}

}  // namespace recipe::tee
