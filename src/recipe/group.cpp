#include "recipe/group.h"

#include "attest/bundle.h"

namespace recipe {

Status GroupSettings::provision(tee::Enclave& enclave) const {
  if (!secured) return Status::ok();
  return attest::install_group_secrets(
      enclave, root, confidentiality ? &value_key : nullptr);
}

ReplicaOptions GroupSettings::replica(NodeId self,
                                      tee::Enclave* enclave) const {
  ReplicaOptions options;
  options.self = self;
  options.membership = membership;
  options.secured = secured;
  options.confidentiality = confidentiality;
  options.enclave = enclave;
  options.stack = secured ? net::NetStackParams::direct_io_tee()
                          : net::NetStackParams::direct_io_native();
  options.heartbeat_period = heartbeat_period;
  options.suspect_timeout = suspect_timeout;
  options.phi_threshold = phi_threshold;
  options.batch = batch;
  if (confidentiality) options.kv_config.value_encryption_key = value_key;
  return options;
}

ClientOptions GroupSettings::client(ClientId id, tee::Enclave* enclave) const {
  return ClientOptions{
      .id = id,
      .secured = secured,
      .confidentiality = confidentiality,
      .enclave = enclave,
  };
}

}  // namespace recipe
