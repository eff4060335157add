// Micro-benchmarks (google-benchmark) for the crypto substrate: these are
// real software-crypto numbers on the build machine (not simulated time);
// they justify the cost-model constants in tee/cost_model.h.
#include <benchmark/benchmark.h>

#include "common/bytes.h"
#include "crypto/chacha20.h"
#include "crypto/dh.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace {

using namespace recipe;

void BM_Sha256(benchmark::State& state) {
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(as_view(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(as_view(key), as_view(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HmacVerify(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(256, 0xAB);
  const auto mac = crypto::hmac_sha256(as_view(key), as_view(data));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_verify(
        as_view(key), as_view(data), BytesView(mac.data(), mac.size())));
  }
}
BENCHMARK(BM_HmacVerify);

void BM_ChaCha20(benchmark::State& state) {
  const Bytes key(32, 0x22);
  const auto nonce = crypto::make_nonce(1, 1);
  Bytes data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    crypto::chacha20_xor(as_view(key), nonce, 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20)->Arg(256)->Arg(1024)->Arg(4096);

// The scalar reference core, through the test switch, beside the dispatched
// core above.
void BM_ChaCha20Scalar(benchmark::State& state) {
  crypto::set_chacha20_vector_acceleration(false);
  BM_ChaCha20(state);
  crypto::set_chacha20_vector_acceleration(true);
}
BENCHMARK(BM_ChaCha20Scalar)->Arg(256)->Arg(1024)->Arg(4096);

void BM_HkdfSha256(benchmark::State& state) {
  const Bytes ikm(32, 0x33);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::hkdf_sha256(as_view(ikm), BytesView{}, as_view("ctx"), 32));
  }
}
BENCHMARK(BM_HkdfSha256);

void BM_DhKeyAgreement(benchmark::State& state) {
  Rng rng(1);
  const auto alice = crypto::DiffieHellman::generate(rng);
  const auto bob = crypto::DiffieHellman::generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::DiffieHellman::shared_key(
        alice.private_exponent, bob.public_value, as_view("ctx")));
  }
}
BENCHMARK(BM_DhKeyAgreement);

}  // namespace

BENCHMARK_MAIN();
