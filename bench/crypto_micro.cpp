// Microbenchmarks for the cryptographic substrate (google-benchmark).
//
// Supports the paper's design argument: the one-time hash signature used
// by Turquois costs one SHA-256 evaluation to verify, orders of magnitude
// below the public-key operations ABBA leans on. These measure the *toy*
// implementations' wall-clock; the simulator separately charges the
// production-size virtual costs in crypto::CostModel.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "crypto/hmac.hpp"
#include "crypto/onetime_sig.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_batch.hpp"
#include "crypto/threshold.hpp"
#include "crypto/toy_rsa.hpp"
#include "turquois/config.hpp"
#include "turquois/key_infra.hpp"

namespace {

using namespace turq;
using namespace turq::crypto;

void BM_Sha256_64B(benchmark::State& state) {
  Bytes data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_1KB(benchmark::State& state) {
  Bytes data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_1KB);

void BM_HmacSha256(benchmark::State& state) {
  Bytes key(32, 0x11);
  Bytes data(256, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256);

// The Bracha channel's per-segment MAC: a pre-keyed HmacKey over a 133-byte
// authenticated segment prefix.
void BM_HmacSha256_Segment(benchmark::State& state) {
  const HmacKey key(Bytes(32, 0x11));
  const Bytes segment(133, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(key.mac(segment));
  }
}
BENCHMARK(BM_HmacSha256_Segment);

// The batch path at 1, 8 and 64 messages of 32 bytes (OTS secrets); time
// per message via items/s.
void BM_Sha256_Batch32B(benchmark::State& state) {
  const auto count = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> msgs(count, Bytes(32, 0xAB));
  const std::vector<BytesView> views(msgs.begin(), msgs.end());
  std::vector<Digest> out(count);
  for (auto _ : state) {
    sha256_batch(views.data(), count, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(count));
}
BENCHMARK(BM_Sha256_Batch32B)->Arg(1)->Arg(8)->Arg(64);

void BM_OneTimeSig_Verify(benchmark::State& state) {
  Rng rng(7);
  const auto chain = OneTimeKeyChain::generate(0, 1, 16, rng);
  const BytesView sk = chain.secret_key(4, Value::kOne);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ots_verify(chain.public_keys(), 4, Value::kOne, sk));
  }
}
BENCHMARK(BM_OneTimeSig_Verify);

void BM_ToyRsa_Sign(benchmark::State& state) {
  Rng rng(7);
  const RsaKeyPair key = rsa_generate(rng);
  const Bytes msg = to_bytes("turquois key exchange payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_sign(key, msg));
  }
}
BENCHMARK(BM_ToyRsa_Sign);

// One process's key pair in the trusted setup: two random 31-bit primes
// and the private exponent.
void BM_ToyRsa_Generate(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_generate(rng));
  }
}
BENCHMARK(BM_ToyRsa_Generate);

void BM_ToyRsa_Verify(benchmark::State& state) {
  Rng rng(7);
  const RsaKeyPair key = rsa_generate(rng);
  const Bytes msg = to_bytes("turquois key exchange payload");
  const std::uint64_t sig = rsa_sign(key, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rsa_verify(key.pub, msg, sig));
  }
}
BENCHMARK(BM_ToyRsa_Verify);

void BM_ThresholdShare_Generate(benchmark::State& state) {
  Rng rng(7);
  const auto scheme = ThresholdScheme::deal(16, 11, 0x5161, rng);
  const Bytes name = to_bytes("pv|1|1");
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.generate_share(3, name, rng));
  }
}
BENCHMARK(BM_ThresholdShare_Generate);

void BM_ThresholdShare_Verify(benchmark::State& state) {
  Rng rng(7);
  const auto scheme = ThresholdScheme::deal(16, 11, 0x5161, rng);
  const Bytes name = to_bytes("pv|1|1");
  const auto share = scheme.generate_share(3, name, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.verify_share(name, share));
  }
}
BENCHMARK(BM_ThresholdShare_Verify);

void BM_ThresholdCombine(benchmark::State& state) {
  Rng rng(7);
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t t = n - (n - 1) / 3;
  const auto scheme = ThresholdScheme::deal(n, t, 0x5161, rng);
  const Bytes name = to_bytes("coin|1");
  std::vector<ThresholdShare> shares;
  for (std::uint32_t i = 0; i < t; ++i) {
    shares.push_back(scheme.generate_share(i, name, rng));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.combine(name, shares));
  }
}
BENCHMARK(BM_ThresholdCombine)->Arg(4)->Arg(10)->Arg(16);

void BM_KeyChain_Generate(benchmark::State& state) {
  Rng rng(7);
  const auto phases = static_cast<Phase>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(OneTimeKeyChain::generate(0, 1, phases, rng));
  }
}
BENCHMARK(BM_KeyChain_Generate)->Arg(64)->Arg(512);

// The trusted setup a failure-free n=64 deployment hoists out of its
// repetitions: 64 chains of one default-sized epoch (kPhasesPerEpoch
// phases), each VK array RSA-signed and checked.
void BM_KeyInfra_Setup(benchmark::State& state) {
  const turquois::Config cfg = turquois::Config::for_group(64);
  const Rng rng(7);
  for (auto _ : state) {
    Rng setup_rng = rng;
    benchmark::DoNotOptimize(
        turquois::KeyInfrastructure::setup(cfg, setup_rng));
  }
}
BENCHMARK(BM_KeyInfra_Setup)->Unit(benchmark::kMillisecond);

// What a run past the first epoch pays to roll over at n=64: epoch 1 of
// every process, drawn, hashed, RSA-signed and checked on first use. Each
// iteration starts from a fresh setup, built outside the timed region.
void BM_KeyInfra_Rollover(benchmark::State& state) {
  const turquois::Config cfg = turquois::Config::for_group(64);
  const Rng rng(7);
  std::optional<turquois::KeyInfrastructure> infra;
  for (auto _ : state) {
    state.PauseTiming();
    Rng setup_rng = rng;
    infra = turquois::KeyInfrastructure::setup(cfg, setup_rng);
    state.ResumeTiming();
    for (ProcessId id = 0; id < cfg.n; ++id) {
      benchmark::DoNotOptimize(&infra->chain(id, 1));
    }
  }
}
BENCHMARK(BM_KeyInfra_Rollover)->Unit(benchmark::kMillisecond);

// One key batch of the pipelined service at n=16: 8 instances of one
// default-sized epoch.
constexpr std::uint32_t kServiceN = 16;
constexpr std::uint32_t kServiceBatch = 8;

void BM_KeyInfra_SetupBatch(benchmark::State& state) {
  const turquois::Config cfg = turquois::Config::for_group(kServiceN);
  const Rng rng(7);
  for (auto _ : state) {
    Rng setup_rng = rng;
    benchmark::DoNotOptimize(
        turquois::KeyInfrastructure::setup_batch(cfg, setup_rng,
                                                 kServiceBatch));
  }
}
BENCHMARK(BM_KeyInfra_SetupBatch)->Unit(benchmark::kMillisecond);

// The verification-key hashes of that batch: 16 × 8 chains of one epoch's
// keys, one-block hashes of 32-byte secrets laid out back to back as a
// chain holds them. Time per hash via items/s.
void BM_KeyInfra_VkHashes(benchmark::State& state) {
  const std::size_t hashes =
      std::size_t{kServiceN} * kServiceBatch *
      ots_key_count(1, turquois::kPhasesPerEpoch);
  Bytes secrets(hashes * 32);
  Rng rng(7);
  for (auto& byte : secrets) byte = static_cast<std::uint8_t>(rng.next());
  std::vector<BytesView> views(hashes);
  for (std::size_t i = 0; i < hashes; ++i) {
    views[i] = BytesView(secrets).subspan(i * 32, 32);
  }
  std::vector<Digest> vks(hashes);
  for (auto _ : state) {
    sha256_batch(views.data(), hashes, vks.data());
    benchmark::DoNotOptimize(vks.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(hashes));
}
BENCHMARK(BM_KeyInfra_VkHashes)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  // Every report names the SHA-256 kernel that ran on this host.
  benchmark::AddCustomContext(
      "sha256_impl", to_string(sha256_batch_resolved_impl()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
