#include "security/keyshare.hpp"

#include <algorithm>
#include <array>

#include "net/wire.hpp"
#include "sim/error.hpp"

namespace mts::security {

// ---------------------------------------------------------------------------
// GF(2^8) via log/antilog tables over generator 3 (AES polynomial).
// ---------------------------------------------------------------------------

namespace gf256 {
namespace {

struct Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};
  Tables() {
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<std::size_t>(i)] = x;
      log[x] = static_cast<std::uint8_t>(i);
      // x *= 3 in GF(2^8): xtime(x) ^ x.
      const auto doubled = static_cast<std::uint8_t>(
          (x << 1) ^ ((x & 0x80) != 0 ? 0x1B : 0x00));
      x = static_cast<std::uint8_t>(doubled ^ x);
    }
    for (int i = 255; i < 512; ++i) {
      exp[static_cast<std::size_t>(i)] = exp[static_cast<std::size_t>(i - 255)];
    }
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const Tables& t = tables();
  return t.exp[std::size_t{t.log[a]} + std::size_t{t.log[b]}];
}

std::uint8_t inv(std::uint8_t a) {
  sim::require(a != 0, "gf256: inverse of zero");
  const Tables& t = tables();
  return t.exp[static_cast<std::size_t>(255 - t.log[a])];
}

}  // namespace gf256

// ---------------------------------------------------------------------------
// Shamir split / reconstruct.
// ---------------------------------------------------------------------------

std::vector<Share> shamir_split(const std::vector<std::uint8_t>& secret,
                                std::uint32_t n, std::uint32_t t,
                                sim::Rng& rng) {
  sim::require(t >= 1 && t <= n && n <= 255,
               "shamir_split: need 1 <= t <= n <= 255");
  std::vector<Share> shares(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    shares[j].x = static_cast<std::uint8_t>(j + 1);
    shares[j].bytes.resize(secret.size());
  }
  std::vector<std::uint8_t> coeffs(t);
  for (std::size_t i = 0; i < secret.size(); ++i) {
    coeffs[0] = secret[i];
    for (std::uint32_t d = 1; d < t; ++d) {
      coeffs[d] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    for (std::uint32_t j = 0; j < n; ++j) {
      // Horner at x = j + 1.
      const std::uint8_t x = shares[j].x;
      std::uint8_t acc = 0;
      for (std::uint32_t d = t; d-- > 0;) {
        acc = static_cast<std::uint8_t>(gf256::mul(acc, x) ^ coeffs[d]);
      }
      shares[j].bytes[i] = acc;
    }
  }
  return shares;
}

std::optional<std::vector<std::uint8_t>> shamir_reconstruct(
    const std::vector<Share>& shares, std::uint32_t t) {
  if (t == 0 || shares.size() < t) return std::nullopt;
  const std::size_t len = shares[0].bytes.size();
  for (std::uint32_t j = 0; j < t; ++j) {
    if (shares[j].x == 0 || shares[j].bytes.size() != len)
      return std::nullopt;
    for (std::uint32_t m = 0; m < j; ++m) {
      if (shares[m].x == shares[j].x) return std::nullopt;
    }
  }
  // Lagrange basis at x = 0: L_j = prod_{m != j} x_m / (x_m ^ x_j)
  // (subtraction is XOR in GF(2^8)).
  std::vector<std::uint8_t> basis(t);
  for (std::uint32_t j = 0; j < t; ++j) {
    std::uint8_t num = 1;
    std::uint8_t den = 1;
    for (std::uint32_t m = 0; m < t; ++m) {
      if (m == j) continue;
      num = gf256::mul(num, shares[m].x);
      den = gf256::mul(den,
                       static_cast<std::uint8_t>(shares[m].x ^ shares[j].x));
    }
    basis[j] = gf256::mul(num, gf256::inv(den));
  }
  std::vector<std::uint8_t> secret(len, 0);
  for (std::size_t i = 0; i < len; ++i) {
    std::uint8_t acc = 0;
    for (std::uint32_t j = 0; j < t; ++j) {
      acc = static_cast<std::uint8_t>(
          acc ^ gf256::mul(basis[j], shares[j].bytes[i]));
    }
    secret[i] = acc;
  }
  return secret;
}

// ---------------------------------------------------------------------------
// SecrecyPlane.
// ---------------------------------------------------------------------------

namespace {

/// Keystream for the masked fragment bytes: a splitmix64 counter chain
/// keyed by (key digest, flow, seq).  A stand-in for an AEAD cipher —
/// the game scores *key recovery*, never mask cryptanalysis, so the
/// stream only has to be a deterministic key-dependent function.
std::uint64_t keystream_seed(const std::vector<std::uint8_t>& key,
                             std::uint16_t flow_id, std::uint32_t seq) {
  std::uint64_t digest = 0xCBF29CE484222325ULL;
  for (std::uint8_t b : key) {
    digest ^= b;
    digest *= 0x100000001B3ULL;
  }
  return sim::splitmix64(digest ^ ((std::uint64_t{flow_id} << 32) | seq));
}

}  // namespace

SecrecyPlane::SecrecyPlane(const SecrecySpec& spec, sim::Rng rng)
    : spec_(spec), rng_(rng) {
  sim::require(spec.key_bytes > 0, "SecrecyPlane: key_bytes == 0");
}

void SecrecyPlane::register_flow(std::uint16_t flow_id,
                                 std::uint32_t n_shares) {
  sim::require(!by_id_.contains(flow_id),
               "SecrecyPlane: flow registered twice");
  FlowSecret f;
  f.flow_id = flow_id;
  f.n = std::max<std::uint32_t>(1, n_shares);
  f.t = spec_.threshold == 0 ? f.n : std::min(spec_.threshold, f.n);
  f.key.resize(spec_.key_bytes);
  for (auto& b : f.key) b = static_cast<std::uint8_t>(rng_.uniform_int(0, 255));
  f.shares = shamir_split(f.key, f.n, f.t, rng_);
  by_id_.emplace(flow_id, flows_.size());
  flows_.push_back(std::move(f));
}

const SecrecyPlane::FlowSecret* SecrecyPlane::find(
    std::uint16_t flow_id) const {
  const auto it = by_id_.find(flow_id);
  return it == by_id_.end() ? nullptr : &flows_[it->second];
}

std::shared_ptr<const std::vector<std::uint8_t>>
SecrecyPlane::materialize_payload(std::uint16_t flow_id, std::uint32_t seq,
                                  std::uint32_t share_index,
                                  std::uint32_t payload_bytes) const {
  const FlowSecret* f = find(flow_id);
  sim::require(f != nullptr, "SecrecyPlane: unregistered flow");
  const Share& share = f->shares[share_index % f->n];
  auto out = std::make_shared<std::vector<std::uint8_t>>(payload_bytes);
  std::uint8_t* bytes = out->data();
  // Share trailer first, when the segment is big enough to carry it.
  std::uint32_t head = 0;
  if (payload_bytes >= kShareTrailerFixed + share.bytes.size()) {
    bytes[0] = kShareMagic0;
    bytes[1] = kShareMagic1;
    bytes[2] = share.x;
    bytes[3] = static_cast<std::uint8_t>(share.bytes.size());
    std::copy(share.bytes.begin(), share.bytes.end(),
              bytes + kShareTrailerFixed);
    head = kShareTrailerFixed + static_cast<std::uint32_t>(share.bytes.size());
  }
  // The rest of the fragment is plaintext XOR keystream; the plaintext
  // is modelled as zeros, so the wire carries the keystream itself.
  // Byte i is byte i % 8 of word i / 8, starting at the first word
  // boundary at or after the trailer; the bytes before it stay zero.
  const std::uint64_t seed = keystream_seed(f->key, flow_id, seq);
  for (std::uint32_t i = (head + 7) / 8 * 8; i < payload_bytes; i += 8) {
    const std::uint64_t word = sim::splitmix64(seed + i / 8);
    const std::uint32_t n = std::min<std::uint32_t>(8, payload_bytes - i);
    for (std::uint32_t k = 0; k < n; ++k) {
      bytes[i + k] = static_cast<std::uint8_t>(word >> (8 * k));
    }
  }
  return out;
}

bool SecrecyPlane::wire_image(const net::Packet& p,
                              std::vector<std::uint8_t>& out) const {
  if (p.common().kind != net::PacketKind::kTcpData || !p.has_tcp())
    return false;
  const FlowSecret* f = find(p.tcp().flow_id);
  if (f == nullptr) return false;
  auto payload = p.wire_payload();
  if (payload == nullptr) {
    // Share index = the path the segment rides (MTS tags data packets
    // with its path id; unipath protocols have exactly one share).
    const auto* tag = p.header_if<net::MtsDataTag>();
    const std::uint32_t share_index = tag != nullptr ? tag->path_id : 0;
    payload = materialize_payload(p.tcp().flow_id, p.tcp().seq, share_index,
                                  p.common().payload_bytes);
    p.cache_wire_payload(payload);
  }
  net::wire::encode_packet(p, out, payload->data(), payload->size());
  return true;
}

std::uint32_t SecrecyPlane::shares_per_flow() const {
  return flows_.empty() ? 0 : flows_.front().n;
}

std::uint32_t SecrecyPlane::threshold_per_flow() const {
  return flows_.empty() ? 0 : flows_.front().t;
}

const std::vector<std::uint8_t>* SecrecyPlane::true_key(
    std::uint16_t flow_id) const {
  const FlowSecret* f = find(flow_id);
  return f == nullptr ? nullptr : &f->key;
}

namespace {

bool recovers(SecrecyPlane::Score* tally, std::uint32_t t,
              const std::vector<std::uint8_t>& true_key,
              const std::map<std::uint8_t, std::vector<std::uint8_t>>*
                  captured) {
  if (captured == nullptr) return false;
  if (tally != nullptr) tally->shares_captured += captured->size();
  if (captured->size() < t) return false;
  std::vector<Share> attempt;
  attempt.reserve(t);
  for (const auto& [x, bytes] : *captured) {
    if (attempt.size() == t) break;
    attempt.push_back(Share{x, bytes});
  }
  const auto key = shamir_reconstruct(attempt, t);
  return key.has_value() && *key == true_key;
}

}  // namespace

bool SecrecyPlane::key_recovered(std::uint16_t flow_id,
                                 const KeyRecoveryPool& pool) const {
  const FlowSecret* f = find(flow_id);
  if (f == nullptr) return false;
  return recovers(nullptr, f->t, f->key, pool.shares_for(flow_id));
}

SecrecyPlane::Score SecrecyPlane::score(const KeyRecoveryPool& pool) const {
  Score s;
  s.flows = flows_.size();
  for (const FlowSecret& f : flows_) {
    if (recovers(&s, f.t, f.key, pool.shares_for(f.flow_id))) {
      ++s.keys_recovered;
    }
  }
  s.recovery_rate = s.flows == 0 ? 0.0
                                 : static_cast<double>(s.keys_recovered) /
                                       static_cast<double>(s.flows);
  return s;
}

// ---------------------------------------------------------------------------
// KeyRecoveryPool.
// ---------------------------------------------------------------------------

void KeyRecoveryPool::capture(const std::uint8_t* data, std::size_t len) {
  const auto decoded = net::wire::decode_packet(data, len);
  if (!decoded.has_value()) {
    ++failed_;
    return;
  }
  ++parsed_;
  if (decoded->common.kind != net::PacketKind::kTcpData ||
      !decoded->tcp.has_value()) {
    return;
  }
  const std::uint8_t* payload = data + decoded->payload_offset;
  const std::uint32_t n = decoded->payload_bytes;
  if (n < kShareTrailerFixed || payload[0] != kShareMagic0 ||
      payload[1] != kShareMagic1) {
    return;
  }
  const std::uint8_t x = payload[2];
  const std::uint8_t share_len = payload[3];
  if (x == 0 || n < kShareTrailerFixed + std::uint32_t{share_len}) return;
  auto& flow = flows_[decoded->tcp->flow_id];
  const auto [it, fresh] = flow.emplace(
      x, std::vector<std::uint8_t>(payload + kShareTrailerFixed,
                                   payload + kShareTrailerFixed + share_len));
  if (fresh) ++shares_;
}

const std::map<std::uint8_t, std::vector<std::uint8_t>>*
KeyRecoveryPool::shares_for(std::uint16_t flow_id) const {
  const auto it = flows_.find(flow_id);
  return it == flows_.end() ? nullptr : &it->second;
}

}  // namespace mts::security
