#include "net/wire.hpp"

#include <algorithm>
#include <concepts>
#include <type_traits>
#include <utility>
#include <variant>

#include "sim/error.hpp"

namespace mts::net::wire {

namespace {

// ---------------------------------------------------------------------------
// Field operations.  Each header's byte layout is one `layout` function
// template that lists its fields in wire order; it runs against three
// `io` types — Writer (encode), Reader (decode) and Sizer (the size law
// `routing_header_bytes`) — so the three cannot disagree.  Multi-byte
// fields are big-endian.
// ---------------------------------------------------------------------------

constexpr std::int64_t kNsPerUs = 1000;

/// The fixed-width unsigned fields, shared by the three io types (wider
/// fields are all times, see `time`).
template <class Io>
struct Fields {
  constexpr void u8(auto& v) { self().uint(v, 1); }
  constexpr void u16(auto& v) { self().uint(v, 2); }
  constexpr void u32(auto& v) { self().uint(v, 4); }

 private:
  constexpr Io& self() { return static_cast<Io&>(*this); }
};

/// Appends the encoding to `out`.  A field that does not fit its wire
/// width, or an implied field that disagrees with what implies it, is a
/// construction bug, not bad input, so these `require`.
class Writer : public Fields<Writer> {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void uint(std::uint64_t v, int bytes) {
    sim::require(bytes == 8 || v >> (8 * bytes) == 0,
                 "wire: value exceeds its wire field");
    for (int i = bytes - 1; i >= 0; --i) {
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  void flag(bool v) { out_.push_back(v ? 1 : 0); }
  void pad(std::size_t n) { out_.insert(out_.end(), n, 0); }
  void tag(std::uint8_t t) { out_.push_back(t); }
  void version_kind(PacketKind k) {
    const auto kind = static_cast<std::uint32_t>(k);
    sim::require(kind <= 0x0f, "wire: packet kind exceeds the v1 kind nibble");
    out_.push_back(
        static_cast<std::uint8_t>((std::uint32_t{kWireVersion} << 4) | kind));
  }
  /// `t` in `unit_ns` ticks (floored); a u64 carries the raw signed value.
  void time(sim::Time t, int bytes, std::int64_t unit_ns) {
    const std::int64_t ticks = t.nanoseconds() / unit_ns;
    sim::require(bytes == 8 || (ticks >= 0 && ticks >> (8 * bytes) == 0),
                 "wire: time outside its wire field's range");
    uint(static_cast<std::uint64_t>(ticks), bytes);
  }
  void route(const RouteVec& r) {
    for (NodeId n : r) uint(n, 4);
  }
  void count(const auto& list) { uint(list.size(), 1); }
  void implied(const auto& field, const auto& source) {
    sim::require(field == source, "wire: implied field disagrees with its source");
  }
  bool expect(bool cond, const char* what) {
    sim::require(cond, what);
    return true;
  }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Reads one bounded section.  A read past the end, nonzero padding, an
/// undefined flag bit or a broken expectation latches the fail flag (reads
/// then return zeros); the caller checks `ok()` once, never per field.
class Reader : public Fields<Reader> {
 public:
  Reader(const std::uint8_t* d, std::size_t n) : d_(d), n_(n) {}

  void uint(auto& v, int bytes) {
    std::uint64_t x = 0;
    for (int i = 0; i < bytes; ++i) x = (x << 8) | byte();
    v = static_cast<std::remove_reference_t<decltype(v)>>(x);
  }
  void flag(bool& v) {
    const std::uint8_t b = byte();
    fail_if(b > 1);
    v = b != 0;
  }
  /// Padding must be zero on the wire; anything else is corruption (and
  /// would break encode(decode(buf)) == buf).
  void pad(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) fail_if(byte() != 0);
  }
  void tag(std::uint8_t t) { fail_if(byte() != t); }
  void version_kind(PacketKind& k) {
    const std::uint8_t b = byte();
    fail_if((b >> 4) != kWireVersion ||
            (b & 0x0f) > static_cast<std::uint8_t>(PacketKind::kMtsRerr));
    k = static_cast<PacketKind>(b & 0x0f);
  }
  void time(sim::Time& t, int bytes, std::int64_t unit_ns) {
    std::uint64_t ticks = 0;
    uint(ticks, bytes);
    t = sim::Time::ns(static_cast<std::int64_t>(ticks) * unit_ns);
  }
  /// A route list runs to the end of the section, 4 bytes per address
  /// (DSR-option style: the count is implicit in the section length).
  void route(RouteVec& r) {
    fail_if(left() % 4 != 0);
    if (!ok_) return;
    r.reserve(left() / 4);
    while (left() != 0) r.push_back(read<NodeId>(4));
  }
  /// The list's length; its entries follow later in the layout, and the
  /// section's exact-length rule rejects a count that lies.
  void count(auto& list) { list.resize(read<std::uint8_t>(1)); }
  void implied(auto& field, const auto& source) { field = source; }
  bool expect(bool cond, const char*) {
    fail_if(!cond);
    return cond;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t left() const { return n_ - off_; }
  [[nodiscard]] std::uint8_t peek() const { return off_ < n_ ? d_[off_] : 0; }

 private:
  std::uint8_t byte() {
    if (off_ == n_) {
      ok_ = false;
      return 0;
    }
    return d_[off_++];
  }
  template <class T>
  T read(int bytes) {
    T v{};
    uint(v, bytes);
    return v;
  }
  void fail_if(bool bad) {
    if (bad) ok_ = false;
  }

  const std::uint8_t* d_;
  std::size_t n_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// Adds up widths; implied fields and expectations cost nothing.
struct Sizer : Fields<Sizer> {
  std::uint32_t bytes = 0;

  constexpr void uint(const auto&, int n) { bytes += n; }
  constexpr void flag(const auto&) { bytes += 1; }
  constexpr void pad(std::size_t n) { bytes += n; }
  constexpr void tag(std::uint8_t) { bytes += 1; }
  constexpr void version_kind(const auto&) { bytes += 1; }
  constexpr void time(const auto&, int n, std::int64_t) { bytes += n; }
  constexpr void route(const auto& r) {
    bytes += 4 * static_cast<std::uint32_t>(r.size());
  }
  constexpr void count(const auto&) { bytes += 1; }
  constexpr void implied(const auto&, const auto&) {}
  constexpr bool expect(bool, const char*) { return false; }
};

// ---------------------------------------------------------------------------
// The layouts, one per header, in wire order.  `h` and `hop` are const
// for the Writer and Sizer and filled in by the Reader; per-hop fields
// (hop counts, route cursors) live in the `HopState` cell, not the header
// structs.  Fields the common header (or the route) already carries are
// `implied`: not re-encoded, required by the Writer, filled in by the
// Reader.
// ---------------------------------------------------------------------------

template <class T, class H>
concept Is = std::same_as<std::remove_const_t<T>, H>;

/// IPv4-sized: byte 0 packs the wire version and the packet kind.
constexpr void layout(auto& io, Is<CommonHeader> auto& c, auto& hop) {
  io.version_kind(c.kind);
  io.u8(hop.ttl);
  io.u16(c.payload_bytes);
  io.u32(c.src);
  io.u32(c.dst);
  io.u32(c.uid);
  io.time(c.originated, 4, kNsPerUs);  // lossy: floored to microseconds
}

/// Fronted by its own tag, so a data packet's section is self-describing.
constexpr void layout(auto& io, Is<TcpHeader> auto& t) {
  io.tag(kTagTcp);
  io.flag(t.retransmit);
  io.u16(t.flow_id);
  io.u32(t.seq);
  io.u32(t.ack);
  io.time(t.ts, 8, 1);
}

constexpr void layout(auto&, Is<std::monostate> auto&, auto&,
                      const CommonHeader&) {}

constexpr void layout(auto& io, Is<AodvRreqHeader> auto& h, auto& hop,
                      const CommonHeader&) {
  io.u32(h.rreq_id);
  io.u32(h.orig);
  io.u32(h.dst);
  io.u32(h.orig_seq);
  io.u32(h.dst_seq);
  io.u8(hop.hops);
  io.flag(h.dst_seq_known);
  io.pad(2);
}

constexpr void layout(auto& io, Is<AodvRrepHeader> auto& h, auto& hop,
                      const CommonHeader&) {
  io.u32(h.orig);
  io.u32(h.dst);
  io.u32(h.dst_seq);
  io.u8(hop.hops);
  io.time(h.lifetime, 6, 1);
  io.pad(1);
}

constexpr void layout(auto& io, Is<AodvRerrHeader> auto& h, auto&,
                      const CommonHeader&) {
  io.count(h.unreachable);
  io.pad(3);
  for (auto& u : h.unreachable) {
    io.u32(u.dst);
    io.u32(u.seq);
  }
}

/// The flood rebroadcast mutates only ttl and the record, so the
/// originator is the packet source.
constexpr void layout(auto& io, Is<DsrRreqHeader> auto& h, auto&,
                      const CommonHeader& c) {
  io.implied(h.orig, c.src);
  io.u32(h.rreq_id);
  io.u32(h.target);
  io.route(h.record);
}

/// The route runs orig..target inclusive, so both endpoints are implied
/// by it.
constexpr void layout(auto& io, Is<DsrRrepHeader> auto& h, auto& hop,
                      const CommonHeader&) {
  io.u16(hop.cursor);
  io.pad(6);
  io.route(h.route);
  if (io.expect(h.route.size() >= 2,
                "wire: DSR RREP route does not span orig..target")) {
    io.implied(h.orig, h.route.front());
    io.implied(h.target, h.route.back());
  }
}

/// The RERR travels to the notified source.
constexpr void layout(auto& io, Is<DsrRerrHeader> auto& h, auto& hop,
                      const CommonHeader& c) {
  io.implied(h.notify, c.dst);
  io.u32(h.from);
  io.u32(h.to);
  io.u16(hop.cursor);
  io.pad(2);
  io.route(h.back_path);
}

constexpr void layout(auto& io, Is<DsrSourceRoute> auto& h, auto& hop,
                      const CommonHeader&) {
  io.flag(h.salvaged);
  io.u16(hop.cursor);
  io.route(h.route);
}

constexpr void layout(auto& io, Is<MtsRreqHeader> auto& h, auto& hop,
                      const CommonHeader&) {
  io.u32(h.bcast_id);
  io.u32(h.orig);
  io.u32(h.dst);
  io.u8(hop.hops);
  io.pad(3);
  io.route(h.nodes);
}

constexpr void layout(auto& io, Is<MtsRrepHeader> auto& h, auto& hop,
                      const CommonHeader&) {
  io.u32(h.rrep_id);
  io.u32(h.orig);
  io.u32(h.dst);
  io.u8(h.hop_count);
  io.pad(1);
  io.u16(hop.cursor);
  io.route(h.nodes);
}

/// Checks travel checker -> source, so the receiving source is the
/// packet destination (relays mutate only the cursor).
constexpr void layout(auto& io, Is<MtsCheckHeader> auto& h, auto& hop,
                      const CommonHeader& c) {
  io.implied(h.source, c.dst);
  io.u32(h.check_id);
  io.u16(h.path_id);
  io.u8(h.hop_count);
  io.pad(1);
  io.u32(h.checker);
  io.u16(hop.cursor);
  io.pad(2);
  io.route(h.nodes);
}

/// A check error travels reporter -> checker.
constexpr void layout(auto& io, Is<MtsCheckErrorHeader> auto& h, auto& hop,
                      const CommonHeader& c) {
  io.implied(h.checker, c.dst);
  io.implied(h.reporter, c.src);
  io.u16(h.path_id);
  io.u32(h.flow_source);
  io.u32(h.broken_from);
  io.u32(h.broken_to);
  io.u16(hop.cursor);
  io.route(h.nodes);
}

/// The RERR travels to the informed source.
constexpr void layout(auto& io, Is<MtsRerrHeader> auto& h, auto&,
                      const CommonHeader& c) {
  io.implied(h.source, c.dst);
  io.u32(h.dst);
  io.u16(h.path_id);
  io.u32(h.broken_from);
  io.u32(h.broken_to);
  io.pad(2);
}

constexpr void layout(auto& io, Is<MtsDataTag> auto& h, auto&,
                      const CommonHeader&) {
  io.pad(1);
  io.u16(h.path_id);
}

/// The same order of magnitude as the data tag: a probe should not stand
/// out from the data plane it hides in.
constexpr void layout(auto& io, Is<MtsProbeHeader> auto& h, auto&,
                      const CommonHeader&) {
  io.flag(h.echo);
  io.u16(h.path_id);
  io.u32(h.probe_id);
}

/// The sizes airtime accounting quotes for the fixed headers.
constexpr std::uint32_t size_of(const auto&... header) {
  Sizer s;
  layout(s, header...);
  return s.bytes;
}
static_assert(size_of(CommonHeader{}, HopState{}) == kCommonHeaderBytes);
static_assert(size_of(TcpHeader{}) == kTcpHeaderBytes);

// ---------------------------------------------------------------------------
// How the wire names each routing alternative: the one map from packet
// kind / option tag to variant alternative.  Control headers are named by
// the packet kind (no tag byte); a data packet's kind does not determine
// its option, so data-plane options carry a leading tag byte; the bare
// transport segment (monostate) carries no option at all.
// ---------------------------------------------------------------------------

struct WireName {
  enum By : std::uint8_t { kNothing, kKind, kTag } by = kNothing;
  std::uint8_t id = 0;
  friend constexpr bool operator==(WireName, WireName) = default;
};

constexpr WireName by_kind(PacketKind k) {
  return {WireName::kKind, static_cast<std::uint8_t>(k)};
}
constexpr WireName by_tag(std::uint8_t t) { return {WireName::kTag, t}; }

template <class H>
constexpr WireName kNameOf{};  // std::monostate
template <>
constexpr WireName kNameOf<AodvRreqHeader> = by_kind(PacketKind::kAodvRreq);
template <>
constexpr WireName kNameOf<AodvRrepHeader> = by_kind(PacketKind::kAodvRrep);
template <>
constexpr WireName kNameOf<AodvRerrHeader> = by_kind(PacketKind::kAodvRerr);
template <>
constexpr WireName kNameOf<DsrRreqHeader> = by_kind(PacketKind::kDsrRreq);
template <>
constexpr WireName kNameOf<DsrRrepHeader> = by_kind(PacketKind::kDsrRrep);
template <>
constexpr WireName kNameOf<DsrRerrHeader> = by_kind(PacketKind::kDsrRerr);
template <>
constexpr WireName kNameOf<DsrSourceRoute> = by_tag(kTagSourceRoute);
template <>
constexpr WireName kNameOf<MtsRreqHeader> = by_kind(PacketKind::kMtsRreq);
template <>
constexpr WireName kNameOf<MtsRrepHeader> = by_kind(PacketKind::kMtsRrep);
template <>
constexpr WireName kNameOf<MtsCheckHeader> = by_kind(PacketKind::kMtsCheck);
template <>
constexpr WireName kNameOf<MtsCheckErrorHeader> =
    by_kind(PacketKind::kMtsCheckError);
template <>
constexpr WireName kNameOf<MtsRerrHeader> = by_kind(PacketKind::kMtsRerr);
template <>
constexpr WireName kNameOf<MtsDataTag> = by_tag(kTagMtsData);
template <>
constexpr WireName kNameOf<MtsProbeHeader> = by_tag(kTagMtsProbe);

/// A routing alternative on the wire: its tag byte, if it has one, then
/// its layout.
template <class H>
constexpr void option(auto& io, H& h, auto& hop, const CommonHeader& c) {
  if constexpr (kNameOf<std::remove_const_t<H>>.by == WireName::kTag) {
    io.tag(kNameOf<std::remove_const_t<H>>.id);
  }
  layout(io, h, hop, c);
}

/// Decodes the alternative the wire calls `name` into `out`; false when
/// no alternative has that name.
template <std::size_t... I>
bool read_option(Reader& r, WireName name, RoutingHeader& out, HopState& hop,
                 const CommonHeader& c, std::index_sequence<I...>) {
  const auto read = [&](auto& h) {
    option(r, h, hop, c);
    return true;
  };
  return (
      (kNameOf<std::variant_alternative_t<I, RoutingHeader>> == name &&
       read(out.emplace<I>())) ||
      ...);
}

}  // namespace

void encode_headers(const CommonHeader& common, const TcpHeader* tcp,
                    const RoutingHeader& routing,
                    std::vector<std::uint8_t>& out, const HopState& hop) {
  Writer w(out);
  layout(w, common, hop);
  if (tcp != nullptr) {
    sim::require(is_transport(common.kind),
                 "wire: TCP header on a control packet");
    layout(w, *tcp);
  }
  std::visit(
      [&](const auto& h) {
        constexpr WireName name = kNameOf<std::decay_t<decltype(h)>>;
        if constexpr (name.by == WireName::kKind) {
          sim::require(common.kind == static_cast<PacketKind>(name.id),
                       "wire: routing header does not match the packet kind");
        } else {
          sim::require(is_transport(common.kind),
                       "wire: data-plane option on a control packet");
        }
        option(w, h, hop, common);
      },
      routing);
}

void encode_headers(const Packet& p, std::vector<std::uint8_t>& out) {
  encode_headers(p.common(), p.has_tcp() ? &p.tcp() : nullptr, p.routing(),
                 out, p.hop());
}

void encode_packet(const Packet& p, std::vector<std::uint8_t>& out,
                   const std::uint8_t* payload, std::size_t payload_len) {
  encode_headers(p, out);
  const std::uint32_t want = p.common().payload_bytes;
  const std::size_t copy = std::min<std::size_t>(payload_len, want);
  if (copy != 0) out.insert(out.end(), payload, payload + copy);
  if (copy < want) out.insert(out.end(), want - copy, 0);
}

std::optional<DecodedPacket> decode_packet(const std::uint8_t* data,
                                           std::size_t len) {
  DecodedPacket d;
  Reader head(data, std::min<std::size_t>(len, kCommonHeaderBytes));
  layout(head, d.common, d.hop);
  d.payload_bytes = d.common.payload_bytes;
  if (!head.ok() || len < kCommonHeaderBytes + std::size_t{d.payload_bytes})
    return std::nullopt;
  // Payload sits last; everything between the common header and it is
  // the routing/option section, and it must be consumed exactly.
  d.payload_offset = len - d.payload_bytes;
  Reader r(data + kCommonHeaderBytes, d.payload_offset - kCommonHeaderBytes);
  constexpr auto kAlternatives =
      std::make_index_sequence<std::variant_size_v<RoutingHeader>>{};
  if (is_transport(d.common.kind)) {
    if (r.left() != 0 && r.peek() == kTagTcp) layout(r, d.tcp.emplace());
    if (r.left() != 0 && !read_option(r, by_tag(r.peek()), d.routing, d.hop,
                                      d.common, kAlternatives))
      return std::nullopt;
  } else if (!read_option(r, by_kind(d.common.kind), d.routing, d.hop,
                          d.common, kAlternatives)) {
    return std::nullopt;
  }
  if (!r.ok() || r.left() != 0) return std::nullopt;
  return d;
}

std::optional<DecodedPacket> decode_packet(const std::vector<std::uint8_t>& buf) {
  return decode_packet(buf.data(), buf.size());
}

}  // namespace mts::net::wire

namespace mts::net {

std::uint32_t routing_header_bytes(const RoutingHeader& h) {
  return std::visit(
      [](const auto& alt) {
        wire::Sizer s;
        const HopState hop{};
        wire::option(s, alt, hop, CommonHeader{});
        return s.bytes;
      },
      h);
}

}  // namespace mts::net
