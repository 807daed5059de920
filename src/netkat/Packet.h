//===- netkat/Packet.h - Packet and located-packet model --------*- C++ -*-===//
//
// Part of the eventnet project (PLDI 2016 "Event-Driven Network
// Programming" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The packet model from Section 2 of the paper: a packet is a record of
/// numeric fields {f1; ...; fn}, and a located packet is a packet paired
/// with a location sw:pt. Following the standard NetKAT treatment, the
/// location is stored as two reserved fields ("sw" and "pt", see
/// support/Symbols.h), which lets the evaluator and the FDD compiler treat
/// location tests/updates uniformly with header fields.
///
//===----------------------------------------------------------------------===//

#ifndef EVENTNET_NETKAT_PACKET_H
#define EVENTNET_NETKAT_PACKET_H

#include "support/Ids.h"
#include "support/Symbols.h"

#include <algorithm>
#include <string>
#include <vector>

namespace eventnet {
namespace netkat {

class PacketView;

/// A packet: a record of numeric fields, stored as a sorted (by FieldId)
/// vector of (field, value) pairs. Sortedness makes equality, ordering,
/// and hashing structural, which the evaluator's packet sets rely on.
class Packet {
public:
  Packet() = default;

  /// Builds a packet from unsorted (field, value) pairs. Later duplicates
  /// overwrite earlier ones.
  explicit Packet(const std::vector<std::pair<FieldId, Value>> &Fields);

  /// Returns true if field \p F is present.
  bool has(FieldId F) const;

  /// Returns the value of field \p F; asserts that it is present.
  Value get(FieldId F) const;

  /// Returns the value of field \p F, or \p Default if absent.
  Value getOr(FieldId F, Value Default) const;

  /// Sets field \p F to \p V (pkt[f <- n] in the paper).
  void set(FieldId F, Value V);

  /// Removes field \p F if present.
  void erase(FieldId F);

  /// Replaces every field with \p V's, reusing this packet's storage:
  /// no allocation once the capacity suffices.
  void assign(const PacketView &V);

  /// Location accessors (reserved sw/pt fields).
  SwitchId sw() const { return static_cast<SwitchId>(get(FieldSw)); }
  PortId pt() const { return static_cast<PortId>(get(FieldPt)); }
  Location loc() const { return Location{sw(), pt()}; }
  void setLoc(Location L) {
    set(FieldSw, static_cast<Value>(L.Sw));
    set(FieldPt, static_cast<Value>(L.Pt));
  }

  /// All fields, sorted by FieldId.
  const std::vector<std::pair<FieldId, Value>> &fields() const {
    return Fields;
  }

  /// Renders e.g. "{sw=1, pt=2, ip_dst=4}".
  std::string str() const;

  friend bool operator==(const Packet &A, const Packet &B) {
    return A.Fields == B.Fields;
  }
  friend bool operator!=(const Packet &A, const Packet &B) {
    return !(A == B);
  }
  friend bool operator<(const Packet &A, const Packet &B) {
    return A.Fields < B.Fields;
  }

  size_t hash() const;

private:
  std::vector<std::pair<FieldId, Value>> Fields;
};

/// A non-owning, read-only view of a packet's sorted (field, value)
/// pairs: a Packet's own storage, or a packed copy of one in an arena.
/// Lookups and equality mean the same as Packet's.
class PacketView {
public:
  using Field = std::pair<FieldId, Value>;

  PacketView() = default;
  PacketView(const Field *Data, size_t Size) : Data(Data), Size(Size) {}
  PacketView(const Packet &P) // NOLINT: implicit by design
      : Data(P.fields().data()), Size(P.fields().size()) {}

  const Field *begin() const { return Data; }
  const Field *end() const { return Data + Size; }
  size_t size() const { return Size; }

  /// The value of field \p F, or nullptr if absent.
  const Value *find(FieldId F) const {
    for (const Field &P : *this) {
      if (P.first == F)
        return &P.second;
      if (P.first > F)
        break;
    }
    return nullptr;
  }
  bool has(FieldId F) const { return find(F) != nullptr; }
  /// Asserts that \p F is present.
  Value get(FieldId F) const;
  Value getOr(FieldId F, Value Default) const {
    const Value *V = find(F);
    return V ? *V : Default;
  }

  SwitchId sw() const { return static_cast<SwitchId>(get(FieldSw)); }
  PortId pt() const { return static_cast<PortId>(get(FieldPt)); }
  Location loc() const { return Location{sw(), pt()}; }

  friend bool operator==(PacketView A, PacketView B) {
    return A.Size == B.Size && std::equal(A.begin(), A.end(), B.begin());
  }
  friend bool operator!=(PacketView A, PacketView B) { return !(A == B); }

private:
  const Field *Data = nullptr;
  size_t Size = 0;
};

/// True iff \p In with every write of \p Writes applied (pkt[f <- n],
/// Packet::set semantics) equals \p Out. \p Writes is sorted by field
/// with no repeats, as a normalized action sequence is. Builds nothing.
bool writesYield(PacketView In, PacketView Writes, PacketView Out);

/// Builds a located packet: header fields plus a location.
Packet makePacket(Location L,
                  const std::vector<std::pair<FieldId, Value>> &Hdr);

} // namespace netkat
} // namespace eventnet

template <> struct std::hash<eventnet::netkat::Packet> {
  size_t operator()(const eventnet::netkat::Packet &P) const {
    return P.hash();
  }
};

#endif // EVENTNET_NETKAT_PACKET_H
