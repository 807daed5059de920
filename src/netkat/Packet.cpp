//===- netkat/Packet.cpp - Packet and located-packet model ----------------===//

#include "netkat/Packet.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace eventnet;
using namespace eventnet::netkat;

Packet::Packet(const std::vector<std::pair<FieldId, Value>> &InFields) {
  for (const auto &[F, V] : InFields)
    set(F, V);
}

bool Packet::has(FieldId F) const {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  return It != Fields.end() && It->first == F;
}

Value Packet::get(FieldId F) const {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  assert(It != Fields.end() && It->first == F && "field absent from packet");
  return It->second;
}

Value Packet::getOr(FieldId F, Value Default) const {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  if (It == Fields.end() || It->first != F)
    return Default;
  return It->second;
}

void Packet::set(FieldId F, Value V) {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  if (It != Fields.end() && It->first == F) {
    It->second = V;
    return;
  }
  Fields.insert(It, {F, V});
}

void Packet::erase(FieldId F) {
  auto It = std::lower_bound(
      Fields.begin(), Fields.end(), F,
      [](const std::pair<FieldId, Value> &P, FieldId X) { return P.first < X; });
  if (It != Fields.end() && It->first == F)
    Fields.erase(It);
}

void Packet::assign(const PacketView &V) {
  Fields.assign(V.begin(), V.end());
}

Value PacketView::get(FieldId F) const {
  const Value *V = find(F);
  assert(V && "field absent from packet");
  return *V;
}

bool netkat::writesYield(PacketView In, PacketView Writes, PacketView Out) {
  // Walk the sorted union of In and Writes (a write overrides In's value
  // or inserts its field) in step with Out.
  const PacketView::Field *I = In.begin(), *IE = In.end();
  const PacketView::Field *W = Writes.begin(), *WE = Writes.end();
  const PacketView::Field *O = Out.begin(), *OE = Out.end();
  while (I != IE || W != WE) {
    PacketView::Field Next;
    if (W == WE || (I != IE && I->first < W->first)) {
      Next = *I++;
    } else {
      if (I != IE && I->first == W->first)
        ++I;
      Next = *W++;
    }
    if (O == OE || *O != Next)
      return false;
    ++O;
  }
  return O == OE;
}

std::string Packet::str() const {
  std::ostringstream OS;
  OS << '{';
  for (size_t I = 0; I != Fields.size(); ++I) {
    if (I)
      OS << ", ";
    OS << fieldName(Fields[I].first) << '=' << Fields[I].second;
  }
  OS << '}';
  return OS.str();
}

size_t Packet::hash() const {
  size_t H = 0x1234;
  for (const auto &[F, V] : Fields) {
    H = hashCombine(H, std::hash<uint16_t>()(F));
    H = hashCombine(H, std::hash<int64_t>()(V));
  }
  return H;
}

Packet netkat::makePacket(Location L,
                          const std::vector<std::pair<FieldId, Value>> &Hdr) {
  Packet P(Hdr);
  P.setLoc(L);
  return P;
}
